#include "util/parallel_for.hpp"

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <exception>
#include <thread>
#include <vector>

#include "util/status.hpp"
#include "util/strings.hpp"
#include "util/thread_annotations.hpp"

namespace prpart {

namespace {
// Set while executing a pool body. A nested pool then spawns nothing and a
// nested run executes inline (e.g. the sweep harness parallelising over
// designs while each design's search parallelises over work units), so
// composed layers never multiply the thread count.
thread_local bool g_inside_parallel_for = false;
}  // namespace

bool inside_parallel_for() { return g_inside_parallel_for; }

unsigned resolve_thread_count(unsigned threads) {
  return threads == 0 ? default_thread_count() : threads;
}

void parallel_for(std::size_t count, unsigned threads,
                  const std::function<void(std::size_t)>& body) {
  if (count == 0) return;
  const auto n = static_cast<unsigned>(
      std::min<std::size_t>(resolve_thread_count(threads), count));
  WorkerPool(n).run(count, body);
}

WorkerPool::WorkerPool(unsigned threads) {
  const unsigned n = g_inside_parallel_for ? 1 : resolve_thread_count(threads);
  workers_.reserve(n - 1);
  for (unsigned t = 1; t < n; ++t)
    workers_.emplace_back([this] { worker_loop(); });
}

WorkerPool::~WorkerPool() {
  if (workers_.empty()) return;
  {
    const MutexLock lock(mutex_);
    stop_ = true;
    wake_.notify_all();
  }
  for (std::thread& t : workers_) t.join();
}

void WorkerPool::work(const std::function<void(std::size_t)>& body,
                      std::size_t count) {
  // Bodies run with the nested flag set (and no pool lock held), so a
  // parallel_for or pool run issued from inside one executes inline. The
  // caller participates through this function too, hence save/restore
  // rather than set/clear.
  const bool was_inside = g_inside_parallel_for;
  g_inside_parallel_for = true;
  for (;;) {
    const std::size_t i = next_.fetch_add(1, std::memory_order_relaxed);
    if (i >= count) break;
    try {
      body(i);
    } catch (...) {
      {
        // Any lock the body held was released during unwinding, so only
        // the pool mutex is acquired here.
        const MutexLock lock(mutex_);
        if (!first_error_) first_error_ = std::current_exception();
      }
      failed_.store(true, std::memory_order_relaxed);
      // Mark every remaining index claimed so the drain condition (all
      // indices claimed, no participant active) holds without running
      // them: the other participants stop at their next claim.
      next_.store(count, std::memory_order_relaxed);
      break;
    }
    if (failed_.load(std::memory_order_relaxed)) break;
  }
  g_inside_parallel_for = was_inside;
}

void WorkerPool::worker_loop() {
  std::uint64_t seen = 0;
  MutexLock lock(mutex_);
  for (;;) {
    while (!stop_ && (generation_ == seen || !running_)) wake_.wait(mutex_);
    if (stop_) return;
    seen = generation_;
    const std::function<void(std::size_t)>* body = body_;
    const std::size_t count = count_;
    ++active_;
    lock.unlock();
    work(*body, count);
    lock.lock();
    --active_;
    if (active_ == 0 && next_.load(std::memory_order_relaxed) >= count_)
      done_.notify_one();
  }
}

void WorkerPool::run(std::size_t count,
                     const std::function<void(std::size_t)>& body) {
  if (count == 0) return;
  if (workers_.empty() || count == 1 || g_inside_parallel_for) {
    for (std::size_t i = 0; i < count; ++i) body(i);
    return;
  }

  {
    const MutexLock lock(mutex_);
    require(!running_,
            "WorkerPool::run called concurrently; a pool serves one runner "
            "at a time (give each job worker its own pool)");
    body_ = &body;
    count_ = count;
    running_ = true;
    failed_.store(false, std::memory_order_relaxed);
    next_.store(0, std::memory_order_relaxed);
    ++generation_;
    wake_.notify_all();
  }

  // The caller is the pool's extra worker: it drains indices alongside the
  // woken threads, then waits for the stragglers still inside a body.
  work(body, count);

  std::exception_ptr error;
  {
    MutexLock lock(mutex_);
    while (active_ != 0 ||
           next_.load(std::memory_order_relaxed) < count_)
      done_.wait(mutex_);
    running_ = false;
    body_ = nullptr;
    error = first_error_;
    first_error_ = nullptr;
  }
  if (error) std::rethrow_exception(error);
}

unsigned default_thread_count(const char* env_var) {
  // Read-only getenv: nothing in the library calls setenv, so this races
  // only with a caller that changes the environment while threads run.
  // NOLINTNEXTLINE(concurrency-mt-unsafe)
  if (const char* env = std::getenv(env_var)) {
    const std::uint64_t n = parse_u64(env);
    return n == 0 ? 1u : static_cast<unsigned>(n);
  }
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1u : hw;
}

}  // namespace prpart
