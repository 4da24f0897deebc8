#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <functional>
#include <thread>
#include <vector>

#include "util/thread_annotations.hpp"

namespace prpart {

/// Worker count from the environment variable `env_var` when set, otherwise
/// std::thread::hardware_concurrency() (at least 1).
unsigned default_thread_count(const char* env_var = "PRPART_THREADS");

/// The one thread-count rule of every fan-out (parallel_for, WorkerPool,
/// the search's SearchOptions::threads, sim::simulate_schemes, the
/// server's --job-threads): 0 means default_thread_count(), any other
/// value is taken as given, and 1 runs inline on the caller.
unsigned resolve_thread_count(unsigned threads);

/// True while the calling thread is executing a parallel_for or WorkerPool
/// body. A pool built there spawns no thread and a run issued there
/// executes inline, so composed parallel layers (sweep over designs x
/// search over work units) cannot multiply the thread count.
bool inside_parallel_for();

/// The one dispatch loop of the project. run() distributes [0, count)
/// across the pool's threads, pulling indices from a shared atomic counter
/// (dynamic scheduling — iteration costs in the sweeps vary by an order of
/// magnitude, so static chunking would leave workers idle).
///
/// Guarantees:
///  * every index is executed exactly once;
///  * results written to distinct per-index slots need no synchronisation;
///  * the first exception thrown by any body is rethrown on the caller
///    after every participant has stopped, and the pool stays usable.
///
/// Bodies must not themselves assume an execution order: determinism of the
/// overall computation must come from writing to index-addressed outputs,
/// exactly like an OpenMP `parallel for` with `schedule(dynamic)`.
///
/// The constructor is the only place the project spawns compute threads;
/// they are reused across run() calls, so a server worker that keeps a pool
/// across jobs reaches a steady state that spawns no threads per request
/// (DESIGN.md §4e). The calling thread participates as the n-th worker, so
/// WorkerPool(n) owns n-1 threads but run() executes bodies on up to n.
///
/// One pool serves one runner at a time: run() is not reentrant and must
/// not be called concurrently from two threads (the server gives each of
/// its job workers its own pool). Concurrent calls are detected and throw.
///
/// The internal mutex registers at lock_order::Level::kWorkerPool — below
/// the search lock (bodies acquire the bound-hint level after the pool
/// mutex is dropped) and above the server layers.
class WorkerPool {
 public:
  /// Spawns resolve_thread_count(threads) - 1 workers: 0 means
  /// default_thread_count(), 1 runs inline. Built inside a parallel_for
  /// or pool body it spawns nothing (its runs would be inline anyway).
  explicit WorkerPool(unsigned threads);
  ~WorkerPool();

  WorkerPool(const WorkerPool&) = delete;
  WorkerPool& operator=(const WorkerPool&) = delete;

  /// Total workers run() fans across, counting the caller.
  unsigned thread_count() const {
    return static_cast<unsigned>(workers_.size()) + 1;
  }
  /// Threads spawned over the pool's lifetime — constant after
  /// construction; tests assert steady-state runs spawn nothing.
  std::uint64_t threads_spawned() const {
    return static_cast<std::uint64_t>(workers_.size());
  }

  /// Runs body(i) for every i in [0, count) over the persistent workers.
  /// Runs inline (no handoff) when the pool has no workers, when
  /// count <= 1, or when called from inside a parallel_for/pool body.
  void run(std::size_t count, const std::function<void(std::size_t)>& body);

 private:
  void worker_loop();
  /// Pulls indices until the current run is drained; returns with the
  /// job's completed count updated. Runs bodies with no pool lock held.
  void work(const std::function<void(std::size_t)>& body, std::size_t count);

  Mutex mutex_{lock_order::Level::kWorkerPool, "worker_pool"};
  CondVar wake_;             ///< workers: a new run was published
  CondVar done_;             ///< caller: the current run fully drained
  std::uint64_t generation_ PRPART_GUARDED_BY(mutex_) = 0;
  bool stop_ PRPART_GUARDED_BY(mutex_) = false;
  bool running_ PRPART_GUARDED_BY(mutex_) = false;
  const std::function<void(std::size_t)>* body_ PRPART_GUARDED_BY(mutex_) =
      nullptr;
  std::size_t count_ PRPART_GUARDED_BY(mutex_) = 0;
  std::size_t active_ PRPART_GUARDED_BY(mutex_) = 0;  ///< workers inside work()
  std::atomic<std::size_t> next_{0};
  std::atomic<bool> failed_{false};
  std::exception_ptr first_error_ PRPART_GUARDED_BY(mutex_);
  std::vector<std::thread> workers_;
};

/// Runs `body(i)` for every i in [0, count) on a WorkerPool of
/// min(resolve_thread_count(threads), count) threads built for this call:
/// WorkerPool::run's guarantees, with threads <= 1 inline on the caller.
/// Callers that fan out repeatedly keep a WorkerPool instead.
void parallel_for(std::size_t count, unsigned threads,
                  const std::function<void(std::size_t)>& body);

}  // namespace prpart
