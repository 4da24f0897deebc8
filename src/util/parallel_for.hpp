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

/// Runs `body(i)` for every i in [0, count) across `threads` worker
/// threads, pulling indices from a shared atomic counter (dynamic
/// scheduling — iteration costs in the sweeps vary by an order of
/// magnitude, so static chunking would leave workers idle).
///
/// Guarantees:
///  * every index is executed exactly once;
///  * results written to distinct per-index slots need no synchronisation;
///  * with threads <= 1 the loop runs inline on the calling thread;
///  * the first exception thrown by any body is rethrown on the caller
///    after all workers have stopped.
///
/// Bodies must not themselves assume an execution order: determinism of the
/// overall computation must come from writing to index-addressed outputs,
/// exactly like an OpenMP `parallel for` with `schedule(dynamic)`.
///
/// Nested calls run inline: a parallel_for issued from inside a worker's
/// body executes on that worker without spawning further threads, so
/// composed parallel layers (sweep over designs x search over work units)
/// cannot multiply the thread count.
void parallel_for(std::size_t count, unsigned threads,
                  const std::function<void(std::size_t)>& body);

/// True while the calling thread is executing a parallel_for body on a
/// spawned worker (used by nested calls to fall back to inline execution).
bool inside_parallel_for();

/// Worker count from the environment variable `env_var` when set, otherwise
/// std::thread::hardware_concurrency() (at least 1).
unsigned default_thread_count(const char* env_var = "PRPART_THREADS");

/// A persistent worker pool with parallel_for semantics: run() distributes
/// [0, count) across the pool's threads through the same dynamic atomic
/// counter, with the same guarantees (every index exactly once, first
/// exception rethrown on the caller, nested runs inline). Unlike the free
/// parallel_for, the threads are spawned once in the constructor and reused
/// across run() calls, so a server worker that keeps a pool across jobs
/// reaches a steady state that spawns no threads per request (DESIGN.md
/// §4e). The calling thread participates as the n-th worker, so
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
  /// Spawns `threads - 1` workers (threads <= 1 means run() is inline).
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

  /// parallel_for(count, thread_count(), body) over the persistent
  /// workers. Runs inline (no handoff) when the pool has no workers, when
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

/// parallel_for that reuses `pool` when given one (and the call is not
/// nested), spawning fresh threads otherwise — the seam through which
/// SearchOptions::pool threads the server's persistent pool into the
/// search phases without changing any call that passes no pool. `threads`
/// still caps the fan-out logically, but a pooled run uses the pool's
/// fixed thread count; both schedules produce identical results by the
/// parallel_for determinism contract.
void parallel_for(WorkerPool* pool, std::size_t count, unsigned threads,
                  const std::function<void(std::size_t)>& body);

}  // namespace prpart
