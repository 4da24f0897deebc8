#pragma once

#include <atomic>
#include <cstdint>
#include <deque>
#include <memory>
#include <ostream>
#include <string>
#include <thread>

#include "device/device.hpp"
#include "server/cache.hpp"
#include "server/protocol.hpp"
#include "server/reactor.hpp"
#include "server/stats.hpp"
#include "server/store.hpp"
#include "util/cancel.hpp"
#include "util/socket.hpp"
#include "util/thread_annotations.hpp"

namespace prpart {
struct EvalScratch;  // core/eval_kernel.hpp
class WorkerPool;    // util/parallel_for.hpp
}  // namespace prpart

namespace prpart::server {

struct ServerOptions {
  /// Bind address is always loopback (the protocol is trusted-client);
  /// port 0 picks an ephemeral port, read back with Server::port().
  std::uint16_t port = 0;
  /// Scheduler worker threads: how many partition jobs execute at once.
  unsigned workers = 2;
  /// Admission control: beyond this depth the queue is in the *soft* band —
  /// jobs are still admitted but the client gets an interim `queued` notice
  /// with its position and ETA. The hard reject sits at `high_watermark`.
  std::size_t max_queue = 16;
  /// Queue depth at which admission hard-rejects with `overloaded`;
  /// 0 derives 8 * max_queue. Set equal to max_queue to restore the
  /// pre-soft-band behaviour (reject as soon as max_queue is reached).
  std::size_t high_watermark = 0;
  /// Deadline for jobs that do not carry their own timeout_ms; 0 = none.
  std::uint64_t default_timeout_ms = 0;
  /// RAM result-cache capacity in entries; 0 disables caching.
  std::size_t cache_entries = 256;
  /// Directory of the persistent result store; empty disables it. RAM
  /// evictions spill here, lookups fall back here, and a graceful stop
  /// flushes here so a restarted server warm-starts its working set.
  std::string store_dir;
  /// On-disk store capacity in entries (files); 0 disables the disk layer.
  std::size_t store_entries = 4096;
  /// Threads of each job worker's persistent WorkerPool, which runs the
  /// region-allocation search of every job whose request does not set
  /// `threads` to 1 (a request without `threads` takes this count).
  /// 0 = default_thread_count(), 1 = inline. Kept at 1 by default so K
  /// scheduler workers do not multiply into K x hardware_concurrency
  /// search threads.
  unsigned job_threads = 1;
  /// Admission threads behind the epoll reactor: they parse and dispatch
  /// the framed request lines, keeping the reactor thread free for I/O.
  unsigned io_workers = 2;
  /// Per-connection cap on pipelined requests awaiting a final response;
  /// at the cap the reactor stops reading the connection (TCP
  /// backpressure) until a response retires a slot.
  std::size_t max_inflight_per_conn = 64;
  /// Nullable log sink plus the period of the stats log line (0 = off).
  std::ostream* log = nullptr;
  std::uint64_t log_interval_ms = 0;
};

/// The `prpart serve` engine: a TCP front end multiplexing the
/// deterministic partitioning engine across concurrent clients.
///
///   * a non-blocking epoll reactor owning every connection, `io_workers`
///     admission threads framing requests into jobs, and `workers`
///     scheduler threads draining a bounded job queue; every response,
///     inline or from a worker, goes back through the reactor;
///   * pipelining: clients may stream many newline-delimited requests per
///     connection; responses come back as each job finishes (possibly out
///     of order) and are matched by `id`;
///   * graded admission control: a full queue first degrades to `queued`
///     notices (position + ETA), and only past `high_watermark` — or while
///     draining — rejects with `overloaded`;
///   * per-job cooperative timeouts via CancelToken threaded through
///     SearchOptions (deadline runs from admission, so queue wait counts);
///   * a two-level content-addressed result store (RAM LRU spilling to an
///     on-disk segment directory) serving byte-identical responses for
///     repeated submissions, across restarts when store_dir is set;
///   * stop() drains gracefully: stops accepting and reading, finishes
///     queued and in-flight jobs, flushes responses and the disk store,
///     then joins every thread.
///
/// start()/stop() are not thread-safe against each other; everything the
/// spawned threads touch is internally synchronised. The destructor stops
/// the server if still running, so tests can boot it in-process and rely on
/// scope exit.
class Server {
 public:
  explicit Server(ServerOptions options);
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Binds the listener and spawns the reactor, admission, worker and
  /// logger threads. Throws SocketError when the port cannot be bound.
  void start();

  /// Bound port (valid after start()).
  std::uint16_t port() const { return bound_port_; }

  /// Graceful drain; idempotent. Safe to call from a signal-driven main
  /// loop or test teardown.
  void stop();

  /// Live counters (also served over the wire as a `stats` request).
  StatsSnapshot stats_snapshot() const;

 private:
  struct Job {
    Job(std::uint64_t conn, PartitionRequest req, Design parsed,
        std::string key, std::int64_t submitted)
        : token(conn),
          request(std::move(req)),
          design(std::move(parsed)),
          cache_key(std::move(key)),
          submit_ns(submitted) {}

    /// Reactor connection the final response is posted to.
    std::uint64_t token;

    PartitionRequest request;
    /// Set for `simulate` jobs: after the partition, replay this workload
    /// against the proposed scheme and answer with the simulate payload.
    std::optional<SimulateParams> simulate;
    /// Set for `floorplan` jobs: after the partition, floorplan the top-K
    /// enumerated schemes and answer with the re-ranked payload.
    std::optional<FloorplanParams> floorplan;
    Design design;
    std::string cache_key;
    /// Request-line cache key (id blanked); empty when the line was not
    /// eligible. A successful job stores its payload under it so repeat
    /// submissions of the same line skip parsing entirely.
    std::string line_key;
    std::int64_t submit_ns;
    CancelToken cancel;
  };

  /// One admission thread: pops framed lines, probes the request-line
  /// cache, parses and dispatches. Keeps the reactor thread free for pure
  /// I/O.
  void io_worker_loop();
  /// One framed line from connection `token`: the fast path (request-line
  /// cache) or the full parse/dispatch path; never throws. Posts exactly
  /// one final response for the line — here for everything answered inline,
  /// from a worker for admitted jobs — and at most one `queued` notice.
  void handle_line(std::uint64_t token, const std::string& line);
  /// One job worker. Owns the worker's persistent execution state — a
  /// WorkerPool of job_threads threads and a warm EvalScratch — and reuses
  /// both across every job it runs, so a server in steady state spawns no
  /// threads and performs no kernel allocations per request (§4e). Pools
  /// are per-worker (never shared): WorkerPool::run serves one runner at a
  /// time.
  void worker_loop();
  void logger_loop();
  std::string handle_analyze(const PartitionRequest& request);
  /// Shared admission path of partition, simulate and floorplan jobs:
  /// pre-checks, result-store lookup, queue admission. Posts the final
  /// response to `token` inline for store hits, provable infeasibility and
  /// rejections, or leaves it to the worker once the job is queued; posts
  /// a `queued` notice, after the queue lock is released, when the job
  /// landed in the soft band. Pre-check failures throw (the caller answers).
  void admit_job(std::uint64_t token, PartitionRequest request,
                 std::optional<SimulateParams> simulate,
                 std::optional<FloorplanParams> floorplan,
                 std::string line_key);
  /// Runs one job on this worker's persistent pool + scratch.
  void execute_job(Job& job, WorkerPool& pool, EvalScratch& scratch);
  std::string stats_response(const std::string& id) const;
  std::string metrics_response(const Request& request) const;
  std::size_t high_watermark() const {
    return options_.high_watermark != 0 ? options_.high_watermark
                                        : 8 * options_.max_queue;
  }
  void log_line(const std::string& line);

  const ServerOptions options_;
  const DeviceLibrary library_;
  /// Two-level result store: canonical design/job hash -> payload.
  ResultStore store_;
  /// Request-line fast path: the raw request line with the id blanked ->
  /// payload. Warm pipelined submissions skip JSON parsing, design parsing
  /// and hashing. Same lock level as the semantic cache (kResultCache) —
  /// the two are only ever probed sequentially.
  ResultCache line_cache_;
  ServerStats stats_;

  std::uint16_t bound_port_ = 0;
  std::unique_ptr<Reactor> reactor_;
  std::vector<std::thread> io_workers_;
  std::vector<std::thread> workers_;
  std::thread logger_thread_;

  // Admission handoff: framed lines queued by the reactor thread, drained
  // by the io workers. Sits between the reactor's connection registry and
  // the stats lock in the hierarchy (lock_order.hpp).
  mutable Mutex admission_mutex_{lock_order::Level::kServerAdmission,
                                 "server.admission"};
  CondVar admission_cv_;
  std::deque<std::pair<std::uint64_t, std::string>> admission_
      PRPART_GUARDED_BY(admission_mutex_);
  bool admission_closed_ PRPART_GUARDED_BY(admission_mutex_) = false;

  // Job queue (admission control + scheduler handoff). Near-leaf in the
  // lock hierarchy (lock_order.hpp): the queue critical sections are pure
  // queue manipulation — stats, cache and log sit outside them.
  mutable Mutex queue_mutex_{lock_order::Level::kServerQueue, "server.queue"};
  CondVar queue_cv_;
  std::deque<std::shared_ptr<Job>> queue_ PRPART_GUARDED_BY(queue_mutex_);
  std::size_t in_flight_ PRPART_GUARDED_BY(queue_mutex_) = 0;
  bool draining_ PRPART_GUARDED_BY(queue_mutex_) = false;

  /// EWMA of job execution time, feeding the `queued` notice ETA. Relaxed
  /// atomic: the estimate is advisory.
  std::atomic<std::uint64_t> exec_ewma_us_{0};

  // Lifecycle. Outermost level: held across the logger's periodic sleep.
  Mutex lifecycle_mutex_{lock_order::Level::kServerLifecycle,
                         "server.lifecycle"};
  CondVar logger_cv_;
  bool started_ PRPART_GUARDED_BY(lifecycle_mutex_) = false;
  bool stopping_ PRPART_GUARDED_BY(lifecycle_mutex_) = false;
  bool stopped_ PRPART_GUARDED_BY(lifecycle_mutex_) = false;

  // Leaf: a log line may be emitted while holding anything.
  Mutex log_mutex_{lock_order::Level::kServerLog, "server.log"};
};

}  // namespace prpart::server
