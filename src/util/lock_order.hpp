#pragma once

#include <cstdint>
#include <string>

namespace prpart::lock_order {

/// The project-wide lock hierarchy: every `prpart::Mutex` registers one of
/// these levels, and a thread may only acquire a mutex whose level is
/// *strictly greater* than the level of every mutex it already holds. Any
/// other acquisition — lower level, or a second mutex of the same level —
/// is an ordering violation and aborts with both lock sets (see
/// DESIGN.md §9 for the rationale behind each assignment).
///
/// The numbering encodes the rules, outermost first:
///
///   * `kServerLifecycle` is outermost: it is held across the logger's
///     periodic sleep, so nothing else may be held when taking it.
///   * `kServerStats` and `kResultCache` sit *below* the scheduler locks:
///     observability counters and cache probes must be recorded with no
///     scheduler lock held, so the hot admission/dequeue sections stay pure
///     queue manipulation (the PR that introduced this layer moved the
///     stats aggregation in `Server::admit_job` out of the queue critical
///     section to satisfy exactly this edge).
///   * `kServerQueue` is near-leaf: only the log may be acquired beneath
///     it. Everything a job needs (cache store, stats fold, search locks)
///     happens before or after the queue critical section, never inside.
///   * `kSearchBoundHint` guards the one piece of shared state of a
///     region-allocation search (the speculative leaderboard hint).
///   * `kServerLog` is the true leaf: a log line may be emitted while
///     holding anything.
///
/// Gaps between values leave room for new locks without renumbering.
enum class Level : std::uint32_t {
  kServerLifecycle = 10,  ///< Server start/stop state + logger wakeups
  kReactorConns = 22,     ///< reactor connection registry: the epoll loop's
                          ///< token -> connection map. Below the stats/cache
                          ///< layers so a metrics scrape may count
                          ///< connections first and fold counters after.
  kServerAdmission = 24,  ///< admission queue of the reactor's framed request
                          ///< lines. The reactor pushes with no lock held;
                          ///< admission workers pop and then walk the full
                          ///< cache/stats/queue ladder below.
  kShardRouter = 26,      ///< shard-router per-connection write serialiser
                          ///< (relay threads interleave responses from
                          ///< several shards onto one client socket)
  kServerStats = 30,      ///< ServerStats counters + latency histogram
  kResultCache = 40,      ///< content-addressed LRU result cache
  kDiskStoreIndex = 42,   ///< on-disk segment index of the spillable result
                          ///< store. Directly below the RAM cache: the LRU
                          ///< spills evicted entries to disk while holding
                          ///< the cache mutex, so cache -> disk nests and
                          ///< the reverse is illegal.
  kWorkerPool = 45,       ///< persistent WorkerPool dispatch state. Above
                          ///< the server layers (a job submits work while
                          ///< holding no server lock) and below the search
                          ///< lock: pool workers take the bound-hint lock
                          ///< inside their bodies, after the pool mutex is
                          ///< released.
  kSearchBoundHint = 50,  ///< shared leaderboard hint of the parallel search
  kServerQueue = 80,      ///< bounded job queue + admission control
  kReactorOutbox = 85,    ///< reactor completion queue: finished responses
                          ///< posted cross-thread for the epoll loop to
                          ///< write. Above the job queue (a worker may hold
                          ///< nothing when posting, but the level leaves
                          ///< room to post from queue-adjacent code) and
                          ///< below the log leaf.
  kServerLog = 90,        ///< serialised log sink (leaf)
};

/// Whether acquisitions are being validated. Defaults to on in debug
/// builds (`NDEBUG` undefined — the asan-ubsan and tsan presets) and off in
/// release builds; the environment variable `PRPART_LOCK_ORDER` overrides
/// in either direction (`0` disables, anything else enables), and the test
/// presets set it so the full suite always runs validated.
bool enabled();
void set_enabled(bool on);

/// Called by Mutex::lock() *before* blocking (an inversion must abort, not
/// deadlock). Validates `level` against the calling thread's held set, then
/// records the acquisition.
void on_acquire(const void* mutex, std::uint32_t level, const char* name);

/// Called by Mutex::unlock(); removes the mutex from the held set.
void on_release(const void* mutex);

/// Human-readable rendering of the calling thread's held set, innermost
/// last: "server.lifecycle (level 10), server.queue (level 80)".
std::string held_description();

/// Receives the full violation report. The default handler prints it to
/// stderr and calls std::abort(); tests install a recording handler to
/// assert on violations without dying. When a non-default handler returns,
/// the acquisition is recorded anyway so lock/unlock stay balanced.
using ViolationHandler = void (*)(const std::string& report);

/// Installs `handler` (nullptr restores the abort default) and returns the
/// previous one. Not thread-safe against concurrent violations — install
/// before spawning threads (it exists for single-threaded unit tests).
ViolationHandler set_violation_handler(ViolationHandler handler);

}  // namespace prpart::lock_order
