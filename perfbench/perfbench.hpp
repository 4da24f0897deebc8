#pragma once

// Shared declarations of the end-to-end serve benchmark (see README.md).
//
//   workloads.cpp  seeded request streams for the three workloads
//   serve.cpp      the `prpart serve` child process and the load generator
//   replay.cpp     in-process replay of the server path: answer checking,
//                  reference re-certification and the traced layer timings
//   spans.cpp      span recording, self time and percentile helpers

#include <cstddef>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/scheme.hpp"
#include "design/design.hpp"

namespace perfbench {

// ---------------------------------------------------------------- workloads

enum class JobKind { Partition, Floorplan, Simulate };

/// One distinct request: the line is `head + id + tail`, so every send can
/// carry a fresh id while the server's id-blanked line key stays the same.
struct Template {
  std::size_t design = 0;      ///< index into Stream::design()
  std::size_t pool_index = 0;  ///< the pool design this request copies
  std::size_t cycle = 0;       ///< pass over the pool; 0 is the pool itself
  JobKind kind = JobKind::Partition;
  std::string head;
  std::string tail;

  std::string line(const std::string& id) const { return head + id + tail; }
  /// The server's line-cache key: the line with the id value blanked.
  std::string line_key() const { return head + tail; }
};

/// Server flags and client shape a workload pins.
struct WorkloadSpec {
  std::string name;
  unsigned workers = 2;          ///< --workers
  std::size_t cache = 256;       ///< --cache (RAM result cache and line cache)
  bool store = false;            ///< --store DIR (populated untimed first)
  std::size_t window = 1;        ///< requests in flight per load connection
  std::size_t pool = 0;          ///< fixed designs behind scheme_frames_sum
};

const WorkloadSpec* find_workload(const std::string& name);
const std::vector<WorkloadSpec>& workloads();

/// The deterministic request source of one (workload, seed) pair.
///
/// Each workload has a fixed pool of paper-population designs; template j
/// (j < pool) is pool design j. cold_sweep and placement_sim send the pool
/// in a seeded order, then pass over it again and again in fresh seeded
/// orders, each pass under new design names ("-c<cycle>"). Every request is
/// then a distinct design with its own cache key, and every run serves the
/// same mix of work. warm_hits draws pool designs by seeded Zipf popularity.
class Stream {
 public:
  Stream(const WorkloadSpec& spec, std::uint64_t seed);

  /// Template of the k-th request of the measured phase (k ascending).
  std::size_t at(std::size_t k);
  /// Templates the untimed preparation pass sends (warm_hits only): every
  /// working-set design once.
  std::vector<std::size_t> preparation() const;

  const Template& tmpl(std::size_t t) const { return templates_[t]; }
  const prpart::Design& design(std::size_t d) const { return designs_[d]; }
  /// Request ids: the send sequence number.
  std::string id(std::size_t seq) const;

 private:
  struct PoolJob {
    JobKind kind = JobKind::Partition;
    std::uint64_t trace_seed = 1;
    bool prefetch = false;
  };

  std::size_t add_template(std::size_t pool_index, std::size_t cycle);
  std::vector<std::size_t> pass_order();

  const WorkloadSpec spec_;
  std::deque<prpart::Design> designs_;  ///< stable addresses
  std::vector<PoolJob> pool_jobs_;
  std::vector<Template> templates_;
  std::vector<std::size_t> order_;      ///< current pass / popularity ranks
  std::vector<std::size_t> sequence_;   ///< measured-phase requests so far
  std::vector<double> zipf_cdf_;        ///< warm_hits popularity
  std::uint64_t rng_state_ = 0;
};

// -------------------------------------------------------------------- spans

/// In-memory span log of one thread. Spans nest by construction order;
/// parent is the index of the enclosing span in the same log, or -1.
struct SpanRecord {
  const char* name = "";
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::int32_t parent = -1;
  std::uint64_t request = 0;
};

struct SpanLog {
  std::vector<SpanRecord> spans;
  std::vector<std::int32_t> open;  ///< stack of open span indices
};

/// RAII span; a null log records nothing (the untraced pass).
class Span {
 public:
  Span(SpanLog* log, const char* name, std::uint64_t request);
  ~Span();
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  SpanLog* log_;
  std::int32_t index_ = -1;
};

double percentile(std::vector<double> values, double q);

/// Per-name durations and per-layer self time / call counts of a span set.
/// A layer is the span-name prefix before the first '.'.
struct SpanSummary {
  std::map<std::string, std::vector<double>> durations_ms;
  std::map<std::string, double> layer_self_ms;
  std::map<std::string, std::uint64_t> layer_calls;
  std::size_t spans = 0;
};
SpanSummary summarize(const std::vector<const SpanLog*>& logs);

/// Writes every span as a Chrome trace-event file (ph "X", one tid per log),
/// with the parent span and request id in each event's args.
void write_trace(const std::string& path,
                 const std::vector<const SpanLog*>& logs);

// ------------------------------------------------------------------- server

/// A running `prpart serve` child on an ephemeral loopback port.
struct ServerProcess {
  int pid = -1;
  std::uint16_t port = 0;
  double setup_s = 0;  ///< spawn to first ok ping
};

ServerProcess spawn_server(const std::string& prpart, const WorkloadSpec& spec,
                           const std::string& store_dir,
                           const std::string& log_path);
/// SIGTERM and wait; returns true on a clean exit 0. No-op once stopped.
bool stop_server(ServerProcess& server);

/// Stops a server that is still running when the scope ends, on every exit
/// path, and waits for it.
class ServerGuard {
 public:
  explicit ServerGuard(ServerProcess& server) : server_(server) {}
  ~ServerGuard() { stop_server(server_); }
  ServerGuard(const ServerGuard&) = delete;
  ServerGuard& operator=(const ServerGuard&) = delete;

 private:
  ServerProcess& server_;
};

struct ProcStats {
  double cpu_ms = 0;       ///< utime + stime
  double peak_rss_mb = 0;  ///< VmHWM
};
ProcStats proc_stats(int pid);

/// CPU time the hypervisor took from this machine, over all CPUs, in ms
/// (the steal column of /proc/stat; 0 on bare metal).
double steal_ms();

/// Final (non-interim) response line of one request, with the id stripped:
/// everything after `{"id":"<id>"`. Equal suffixes mean equal answers.
std::string strip_id(const std::string& line);

struct LoadOptions {
  double seconds = 0;        ///< stop issuing new requests after this
  std::size_t min_requests = 0;  ///< ...but not before this many were sent
  /// ...and not before this many answers fall in kept seconds (see
  /// kept_windows); needs server_pid.
  std::size_t min_kept = 0;
  bool probes = false;       ///< interleave ping/metrics probes (traced run)
  int server_pid = -1;       ///< sampled at every second of the sending phase
};

struct LoadResult {
  std::size_t attempted = 0;
  std::size_t completed = 0;  ///< final responses received
  std::size_t failed = 0;     ///< transport, internal, timeout, overloaded,
                              ///< bad_request or byte mismatch per template
  std::vector<std::string> failures;  ///< first few, for the log
  double wall_s = 0;
  std::vector<double> latency_ms;
  std::vector<std::int64_t> done_ns;  ///< answer time of each latency sample
  /// Samples taken every second while requests are being sent, and when
  /// sending stops.
  struct Mark {
    std::int64_t ns = 0;
    double steal_ms = 0;
    double server_cpu_ms = 0;
    std::size_t answers = 0;  ///< final answers to jobs so far
  };
  std::vector<Mark> marks;
  /// Requests in send order (template index each).
  std::vector<std::size_t> sent;
  /// First served answer per template (strip_id form); later answers for
  /// the same template are byte-compared against it while loading.
  std::map<std::size_t, std::string> answers;
  /// Send and answer times of every request and probe (traced runs only).
  struct Timed {
    std::int64_t send_ns = 0;
    std::int64_t done_ns = 0;
    std::uint64_t request = 0;
    bool probe = false;
  };
  std::vector<Timed> timed;
  std::vector<double> ping_rtt_ms;
  std::vector<double> queue_depth;
  std::vector<double> admission_depth;
};

/// Which seconds (windows between consecutive marks) of a measured phase
/// count. A second is left out when the hypervisor took more than kMaxSteal
/// of the machine's CPU time in it: on an overcommitted host it measures
/// the neighbours, not the server. When more than half of the seconds are
/// left out, all of them count.
constexpr double kMaxSteal = 0.05;
std::vector<bool> kept_windows(const std::vector<LoadResult::Mark>& marks);

LoadResult run_load(std::uint16_t port, Stream& stream,
                    const WorkloadSpec& spec, const LoadOptions& options,
                    const std::vector<std::size_t>* fixed_templates = nullptr);

/// Sends one request on a fresh connection and returns the final line.
std::string request_once(std::uint16_t port, const std::string& line);

// ------------------------------------------------------------------- replay

/// Counters the in-process replay accumulates (deterministic work counts).
struct ReplayCounters {
  std::uint64_t requests = 0;
  std::uint64_t line_cache_hits = 0;
  std::uint64_t partitions = 0;
  std::uint64_t escalated = 0;
  std::uint64_t move_evaluations = 0;
  std::uint64_t kernel_evaluations = 0;
  std::uint64_t units = 0;
  std::uint64_t units_pruned = 0;
  std::uint64_t moves_rescored = 0;
  std::uint64_t full_evaluations = 0;
  std::uint64_t budget_exhausted = 0;
  std::uint64_t searches = 0;
  std::uint64_t floorplan_candidates = 0;
  std::uint64_t floorplan_vetoes = 0;
  std::uint64_t floorplan_overturns = 0;
  std::uint64_t transitions = 0;

  void add(const ReplayCounters& other);
};

struct ReplayOptions {
  std::size_t cache = 256;    ///< RAM store and line-cache entries
  std::string store_dir;      ///< "" = RAM-only store
  bool traced = false;        ///< record spans
  bool stages = false;        ///< re-run the final partition stage by stage
  unsigned threads = 1;
};

/// The proposed scheme behind a simulate answer, which the answer itself
/// does not render.
struct SimulateProposal {
  prpart::PartitionScheme scheme;
  bool from_search = false;
};

struct ReplayResult {
  /// Expected answer per position of `requests` (strip_id form).
  std::vector<std::string> answers;
  /// Per position: the proposal an ok simulate answer replayed, else empty.
  std::vector<std::optional<SimulateProposal>> simulated;
  ReplayCounters counters;
  std::vector<std::unique_ptr<SpanLog>> logs;  ///< one per thread if traced
  double wall_s = 0;
  double warm_start_ms = 0;   ///< ResultStore constructor
};

/// Replays `requests` (template indices, in send order) through the server
/// path in process: line cache, parse, design XML, cache key, store lookup,
/// then partition / floorplan / simulate, encode and store.
ReplayResult replay(const Stream& stream,
                    const std::vector<std::size_t>& requests,
                    const ReplayOptions& options);

/// Independent check of one served ok payload: the scheme it proposes is
/// re-evaluated with the scalar evaluate_scheme_reference. A simulate
/// answer does not render its scheme, so `simulated` is the one the
/// in-process replay simulated (the byte-compare ties the served answer to
/// it). Returns "" when it holds, else the reason. `frames` receives the
/// served winner's Eq. 10 total (placement-true for floorplan answers).
std::string certify(const Stream& stream, std::size_t tmpl,
                    const std::string& answer,
                    const std::optional<SimulateProposal>& simulated,
                    std::uint64_t& frames);

}  // namespace perfbench
