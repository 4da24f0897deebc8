#include "server/server.hpp"

#include <algorithm>

#include "analysis/frontend.hpp"
#include "core/eval_kernel.hpp"
#include "design/io_xml.hpp"
#include "server/hash.hpp"
#include "server/job.hpp"
#include "util/clock.hpp"
#include "util/parallel_for.hpp"
#include "util/status.hpp"

namespace prpart::server {

namespace {

std::uint64_t latency_us_since(std::int64_t submit_ns) {
  const std::int64_t delta = monotonic_now_ns() - submit_ns;
  return delta > 0 ? static_cast<std::uint64_t>(delta / kNsPerUs) : 0;
}

/// The request-line fast path's key derivation: the raw line with the
/// `"id"` string value blanked, plus that value. Returns nullopt whenever
/// the line is not *trivially* safe to treat this way — the full parse
/// path then handles it:
///   * `"id"` must appear exactly once. (In valid JSON it cannot occur
///     unescaped inside a string value — the quotes would be escaped — so
///     one occurrence is the top-level id field.)
///   * the value must be a plain string with no escape sequences, so
///     re-encoding it in ok_response reproduces the client's bytes.
struct LineKey {
  std::string key;  ///< the line, id value removed
  std::string id;   ///< the id value, verbatim
};

std::optional<LineKey> line_fast_key(const std::string& line) {
  static constexpr const char kIdField[] = "\"id\"";
  const std::size_t at = line.find(kIdField);
  if (at == std::string::npos) return std::nullopt;
  if (line.find(kIdField, at + 1) != std::string::npos) return std::nullopt;
  std::size_t i = at + sizeof(kIdField) - 1;
  while (i < line.size() && (line[i] == ' ' || line[i] == '\t')) ++i;
  if (i >= line.size() || line[i] != ':') return std::nullopt;
  ++i;
  while (i < line.size() && (line[i] == ' ' || line[i] == '\t')) ++i;
  if (i >= line.size() || line[i] != '"') return std::nullopt;
  const std::size_t value_begin = ++i;
  while (i < line.size() && line[i] != '"') {
    if (line[i] == '\\') return std::nullopt;
    ++i;
  }
  if (i >= line.size()) return std::nullopt;
  LineKey out;
  out.id = line.substr(value_begin, i - value_begin);
  out.key = line.substr(0, value_begin) + line.substr(i);
  return out;
}

}  // namespace

Server::Server(ServerOptions options)
    : options_(std::move(options)),
      library_(DeviceLibrary::extended()),
      store_(options_.cache_entries, options_.store_dir,
             options_.store_entries),
      line_cache_(options_.cache_entries) {}

Server::~Server() { stop(); }

void Server::start() {
  {
    const MutexLock lock(lifecycle_mutex_);
    require(!started_, "server already started");
    TcpListener listener = TcpListener::bind(options_.port);
    bound_port_ = listener.port();
    Reactor::Options ropt;
    ropt.max_inflight = std::max<std::size_t>(1, options_.max_inflight_per_conn);
    reactor_ = std::make_unique<Reactor>(
        std::move(listener), ropt,
        [this](std::uint64_t token, std::string line) {
          {
            const MutexLock qlock(admission_mutex_);
            admission_.emplace_back(token, std::move(line));
          }
          admission_cv_.notify_one();
        });
    started_ = true;
  }
  reactor_->start();
  const unsigned io_workers = std::max(1u, options_.io_workers);
  io_workers_.reserve(io_workers);
  for (unsigned i = 0; i < io_workers; ++i)
    io_workers_.emplace_back([this] { io_worker_loop(); });
  const unsigned workers = std::max(1u, options_.workers);
  workers_.reserve(workers);
  for (unsigned i = 0; i < workers; ++i)
    workers_.emplace_back([this] { worker_loop(); });
  if (options_.log && options_.log_interval_ms > 0)
    logger_thread_ = std::thread([this] { logger_loop(); });
  log_line("listening on 127.0.0.1:" + std::to_string(bound_port_) + " (" +
           std::to_string(workers) + " workers, queue " +
           std::to_string(options_.max_queue) + "/" +
           std::to_string(high_watermark()) + ")");
}

void Server::stop() {
  {
    const MutexLock lock(lifecycle_mutex_);
    if (!started_ || stopped_) return;
    if (stopping_) return;  // a concurrent stop is already draining
    stopping_ = true;
  }
  logger_cv_.notify_all();

  // 1. Stop accepting new connections and reading new requests. The
  //    admission queue then drains: already-framed lines are still parsed
  //    and admitted (draining_ is not set yet), so every request the server
  //    finished reading gets a real answer.
  reactor_->shutdown_input();
  {
    const MutexLock lock(admission_mutex_);
    admission_closed_ = true;
  }
  admission_cv_.notify_all();
  for (std::thread& w : io_workers_)
    if (w.joinable()) w.join();

  // 2. Drain: admission now rejects, workers finish every queued and
  //    in-flight job (posting every response), then exit.
  {
    const MutexLock lock(queue_mutex_);
    draining_ = true;
  }
  queue_cv_.notify_all();
  for (std::thread& w : workers_)
    if (w.joinable()) w.join();

  // 3. Every final has been posted: write out the outboxes, close the
  //    connections and join the reactor.
  reactor_->finish();

  // 4. Spill the RAM-resident results so a restart warm-starts from disk.
  store_.flush();

  if (logger_thread_.joinable()) logger_thread_.join();
  log_line("drained: " + stats_snapshot().log_line());
  const MutexLock lock(lifecycle_mutex_);
  stopped_ = true;
}

StatsSnapshot Server::stats_snapshot() const {
  std::size_t depth = 0;
  std::size_t in_flight = 0;
  {
    const MutexLock lock(queue_mutex_);
    depth = queue_.size();
    in_flight = in_flight_;
  }
  return stats_.snapshot(depth, in_flight);
}

void Server::io_worker_loop() {
  while (true) {
    std::uint64_t token = 0;
    std::string line;
    {
      const MutexLock lock(admission_mutex_);
      // Explicit wait loop (no predicate lambda), as in worker_loop.
      while (admission_.empty() && !admission_closed_)
        admission_cv_.wait(admission_mutex_);
      if (admission_.empty()) return;  // closed and drained: exit
      token = admission_.front().first;
      line = std::move(admission_.front().second);
      admission_.pop_front();
    }
    handle_line(token, line);
  }
}

void Server::handle_line(std::uint64_t token, const std::string& line) {
  const std::int64_t submit_ns = monotonic_now_ns();
  std::string line_key;
  if (std::optional<LineKey> fast = line_fast_key(line)) {
    // Fast path: a previously completed job already answered this exact
    // line (modulo the id). No JSON parse, no design parse, no hashing —
    // this is what lets a warm pipelined stream saturate the scheduler.
    if (std::optional<std::string> hit = line_cache_.lookup(fast->key)) {
      stats_.cache_hit(latency_us_since(submit_ns));
      reactor_->post_final(token, ok_response(fast->id, *hit));
      return;
    }
    line_key = std::move(fast->key);
  }
  std::string id;
  try {
    Request request = parse_request(line);
    id = request.id;
    switch (request.type) {
      case Request::Type::Ping: {
        json::Value pong = json::Value::object();
        pong.set("pong", json::Value(true));
        reactor_->post_final(token, ok_response(id, pong.dump()));
        return;
      }
      case Request::Type::Stats:
        reactor_->post_final(token, stats_response(id));
        return;
      case Request::Type::Metrics:
        reactor_->post_final(token, metrics_response(request));
        return;
      case Request::Type::Analyze:
        reactor_->post_final(token, handle_analyze(request.analyze));
        return;
      case Request::Type::Partition:
        admit_job(token, std::move(request.partition), std::nullopt,
                  std::nullopt, std::move(line_key));
        return;
      case Request::Type::Simulate:
        admit_job(token, std::move(request.simulate.partition),
                  request.simulate.params, std::nullopt, std::move(line_key));
        return;
      case Request::Type::Floorplan:
        admit_job(token, std::move(request.floorplan.partition), std::nullopt,
                  request.floorplan.params, std::move(line_key));
        return;
    }
    stats_.job_failed();
    reactor_->post_final(
        token, error_response(id, ErrorCode::Internal, "unhandled request type"));
  } catch (const Error& e) {
    // Malformed JSON, schema violations, bad design XML, unknown device:
    // everything thrown before a job was admitted is the client's fault.
    stats_.job_failed();
    reactor_->post_final(token,
                         error_response(id, ErrorCode::BadRequest, e.what()));
  } catch (const std::exception& e) {
    stats_.job_failed();
    reactor_->post_final(token,
                         error_response(id, ErrorCode::Internal, e.what()));
  }
}

std::string Server::handle_analyze(const AnalyzeRequest& request) {
  // Served inline on the admission thread: the diagnostics engine costs
  // milliseconds, so it never competes with partition jobs for queue slots.
  // An unknown device is the client's fault (bad_request, thrown by
  // by_name); a malformed design is NOT — reporting it is the whole point,
  // so it comes back as an ok response full of error diagnostics.
  analysis::AnalysisOptions options;
  options.library = library_;
  if (!request.device.empty()) {
    library_.by_name(request.device);
    options.device = request.device;
  }
  options.budget = request.budget;
  const analysis::SourceAnalysis sa =
      analysis::analyze_design_source(request.design_xml, options);
  return ok_response(request.id, analysis::analysis_json(sa.result).dump());
}

void Server::admit_job(std::uint64_t token, PartitionRequest request,
                       std::optional<SimulateParams> simulate,
                       std::optional<FloorplanParams> floorplan,
                       std::string line_key) {
  const std::int64_t submit_ns = monotonic_now_ns();
  // Validate everything the worker would otherwise trip over, so
  // bad_request never costs a queue slot: the design must parse and a named
  // device must exist.
  Design design = design_from_xml(request.design_xml);
  if (!request.device.empty()) library_.by_name(request.device);
  if (simulate && design.configurations().size() < 2)
    throw ParseError("simulation needs at least two configurations");

  // Lower-bound pre-check for explicit targets: a provably hopeless job is
  // answered `infeasible` with the proof before admission, so it never
  // occupies a queue slot or burns a search.
  if (const auto proof = precheck_target(design, request, library_)) {
    stats_.job_infeasible(latency_us_since(submit_ns));
    reactor_->post_final(
        token, error_response(request.id, ErrorCode::Infeasible,
                              does_not_fit(design, proof->capacity) + "; " +
                                  proof->to_string()));
    return;
  }
  if (request.options.search.threads == 0)
    request.options.search.threads = options_.job_threads;

  // Simulate and floorplan jobs are cached next to partition jobs: both
  // stages are pure functions of (design, target, options, params), so the
  // params extend the target identity in the key.
  std::string target = request.target_string();
  if (simulate) target += ";" + simulate->cache_string();
  if (floorplan) target += ";" + floorplan->cache_string();
  const std::string key = job_cache_key(design, target, request.options);
  if (std::optional<std::string> hit = store_.lookup(key)) {
    stats_.cache_hit(latency_us_since(submit_ns));
    if (!line_key.empty()) line_cache_.store(line_key, *hit);
    reactor_->post_final(token, ok_response(request.id, *hit));
    return;
  }
  stats_.cache_miss();

  auto job = std::make_shared<Job>(token, std::move(request),
                                   std::move(design), key, submit_ns);
  job->simulate = simulate;
  job->floorplan = floorplan;
  job->line_key = std::move(line_key);
  const std::uint64_t timeout_ms = job->request.timeout_ms != 0
                                       ? job->request.timeout_ms
                                       : options_.default_timeout_ms;
  job->cancel.set_timeout_ms(static_cast<std::int64_t>(timeout_ms));
  // The queue critical section decides admission and nothing else; it runs
  // inside the stats lock (stats sit above the queue in the hierarchy,
  // lock_order.hpp), so the job is counted accepted before a worker can
  // pop it and count it completed. Notices are sent and error responses
  // rendered only after both locks drop.
  enum class Verdict { kAdmitted, kAdmittedQueued, kDraining, kQueueFull };
  Verdict verdict = Verdict::kAdmitted;
  std::size_t position = 0;
  stats_.admit([&] {
    const MutexLock lock(queue_mutex_);
    if (draining_) {
      verdict = Verdict::kDraining;
      return false;
    }
    if (queue_.size() >= high_watermark()) {
      verdict = Verdict::kQueueFull;
      return false;
    }
    queue_.push_back(job);
    position = queue_.size();
    if (position > options_.max_queue) verdict = Verdict::kAdmittedQueued;
    return true;
  });
  switch (verdict) {
    case Verdict::kDraining:
      reactor_->post_final(token,
                           error_response(job->request.id, ErrorCode::Overloaded,
                                          "server is draining"));
      return;
    case Verdict::kQueueFull:
      reactor_->post_final(
          token, error_response(job->request.id, ErrorCode::Overloaded,
                                "job queue is full (" +
                                    std::to_string(high_watermark()) +
                                    " waiting)"));
      return;
    case Verdict::kAdmittedQueued: {
      queue_cv_.notify_one();
      // Soft band: the job is in, but the client learns it will wait. ETA
      // from the execution-time EWMA; advisory by design.
      const std::uint64_t ewma_us =
          exec_ewma_us_.load(std::memory_order_relaxed);
      const std::uint64_t eta_ms =
          position * ewma_us / std::max(1u, options_.workers) / 1000;
      stats_.job_queued_notice();
      reactor_->post_notice(token,
                            queued_response(job->request.id, position, eta_ms));
      return;
    }
    case Verdict::kAdmitted:
      queue_cv_.notify_one();
      return;
  }
}

void Server::worker_loop() {
  // Persistent per-worker execution state (§4e): the search pool's threads
  // are spawned once here, and the kernel scratch keeps its buffers warm,
  // so back-to-back jobs run with zero thread spawns and zero steady-state
  // kernel allocations.
  WorkerPool pool(options_.job_threads);
  EvalScratch scratch;
  while (true) {
    std::shared_ptr<Job> job;
    {
      const MutexLock lock(queue_mutex_);
      // Explicit wait loop (no predicate lambda): the analysis can then see
      // that queue_/draining_ are only read with queue_mutex_ held.
      while (queue_.empty() && !draining_) queue_cv_.wait(queue_mutex_);
      if (queue_.empty()) return;  // draining and nothing left: exit
      job = std::move(queue_.front());
      queue_.pop_front();
      ++in_flight_;
    }
    execute_job(*job, pool, scratch);
    {
      const MutexLock lock(queue_mutex_);
      --in_flight_;
    }
  }
}

void Server::execute_job(Job& job, WorkerPool& pool, EvalScratch& scratch) {
  const std::int64_t exec_start_ns = monotonic_now_ns();
  std::string response;
  try {
    check_cancel(&job.cancel);  // the deadline may have fired while queued
    job.request.options.search.cancel = &job.cancel;
    job.request.options.search.pool = &pool;
    job.request.options.search.scratch = &scratch;
    const JobRun run = run_job(job.design, job.request, job.simulate,
                               job.floorplan, library_);
    if (run.infeasible.empty()) {
      // Deterministic engine: the stored bytes equal any future cold run,
      // so cache hits are byte-identical to fresh responses.
      store_.store(job.cache_key, run.payload);
      if (!job.line_key.empty()) line_cache_.store(job.line_key, run.payload);
    }
    stats_.job_ran(run, latency_us_since(job.submit_ns));
    response = run.infeasible.empty()
                   ? ok_response(job.request.id, run.payload)
                   : error_response(job.request.id, ErrorCode::Infeasible,
                                    run.infeasible);
  } catch (const CancelledError&) {
    stats_.job_timed_out();
    response = error_response(job.request.id, ErrorCode::Timeout,
                              "job exceeded its deadline");
  } catch (const std::exception& e) {
    stats_.job_failed();
    response = error_response(job.request.id, ErrorCode::Internal, e.what());
  }
  // Fold this execution into the ETA estimate (EWMA, alpha = 1/8).
  const std::uint64_t sample_us = latency_us_since(exec_start_ns);
  const std::uint64_t old = exec_ewma_us_.load(std::memory_order_relaxed);
  const std::uint64_t next =
      old == 0 ? sample_us
               : static_cast<std::uint64_t>(
                     static_cast<std::int64_t>(old) +
                     (static_cast<std::int64_t>(sample_us) -
                      static_cast<std::int64_t>(old)) /
                         8);
  exec_ewma_us_.store(next, std::memory_order_relaxed);
  reactor_->post_final(job.token, std::move(response));
}

std::string Server::stats_response(const std::string& id) const {
  return ok_response(id, stats_snapshot().to_json().dump());
}

std::string Server::metrics_response(const Request& request) const {
  MetricsExtra extra;
  extra.connections = reactor_->connections();
  extra.connections_total = reactor_->connections_total();
  {
    const MutexLock lock(admission_mutex_);
    extra.admission_depth = admission_.size();
  }
  const ResultCache::Stats ram = store_.ram_stats();
  extra.ram_entries = ram.entries;
  extra.ram_evictions = ram.evictions;
  extra.disk_enabled = store_.disk_enabled();
  const DiskStore::Stats disk = store_.disk_stats();
  extra.disk_entries = disk.entries;
  extra.disk_bytes = disk.bytes;
  extra.disk_hits = disk.hits;
  extra.disk_writes = disk.writes;
  extra.disk_evictions = disk.evictions;
  const StatsSnapshot snapshot = stats_snapshot();
  if (request.metrics_text)
    return ok_response(request.id,
                       json::Value(metrics_text(snapshot, extra)).dump());
  return ok_response(request.id, metrics_json(snapshot, extra).dump());
}

void Server::logger_loop() {
  MutexLock lock(lifecycle_mutex_);
  while (!stopping_) {
    logger_cv_.wait_for_ms(lifecycle_mutex_, options_.log_interval_ms);
    if (stopping_) break;
    // The stats snapshot takes the queue and stats locks, which sit below
    // the lifecycle mutex — but holding an outer lock across a log write
    // would serialise stop() behind slow sinks, so drop it first.
    lock.unlock();
    log_line(stats_snapshot().log_line());
    lock.lock();
  }
}

void Server::log_line(const std::string& line) {
  if (!options_.log) return;
  const MutexLock lock(log_mutex_);
  *options_.log << "[prpart serve] " << line << "\n";
  options_.log->flush();
}

}  // namespace prpart::server
