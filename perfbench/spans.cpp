// Span recording for the traced replay: kept in memory per thread, reduced
// to per-name durations and per-layer self time, written out at exit.

#include <algorithm>
#include <cmath>
#include <fstream>

#include "perfbench.hpp"
#include "util/clock.hpp"
#include "util/json.hpp"
#include "util/status.hpp"

namespace perfbench {

Span::Span(SpanLog* log, const char* name, std::uint64_t request) : log_(log) {
  if (log_ == nullptr) return;
  SpanRecord r;
  r.name = name;
  r.parent = log_->open.empty() ? -1 : log_->open.back();
  r.request = request;
  index_ = static_cast<std::int32_t>(log_->spans.size());
  log_->spans.push_back(r);
  log_->open.push_back(index_);
  log_->spans.back().start_ns = prpart::monotonic_now_ns();
}

Span::~Span() {
  if (log_ == nullptr) return;
  log_->spans[static_cast<std::size_t>(index_)].end_ns =
      prpart::monotonic_now_ns();
  log_->open.pop_back();
}

double percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  // Nearest rank.
  const double rank = std::ceil(q * static_cast<double>(values.size()));
  const std::size_t i = rank < 1 ? 0 : static_cast<std::size_t>(rank) - 1;
  return values[std::min(i, values.size() - 1)];
}

namespace {

std::string layer_of(const std::string& name) {
  const std::size_t dot = name.find('.');
  return dot == std::string::npos ? name : name.substr(0, dot);
}

}  // namespace

SpanSummary summarize(const std::vector<const SpanLog*>& logs) {
  SpanSummary out;
  for (const SpanLog* log : logs) {
    const std::vector<SpanRecord>& spans = log->spans;
    // Children of one span run sequentially on its thread, so the time
    // they cover is the sum of their durations.
    std::vector<std::int64_t> child_ns(spans.size(), 0);
    for (const SpanRecord& s : spans)
      if (s.parent >= 0)
        child_ns[static_cast<std::size_t>(s.parent)] += s.end_ns - s.start_ns;
    for (std::size_t i = 0; i < spans.size(); ++i) {
      const SpanRecord& s = spans[i];
      const std::string name = s.name;
      const std::string layer = layer_of(name);
      const double dur_ms = static_cast<double>(s.end_ns - s.start_ns) / 1e6;
      out.durations_ms[name].push_back(dur_ms);
      out.layer_self_ms[layer] +=
          static_cast<double>(s.end_ns - s.start_ns - child_ns[i]) / 1e6;
      // A call is an entry into the layer from outside it.
      const bool entry =
          s.parent < 0 ||
          layer_of(spans[static_cast<std::size_t>(s.parent)].name) != layer;
      if (entry) ++out.layer_calls[layer];
      ++out.spans;
    }
  }
  return out;
}

void write_trace(const std::string& path,
                 const std::vector<const SpanLog*>& logs) {
  std::ofstream out(path);
  if (!out) throw prpart::Error("cannot write trace file " + path);
  std::int64_t origin = INT64_MAX;
  for (const SpanLog* log : logs)
    for (const SpanRecord& s : log->spans) origin = std::min(origin, s.start_ns);
  out << "{\"traceEvents\":[";
  bool first = true;
  std::size_t base = 0;  // global span id of each log's first span
  for (std::size_t t = 0; t < logs.size(); ++t) {
    for (std::size_t i = 0; i < logs[t]->spans.size(); ++i) {
      const SpanRecord& s = logs[t]->spans[i];
      out << (first ? "" : ",") << "\n{\"name\":" << prpart::json::escape(s.name)
          << ",\"ph\":\"X\",\"pid\":1,\"tid\":" << t
          << ",\"ts\":" << static_cast<double>(s.start_ns - origin) / 1e3
          << ",\"dur\":" << static_cast<double>(s.end_ns - s.start_ns) / 1e3
          << ",\"args\":{\"span\":" << base + i << ",\"parent\":"
          << (s.parent < 0 ? std::string("null")
                           : std::to_string(base + static_cast<std::size_t>(
                                                       s.parent)))
          << ",\"request\":" << s.request << "}}";
      first = false;
    }
    base += logs[t]->spans.size();
  }
  out << "\n]}\n";
  if (!out) throw prpart::Error("failed writing trace file " + path);
}

}  // namespace perfbench
