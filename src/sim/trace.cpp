#include "sim/trace.hpp"

#include <algorithm>
#include <string>

#include "util/status.hpp"

namespace prpart::sim {

TransitionTrace markov_trace(const MarkovChain& chain, Rng& rng,
                             std::uint64_t transitions, std::size_t start) {
  require(start < chain.states(), "markov_trace start state out of range");
  TransitionTrace trace;
  trace.configs.reserve(transitions + 1);
  ThresholdSampler sampler(chain, transitions);
  std::size_t state = start;
  trace.configs.push_back(static_cast<std::uint32_t>(state));
  for (std::uint64_t k = 0; k < transitions; ++k) {
    state = sampler.sample_next(rng, state);
    trace.configs.push_back(static_cast<std::uint32_t>(state));
  }
  return trace;
}

TransitionTrace uniform_pair_trace(std::size_t configs) {
  require(configs >= 2, "uniform_pair_trace needs at least two configurations");
  // Hierholzer's algorithm on the complete digraph K_n: every node has
  // in-degree == out-degree == n-1 and the graph is strongly connected, so
  // an Eulerian circuit exists. next[u] is the smallest untried target of
  // u; always taking it keeps the construction deterministic.
  std::vector<std::size_t> next(configs, 0);
  const auto advance = [&](std::size_t u) {
    if (next[u] == u) ++next[u];  // no self-edges
  };
  std::vector<std::uint32_t> stack;
  std::vector<std::uint32_t> circuit;
  stack.push_back(0);
  while (!stack.empty()) {
    const std::size_t u = stack.back();
    advance(u);
    if (next[u] >= configs) {
      circuit.push_back(static_cast<std::uint32_t>(u));
      stack.pop_back();
    } else {
      const std::size_t v = next[u]++;
      stack.push_back(static_cast<std::uint32_t>(v));
    }
  }
  std::reverse(circuit.begin(), circuit.end());
  require(circuit.size() == configs * (configs - 1) + 1,
          "uniform_pair_trace produced a non-Eulerian walk");
  return TransitionTrace{std::move(circuit)};
}

bool TraceParse::ok() const {
  return std::none_of(diagnostics.begin(), diagnostics.end(),
                      [](const analysis::Diagnostic& d) {
                        return d.severity == analysis::Severity::Error;
                      });
}

namespace {

analysis::Diagnostic trace_diag(analysis::Severity severity, const char* code,
                                std::string message, std::string fixit,
                                std::size_t line, std::size_t column) {
  analysis::Diagnostic d;
  d.severity = severity;
  d.code = code;
  d.message = std::move(message);
  d.fixit = std::move(fixit);
  d.span = {line, column};
  return d;
}

}  // namespace

TraceParse parse_trace(std::string_view text, std::size_t configs) {
  TraceParse out;
  std::size_t line = 1;
  std::size_t column = 1;
  std::size_t i = 0;
  const std::size_t n = text.size();

  const auto step = [&](char c) {
    if (c == '\n') {
      ++line;
      column = 1;
    } else {
      ++column;
    }
    ++i;
  };

  while (i < n) {
    const char c = text[i];
    if (c == '#') {  // comment to end of line
      while (i < n && text[i] != '\n') step(text[i]);
      continue;
    }
    if (c == ' ' || c == '\t' || c == '\r' || c == '\n') {
      step(c);
      continue;
    }
    // One token: everything up to the next whitespace or comment start.
    const std::size_t tok_line = line;
    const std::size_t tok_column = column;
    std::string token;
    while (i < n && text[i] != ' ' && text[i] != '\t' && text[i] != '\r' &&
           text[i] != '\n' && text[i] != '#') {
      token.push_back(text[i]);
      step(text[i]);
    }

    const bool numeric =
        std::all_of(token.begin(), token.end(),
                    [](char d) { return d >= '0' && d <= '9'; });
    // 19 digits keeps the accumulation below 10^19 < 2^64: longer tokens
    // are rejected before the multiply could wrap.
    if (!numeric || token.size() > 19) {
      out.diagnostics.push_back(trace_diag(
          analysis::Severity::Error, "trace-bad-token",
          "'" + token + "' is not a configuration id",
          "traces are whitespace-separated decimal ids; '#' starts a comment",
          tok_line, tok_column));
      continue;
    }
    std::uint64_t value = 0;
    for (const char d : token) value = value * 10 + static_cast<std::uint64_t>(d - '0');
    if (value >= configs) {
      out.diagnostics.push_back(trace_diag(
          analysis::Severity::Error, "trace-config-out-of-range",
          "configuration id " + token + " is out of range",
          "the design has " + std::to_string(configs) +
              " configurations; ids must be in [0, " +
              std::to_string(configs) + ")",
          tok_line, tok_column));
      continue;
    }
    if (!out.trace.configs.empty() && out.trace.configs.back() == value) {
      out.diagnostics.push_back(trace_diag(
          analysis::Severity::Warning, "trace-self-transition",
          "configuration " + token + " repeats its predecessor",
          "a self-transition costs nothing; drop the duplicate entry",
          tok_line, tok_column));
    }
    out.trace.configs.push_back(static_cast<std::uint32_t>(value));
  }

  if (out.trace.configs.empty()) {
    out.diagnostics.push_back(trace_diag(
        analysis::Severity::Error, "trace-empty",
        "the trace contains no configuration ids", "", 0, 0));
  }
  return out;
}

}  // namespace prpart::sim
