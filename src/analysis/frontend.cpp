#include "analysis/frontend.hpp"

#include <utility>

namespace prpart::analysis {

SourceAnalysis analyze_design_source(const std::string& text,
                                     const AnalysisOptions& options) {
  SourceAnalysis out;
  DesignRead read = read_design(text);
  for (DesignProblem& p : read.problems)
    out.result.diagnostics.push_back({Severity::Error, std::move(p.code),
                                      std::move(p.message),
                                      std::move(p.fixit), p.span});
  if (!read.parsed) return out;

  out.parsed = std::move(read.parsed);
  AnalysisResult semantic =
      analyze_design(out.parsed->design, options, &out.parsed->spans);
  out.result.diagnostics = std::move(semantic.diagnostics);
  out.result.proof = std::move(semantic.proof);
  sort_by_severity(out.result.diagnostics);
  return out;
}

}  // namespace prpart::analysis
