#pragma once

#include <optional>
#include <string>

#include "analysis/analyzer.hpp"
#include "design/io_xml.hpp"

namespace prpart::analysis {

/// Result of analyzing raw XML text: the reader's problems as error
/// diagnostics or, when the document is sound, the constructed design with
/// its source spans and the semantic findings of analyze_design.
struct SourceAnalysis {
  AnalysisResult result;
  /// Engaged when the document parsed and passed every structural check.
  std::optional<ParsedDesign> parsed;

  bool has_errors() const { return result.has_errors(); }
};

/// Front end of the analyzer. It runs the same reader as design_from_xml,
/// which throws the first problem; here every problem the reader finds (XML
/// syntax, schema, unknown module/mode references, duplicates) becomes an
/// error diagnostic with a source span, in document order. When the text
/// has none the semantic checks run on the design too.
SourceAnalysis analyze_design_source(const std::string& text,
                                     const AnalysisOptions& options = {});

}  // namespace prpart::analysis
