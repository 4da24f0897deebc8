#pragma once

#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "design/design.hpp"
#include "xml/xml.hpp"

namespace prpart {

/// Source positions of the design elements in the XML document they were
/// read from, by index. Lets the analyzer point every diagnostic at the
/// offending `<module>`/`<mode>`/`<configuration>` in the input file.
struct DesignSpans {
  xml::Span root;
  /// The <configurations> list, or the root when the list is missing.
  xml::Span configuration_list;
  std::vector<xml::Span> modules;         ///< by module index
  std::vector<xml::Span> modes;           ///< by global mode id
  std::vector<xml::Span> configurations;  ///< by configuration index
};

/// A design together with the source spans of its elements.
struct ParsedDesign {
  Design design;
  DesignSpans spans;
};

/// What the reader makes of one document: the design and its spans when
/// the document keeps every input rule, else every rule it breaks, each
/// with the span of its element, in document order.
struct DesignRead {
  std::optional<ParsedDesign> parsed;
  std::vector<DesignProblem> problems;
};

/// The one reader of the XML input format of the proposed tool flow
/// (Fig. 2: "design files ... a list of valid configurations ... in XML
/// format"):
///
///   <design name="example">
///     <static clbs="90" brams="8" dsps="0"/>
///     <module name="A">
///       <mode name="A1" clbs="100" brams="0" dsps="2"/>
///       <mode name="A2" clbs="250" brams="1" dsps="4"/>
///     </module>
///     <configurations>
///       <configuration name="c1">
///         <use module="A" mode="A1"/>
///       </configuration>
///     </configurations>
///   </design>
///
/// Modules omitted from a <configuration> are absent (mode 0); an unnamed
/// configuration is named "Conf<n>" by position. Resource attributes default
/// to 0 when missing and must be 32-bit counts. The reader checks the
/// document's own rules (well-formed XML, a <design> root, resource counts,
/// <use> references) and leaves the object rules to Design's constructor.
DesignRead read_design(std::string_view text);

/// read_design for callers that want the design or nothing: throws
/// ParseError carrying the first problem's message, line and column.
Design design_from_xml(const std::string& text);

/// Serialises a design back to the same format; round-trips exactly.
std::string design_to_xml(const Design& design);

}  // namespace prpart
