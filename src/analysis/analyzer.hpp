#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "analysis/diagnostic.hpp"
#include "design/design.hpp"
#include "design/io_xml.hpp"
#include "device/device.hpp"
#include "util/json.hpp"

namespace prpart::analysis {

/// Target selection for the feasibility checks, mirroring the CLI's
/// --device/--budget flags (which exclude each other; given both, the
/// budget wins). With neither the design is checked against the whole
/// device library (the paper's device-selection mode).
struct AnalysisOptions {
  DeviceLibrary library = DeviceLibrary::virtex5();
  std::string device;                 ///< named target; "" = none
  std::optional<ResourceVec> budget;  ///< explicit budget; overrides device
};

/// A static proof that no partitioning scheme fits the target: even a
/// single region holding every configuration — the minimum feasible PR
/// implementation of §IV-C — needs more than the target provides. This is
/// exactly the feasibility bound the allocation search applies, so when
/// the analyzer emits this proof, running `partition` is guaranteed to
/// return infeasible (the soundness property the tests assert).
struct InfeasibilityProof {
  /// Element-wise max over configurations of the sum of their active mode
  /// areas (Eq. 2 over the connectivity-matrix rows).
  ResourceVec raw_lower_bound;
  /// raw_lower_bound rounded up to whole tiles (Eqs. 3-5) plus the static
  /// base: the least fabric any scheme occupies.
  ResourceVec lower_bound;
  /// What the bound was compared against: a device name, "budget", or
  /// "library" (no device in the whole family fits).
  std::string target;
  ResourceVec capacity;
  /// Witness: the binding resource (largest shortfall) and its numbers.
  std::string binding;
  std::uint32_t required = 0;   ///< lower_bound's binding component
  std::uint32_t available = 0;  ///< capacity's binding component
  /// Smallest library device the lower bound does fit; "" when none.
  std::string smallest_fitting_device;

  /// One-sentence human explanation of the proof.
  std::string to_string() const;
};

/// Everything the analyzer found for one design.
struct AnalysisResult {
  std::vector<Diagnostic> diagnostics;  ///< errors first, then warnings/infos
  /// Engaged when the lower-bound proof fired; an `infeasible` error
  /// diagnostic is also present in `diagnostics`.
  std::optional<InfeasibilityProof> proof;

  bool has_errors() const;
  std::size_t count(Severity s) const;
};

/// Runs every semantic check on a structurally valid design: the ported
/// linter checks (dead modes, unused modules, always-on modes, zero-area
/// modes, duplicate mode areas, oversized modes, single configuration)
/// plus subsumed configurations, compatibility-derived merge suggestions
/// and the lower-bound infeasibility proof. `spans` (optional) maps the
/// findings back to source positions.
AnalysisResult analyze_design(const Design& design,
                              const AnalysisOptions& options = {},
                              const DesignSpans* spans = nullptr);

/// The lower-bound feasibility check alone: returns the proof when the
/// design cannot fit `budget` under any scheme, nullopt when the bound
/// fits. `target` labels the proof (a device name or "budget"); `library`
/// supplies the witness device. Used by `partition` and the server to
/// reject hopeless jobs before running a search.
std::optional<InfeasibilityProof> prove_infeasible(const Design& design,
                                                   const ResourceVec& budget,
                                                   const DeviceLibrary& library,
                                                   const std::string& target);

/// Encodes an analysis result as JSON. The same encoder backs the CLI's
/// `analyze --json` output and the server's `analyze` response, so the two
/// are byte-identical for the same input (the integration tests diff them).
json::Value analysis_json(const AnalysisResult& result);

}  // namespace prpart::analysis
