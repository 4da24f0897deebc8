#include "analysis/analyzer.hpp"

#include <algorithm>
#include <cctype>

#include "core/schemes.hpp"

namespace prpart::analysis {

namespace {

/// Modes named like the paper's explicit "none" placeholder are allowed a
/// zero area without a warning.
bool looks_like_none(const std::string& name) {
  std::string lower;
  for (char c : name)
    lower += static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
  return lower.find("none") != std::string::npos ||
         lower.find("off") != std::string::npos ||
         lower.find("bypass") != std::string::npos;
}

std::uint32_t component(const ResourceVec& r, const std::string& name) {
  if (name == "clbs") return r.clbs;
  if (name == "brams") return r.brams;
  return r.dsps;
}

/// The binding resource of an infeasible comparison: the component with the
/// largest shortfall (ties resolved clbs, brams, dsps).
std::string binding_resource(const ResourceVec& need, const ResourceVec& have) {
  std::string best;
  std::uint64_t best_shortfall = 0;
  for (const char* name : {"clbs", "brams", "dsps"}) {
    const std::uint32_t n = component(need, name);
    const std::uint32_t h = component(have, name);
    if (n > h && std::uint64_t{n} - h > best_shortfall) {
      best = name;
      best_shortfall = std::uint64_t{n} - h;
    }
  }
  return best;
}

json::Value resources_json(const ResourceVec& r) {
  json::Value v = json::Value::object();
  v.set("clbs", json::Value(static_cast<std::uint64_t>(r.clbs)));
  v.set("brams", json::Value(static_cast<std::uint64_t>(r.brams)));
  v.set("dsps", json::Value(static_cast<std::uint64_t>(r.dsps)));
  return v;
}

json::Value proof_json(const InfeasibilityProof& proof) {
  json::Value v = json::Value::object();
  v.set("raw_lower_bound", resources_json(proof.raw_lower_bound));
  v.set("lower_bound", resources_json(proof.lower_bound));
  v.set("target", json::Value(proof.target));
  v.set("capacity", resources_json(proof.capacity));
  v.set("binding", json::Value(proof.binding));
  v.set("required", json::Value(static_cast<std::uint64_t>(proof.required)));
  v.set("available", json::Value(static_cast<std::uint64_t>(proof.available)));
  v.set("smallest_fitting_device",
        proof.smallest_fitting_device.empty()
            ? json::Value()
            : json::Value(proof.smallest_fitting_device));
  return v;
}

}  // namespace

std::string InfeasibilityProof::to_string() const {
  std::string out = "no scheme fits " + target +
                    ": a single region holding every configuration needs " +
                    lower_bound.to_string() + " (raw " +
                    raw_lower_bound.to_string() +
                    " tile-rounded, plus static), but only " +
                    capacity.to_string() + " is available; binding resource " +
                    binding + " (need " + std::to_string(required) +
                    ", have " + std::to_string(available) + ")";
  return out;
}

bool AnalysisResult::has_errors() const { return count(Severity::Error) > 0; }

std::size_t AnalysisResult::count(Severity s) const {
  std::size_t n = 0;
  for (const Diagnostic& d : diagnostics)
    if (d.severity == s) ++n;
  return n;
}

std::optional<InfeasibilityProof> prove_infeasible(const Design& design,
                                                   const ResourceVec& budget,
                                                   const DeviceLibrary& library,
                                                   const std::string& target) {
  // The single-region bound of §IV-C: exactly the feasibility check the
  // allocation search applies (evaluate_scheme on single_region_scheme).
  const ResourceVec bound = single_region_footprint(design);
  if (bound.fits_in(budget)) return std::nullopt;

  InfeasibilityProof proof;
  proof.raw_lower_bound = design.largest_configuration_area();
  proof.lower_bound = bound;
  proof.target = target;
  proof.capacity = budget;
  proof.binding = binding_resource(bound, budget);
  proof.required = component(bound, proof.binding);
  proof.available = component(budget, proof.binding);
  if (const Device* d = library.smallest_fitting(bound))
    proof.smallest_fitting_device = d->name();
  return proof;
}

AnalysisResult analyze_design(const Design& design,
                              const AnalysisOptions& options,
                              const DesignSpans* spans) {
  AnalysisResult out;
  const auto& modules = design.modules();
  const auto& configs = design.configurations();

  auto module_span = [&](std::size_t module) {
    return spans ? spans->modules[module] : xml::Span{};
  };
  // (module index, 1-based mode index)
  auto mode_span = [&](std::size_t module, std::size_t mode) {
    return spans ? spans->modes[design.global_mode_id(
                       static_cast<std::uint32_t>(module),
                       static_cast<std::uint32_t>(mode))]
                 : xml::Span{};
  };
  auto config_span = [&](std::size_t index) {
    return spans ? spans->configurations[index] : xml::Span{};
  };
  const xml::Span root_span = spans ? spans->root : xml::Span{};

  auto emit = [&](Severity severity, std::string code, std::string message,
                  std::string fixit, xml::Span span) {
    out.diagnostics.push_back({severity, std::move(code), std::move(message),
                               std::move(fixit), span});
  };

  // Resolve the feasibility target. An unknown --device surfaces as
  // DeviceError (a usage error), never as a diagnostic.
  ResourceVec target_capacity;
  std::string target_label;
  bool explicit_target = false;
  if (options.budget) {
    target_capacity = *options.budget;
    target_label = "budget";
    explicit_target = true;
  } else if (!options.device.empty()) {
    const Device& device = options.library.by_name(options.device);
    target_capacity = device.capacity();
    target_label = device.name();
    explicit_target = true;
  }

  // Per-module / per-mode usage checks (the ported linter).
  for (std::size_t m = 0; m < modules.size(); ++m) {
    bool module_used = false;
    for (std::size_t k = 1; k <= modules[m].modes.size(); ++k) {
      const Mode& mode = modules[m].modes[k - 1];
      std::size_t uses = 0;
      for (const Configuration& c : configs)
        if (c.mode_of_module[m] == k) ++uses;
      module_used = module_used || uses > 0;

      if (uses == 0)
        emit(Severity::Warning, "dead-mode",
             "mode '" + mode.name + "' of module '" + modules[m].name +
                 "' appears in no configuration and will never be implemented",
             "add the mode to a configuration or delete it",
             mode_span(m, k));
      else if (uses == configs.size() && configs.size() > 1)
        emit(Severity::Info, "always-on-mode",
             "mode '" + mode.name + "' of module '" + modules[m].name +
                 "' is active in every configuration; consider implementing "
                 "it statically",
             "move the mode's resources into <static> and drop it from the "
             "configurations",
             mode_span(m, k));

      if (mode.area.is_zero() && !looks_like_none(mode.name) && uses > 0)
        emit(Severity::Warning, "zero-area-mode",
             "mode '" + mode.name + "' of module '" + modules[m].name +
                 "' has no resources; if it models an absent module, prefer "
                 "omitting the module from the configuration (mode 0)",
             "remove the <use> instead of declaring an empty mode",
             mode_span(m, k));
    }
    if (!module_used)
      emit(Severity::Warning, "unused-module",
           "module '" + modules[m].name +
               "' is absent from every configuration",
           "reference the module from a configuration or delete it",
           module_span(m));

    for (std::size_t a = 0; a < modules[m].modes.size(); ++a)
      for (std::size_t b = a + 1; b < modules[m].modes.size(); ++b)
        if (modules[m].modes[a].area == modules[m].modes[b].area &&
            !modules[m].modes[a].area.is_zero())
          emit(Severity::Info, "duplicate-modes",
               "modes '" + modules[m].modes[a].name + "' and '" +
                   modules[m].modes[b].name + "' of module '" +
                   modules[m].name + "' have identical resource estimates",
               "",
               mode_span(m, b + 1));
  }

  // Oversized modes. Against an explicit target, a used oversized mode is
  // a hard error (it makes the lower bound fail too); otherwise modes that
  // exceed the largest library device are warned about, as the old linter
  // did.
  const ResourceVec largest_device =
      options.library.devices().empty()
          ? ResourceVec{~0u, ~0u, ~0u}
          : options.library.devices().back().capacity();
  for (std::size_t g = 0; g < design.mode_count(); ++g) {
    const ModeRef ref = design.mode_ref(g);
    const std::string& module_name = modules[ref.module].name;
    const xml::Span at = mode_span(ref.module, ref.mode);
    if (explicit_target && design.mode_used(g) &&
        !design.mode_area(g).fits_in(target_capacity)) {
      emit(Severity::Error, "oversized-mode",
           "mode '" + design.mode_label(g) + "' of module '" + module_name +
               "' (" + design.mode_area(g).to_string() + ") exceeds " +
               target_label + " (" + target_capacity.to_string() + ")",
           "shrink the mode or target a larger device", at);
    } else if (!design.mode_area(g).fits_in(largest_device)) {
      emit(Severity::Warning, "oversized-mode",
           "mode '" + design.mode_label(g) + "' of module '" + module_name +
               "' exceeds the largest library device (" +
               design.mode_area(g).to_string() + ")",
           "", at);
    }
  }

  // Subsumed configurations: every module active in c_i runs the same mode
  // in c_j, so any region allocation supporting c_j supports c_i.
  // (Duplicates are rejected earlier, by Design's constructor.)
  for (std::size_t i = 0; i < configs.size(); ++i) {
    for (std::size_t j = 0; j < configs.size(); ++j) {
      if (i == j) continue;
      bool subset = true;
      bool proper = false;
      for (std::size_t m = 0; m < modules.size(); ++m) {
        const std::uint32_t a = configs[i].mode_of_module[m];
        const std::uint32_t b = configs[j].mode_of_module[m];
        if (a != 0 && a != b) subset = false;
        if (a == 0 && b != 0) proper = true;
      }
      if (subset && proper) {
        emit(Severity::Warning, "subsumed-config",
             "configuration '" + configs[i].name +
                 "' is a subset of configuration '" + configs[j].name +
                 "': it adds no partitioning constraint",
             "check whether '" + configs[i].name +
                 "' should activate more modules or be removed",
             config_span(i));
        break;  // one report per subsumed configuration
      }
    }
  }

  // Compatibility-derived merge suggestions (Eqs. 7-9): two used modules
  // whose modes never run concurrently can share one reconfigurable region;
  // the search will discover this, but it is worth surfacing to designers.
  for (std::size_t a = 0; a < modules.size(); ++a) {
    for (std::size_t b = a + 1; b < modules.size(); ++b) {
      bool a_used = false;
      bool b_used = false;
      bool co_occur = false;
      for (const Configuration& c : configs) {
        const bool in_a = c.mode_of_module[a] != 0;
        const bool in_b = c.mode_of_module[b] != 0;
        a_used = a_used || in_a;
        b_used = b_used || in_b;
        co_occur = co_occur || (in_a && in_b);
      }
      if (a_used && b_used && !co_occur)
        emit(Severity::Info, "merge-candidate",
             "modules '" + modules[a].name + "' and '" + modules[b].name +
                 "' are never active together; their modes are compatible "
                 "and can share one reconfigurable region",
             "", module_span(a));
    }
  }

  if (configs.size() < 2)
    emit(Severity::Info, "single-config",
         "only one configuration: the design never reconfigures", "",
         root_span);

  // The lower-bound infeasibility proof. With an explicit target the bound
  // is checked against it; otherwise against the whole library (can the
  // design be implemented on any device at all?).
  if (explicit_target) {
    out.proof =
        prove_infeasible(design, target_capacity, options.library, target_label);
  } else if (!options.library.devices().empty()) {
    out.proof = prove_infeasible(design, largest_device, options.library,
                                 "the largest library device");
  }
  if (out.proof) {
    std::string fixit;
    if (!out.proof->smallest_fitting_device.empty())
      fixit = "target " + out.proof->smallest_fitting_device + " or larger";
    else
      fixit = "reduce " + out.proof->binding +
              " usage; no library device can hold the design";
    emit(Severity::Error, "infeasible", out.proof->to_string(),
         std::move(fixit), root_span);
  }

  sort_by_severity(out.diagnostics);
  return out;
}

json::Value analysis_json(const AnalysisResult& result) {
  json::Value v = json::Value::object();
  if (result.proof)
    v.set("feasible", json::Value(false));
  else if (result.has_errors())
    v.set("feasible", json::Value());  // unknown: the design did not build
  else
    v.set("feasible", json::Value(true));
  v.set("errors", json::Value(
                      static_cast<std::uint64_t>(result.count(Severity::Error))));
  v.set("warnings",
        json::Value(static_cast<std::uint64_t>(result.count(Severity::Warning))));
  v.set("infos",
        json::Value(static_cast<std::uint64_t>(result.count(Severity::Info))));

  json::Value diags = json::Value::array();
  for (const Diagnostic& d : result.diagnostics) {
    json::Value item = json::Value::object();
    item.set("severity", json::Value(std::string(to_string(d.severity))));
    item.set("code", json::Value(d.code));
    item.set("message", json::Value(d.message));
    if (!d.fixit.empty()) item.set("fixit", json::Value(d.fixit));
    if (d.span.known()) {
      item.set("line", json::Value(static_cast<std::uint64_t>(d.span.line)));
      item.set("column",
               json::Value(static_cast<std::uint64_t>(d.span.column)));
    }
    diags.push_back(std::move(item));
  }
  v.set("diagnostics", std::move(diags));
  if (result.proof) v.set("proof", proof_json(*result.proof));
  return v;
}

}  // namespace prpart::analysis
