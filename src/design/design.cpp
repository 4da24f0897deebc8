#include "design/design.hpp"

#include <algorithm>
#include <array>
#include <set>
#include <string_view>
#include <unordered_set>

#include "device/tiles.hpp"

namespace prpart {

std::optional<DesignProblem> choose_mode(const std::vector<Module>& modules,
                                         Configuration& config,
                                         std::string_view module,
                                         std::string_view mode) {
  auto error = [&](std::string code, std::string message, std::string fixit) {
    return DesignProblem{.code = std::move(code),
                         .message = std::move(message),
                         .fixit = std::move(fixit),
                         .span = {}};
  };
  const auto m = std::find_if(modules.begin(), modules.end(),
                              [&](const Module& x) { return x.name == module; });
  if (m == modules.end())
    return error("unknown-module-ref",
                 "configuration '" + config.name +
                     "' references unknown module '" + std::string(module) + "'",
                 "declare the module or fix the reference");
  const auto k = std::find_if(m->modes.begin(), m->modes.end(),
                              [&](const Mode& x) { return x.name == mode; });
  if (k == m->modes.end())
    return error("unknown-mode-ref",
                 "module '" + m->name + "' has no mode '" + std::string(mode) +
                     "' (configuration '" + config.name + "')",
                 "declare the mode or fix the reference");
  std::uint32_t& chosen =
      config.mode_of_module[static_cast<std::size_t>(m - modules.begin())];
  if (chosen != 0)
    return error("duplicate-module-use",
                 "configuration '" + config.name + "' assigns module '" +
                     m->name + "' twice",
                 "keep exactly one <use> per module");
  chosen = static_cast<std::uint32_t>(k - m->modes.begin() + 1);
  return std::nullopt;
}

Design::Design(std::string name, ResourceVec static_base,
               std::vector<Module> modules,
               std::vector<Configuration> configurations)
    : name_(std::move(name)),
      static_base_(static_base),
      modules_(std::move(modules)),
      configurations_(std::move(configurations)) {
  check_rules();
  index_modes();
}

void Design::check_rules() const {
  using Element = DesignProblem::Element;
  std::vector<DesignProblem> problems;
  auto error = [&](std::string code, std::string message, std::string fixit,
                   Element element, std::size_t index = 0) {
    problems.push_back({.code = std::move(code),
                        .message = std::move(message),
                        .fixit = std::move(fixit),
                        .element = element,
                        .index = index,
                        .span = {}});
  };

  if (modules_.empty())
    error("no-modules", "design has no modules",
          "declare at least one <module>", Element::Design);
  // Nameless and duplicate modules are reported once; their modes are not
  // checked. `column` tracks the global mode id of each mode.
  std::unordered_set<std::string_view> module_names;
  std::size_t column = 0;
  for (std::size_t m = 0; m < modules_.size(); ++m) {
    const Module& mod = modules_[m];
    const std::size_t first_column = column;
    column += mod.modes.size();
    if (mod.name.empty()) {
      error("missing-attribute", "<module> element without a name",
            "add name=\"...\"", Element::Module, m);
      continue;
    }
    if (!module_names.insert(mod.name).second) {
      error("duplicate-module", "duplicate module name '" + mod.name + "'",
            "rename or merge the duplicate <module> elements", Element::Module,
            m);
      continue;
    }
    if (mod.modes.empty())
      error("empty-module", "module '" + mod.name + "' has no modes",
            "declare at least one <mode> or delete the module",
            Element::Module, m);
    std::unordered_set<std::string_view> mode_names;
    for (std::size_t k = 0; k < mod.modes.size(); ++k) {
      const std::string& mode = mod.modes[k].name;
      if (mode.empty())
        error("missing-attribute",
              "<mode> in module '" + mod.name + "' without a name",
              "add name=\"...\"", Element::Mode, first_column + k);
      else if (!mode_names.insert(mode).second)
        error("duplicate-mode",
              "duplicate mode name '" + mode + "' in module '" + mod.name +
                  "'",
              "rename or merge the duplicate <mode> elements", Element::Mode,
              first_column + k);
    }
  }

  // Every sum the engine forms (configuration areas, tile-rounded region
  // footprints, static logic plus regions) is at most the static base plus
  // every mode, each rounded up to whole tiles. Holding that total to 32
  // bits per resource keeps every ResourceVec sum exact; tiles_for rounds
  // without an intermediate sum, so an area at the limit keeps its tiles.
  {
    constexpr std::uint64_t kMax = 0xFFFFFFFFu;
    constexpr std::array<std::uint64_t, 3> kPerTile = {
        arch::kClbsPerTile, arch::kBramsPerTile, arch::kDspsPerTile};
    constexpr std::array<const char*, 3> kNames = {"CLB", "BRAM", "DSP"};
    std::array<std::uint64_t, 3> tiled{};
    // Adds `r` in whole tiles; returns the first resource above 32 bits.
    auto add = [&](const ResourceVec& r) -> std::optional<std::size_t> {
      const std::array<std::uint64_t, 3> count = {r.clbs, r.brams, r.dsps};
      for (std::size_t k = 0; k < 3; ++k)
        tiled[k] += (count[k] + kPerTile[k] - 1) / kPerTile[k] * kPerTile[k];
      for (std::size_t k = 0; k < 3; ++k)
        if (tiled[k] > kMax) return k;
      return std::nullopt;
    };
    auto overflow = [&](const std::string& what, std::size_t k,
                        Element element, std::size_t index) {
      error("resource-overflow",
            what + " brings the design's tile-rounded " + kNames[k] +
                " total (static logic plus every mode) to " +
                std::to_string(tiled[k]) + ", above the 32-bit limit " +
                std::to_string(kMax),
            "reduce the resource counts", element, index);
    };
    std::optional<std::size_t> over = add(static_base_);
    if (over) overflow("the static logic", *over, Element::Design, 0);
    std::size_t col = 0;
    for (std::size_t m = 0; m < modules_.size() && !over; ++m)
      for (std::size_t k = 0; k < modules_[m].modes.size() && !over; ++k) {
        const Mode& mode = modules_[m].modes[k];
        over = add(mode.area);
        if (over)
          overflow("mode '" + mode.name + "' of module '" + modules_[m].name +
                       "'",
                   *over, Element::Mode, col);
        ++col;
      }
  }

  if (configurations_.empty())
    error("no-configurations", "design has no configurations",
          "add a <configurations> list with at least one <configuration>",
          Element::ConfigurationList);
  // Each distinct module -> mode map, keyed to its first configuration.
  auto by_modes = [](const Configuration* a, const Configuration* b) {
    return a->mode_of_module < b->mode_of_module;
  };
  std::set<const Configuration*, decltype(by_modes)> seen(by_modes);
  for (std::size_t i = 0; i < configurations_.size(); ++i) {
    const Configuration& c = configurations_[i];
    if (c.mode_of_module.size() != modules_.size())
      throw DesignError("configuration '" + c.name + "' specifies " +
                        std::to_string(c.mode_of_module.size()) +
                        " modules, design has " +
                        std::to_string(modules_.size()));
    bool any = false;
    for (std::size_t m = 0; m < modules_.size(); ++m) {
      const std::uint32_t mode = c.mode_of_module[m];
      if (mode > modules_[m].modes.size())
        throw DesignError("configuration '" + c.name + "' uses mode " +
                          std::to_string(mode) + " of module '" +
                          modules_[m].name + "' which has only " +
                          std::to_string(modules_[m].modes.size()) + " modes");
      any = any || mode != 0;
    }
    if (!any) {
      error("empty-configuration",
            "configuration '" + c.name + "' contains no modules",
            "add at least one <use> or delete the configuration",
            Element::Configuration, i);
      continue;
    }
    const auto [first, fresh] = seen.insert(&c);
    if (!fresh)
      error("duplicate-config",
            "configuration '" + c.name + "' duplicates configuration '" +
                (*first)->name + "'",
            "delete one of the duplicates", Element::Configuration, i);
  }

  if (!problems.empty()) throw DesignRuleError(std::move(problems));
}

void Design::index_modes() {
  module_first_column_.resize(modules_.size());
  std::size_t col = 0;
  for (std::size_t m = 0; m < modules_.size(); ++m) {
    module_first_column_[m] = col;
    for (std::size_t k = 0; k < modules_[m].modes.size(); ++k) {
      column_to_ref_.push_back(
          {static_cast<std::uint32_t>(m), static_cast<std::uint32_t>(k + 1)});
      mode_area_.push_back(modules_[m].modes[k].area);
      ++col;
    }
  }

  config_modes_.reserve(configurations_.size());
  for (const Configuration& c : configurations_) {
    DynBitset bits(mode_count());
    for (std::size_t m = 0; m < modules_.size(); ++m) {
      const std::uint32_t mode = c.mode_of_module[m];
      if (mode != 0)
        bits.set(global_mode_id(static_cast<std::uint32_t>(m), mode));
    }
    config_modes_.push_back(std::move(bits));
  }
}

std::size_t Design::global_mode_id(std::uint32_t module,
                                   std::uint32_t mode) const {
  require(module < modules_.size(), "module index out of range");
  require(mode >= 1 && mode <= modules_[module].modes.size(),
          "mode index out of range");
  return module_first_column_[module] + mode - 1;
}

ModeRef Design::mode_ref(std::size_t global_id) const {
  require(global_id < column_to_ref_.size(), "global mode id out of range");
  return column_to_ref_[global_id];
}

const ResourceVec& Design::mode_area(std::size_t global_id) const {
  require(global_id < mode_area_.size(), "global mode id out of range");
  return mode_area_[global_id];
}

const std::string& Design::mode_label(std::size_t global_id) const {
  const ModeRef ref = mode_ref(global_id);
  return modules_[ref.module].modes[ref.mode - 1].name;
}

const DynBitset& Design::config_modes(std::size_t c) const {
  require(c < config_modes_.size(), "configuration index out of range");
  return config_modes_[c];
}

ResourceVec Design::config_area(std::size_t c) const {
  ResourceVec area;
  for (std::size_t bit : config_modes(c).bits()) area += mode_area_[bit];
  return area;
}

ResourceVec Design::largest_configuration_area() const {
  ResourceVec best;
  for (std::size_t c = 0; c < configurations_.size(); ++c)
    best = elementwise_max(best, config_area(c));
  return best;
}

ResourceVec Design::full_static_area() const {
  ResourceVec total;
  for (const ResourceVec& a : mode_area_) total += a;
  return total;
}

bool Design::mode_used(std::size_t global_id) const {
  require(global_id < mode_count(), "global mode id out of range");
  for (const DynBitset& row : config_modes_)
    if (row.test(global_id)) return true;
  return false;
}

}  // namespace prpart
