#include "design/design.hpp"

#include <set>
#include <unordered_set>

#include "util/status.hpp"

namespace prpart {

Design::Design(std::string name, ResourceVec static_base,
               std::vector<Module> modules,
               std::vector<Configuration> configurations)
    : name_(std::move(name)),
      static_base_(static_base),
      modules_(std::move(modules)),
      configurations_(std::move(configurations)) {
  validate();
  index_modes();
}

void Design::validate() const {
  if (modules_.empty()) throw DesignError("design has no modules");
  if (configurations_.empty())
    throw DesignError("design has no configurations");

  std::unordered_set<std::string> module_names;
  for (const Module& m : modules_) {
    if (m.name.empty()) throw DesignError("module with empty name");
    if (!module_names.insert(m.name).second)
      throw DesignError("duplicate module name '" + m.name + "'");
    if (m.modes.empty())
      throw DesignError("module '" + m.name + "' has no modes");
    std::unordered_set<std::string> mode_names;
    for (const Mode& mode : m.modes) {
      if (mode.name.empty())
        throw DesignError("module '" + m.name + "' has a mode with empty name");
      if (!mode_names.insert(mode.name).second)
        throw DesignError("duplicate mode name '" + mode.name +
                          "' in module '" + m.name + "'");
    }
  }

  std::set<std::vector<std::uint32_t>> seen;
  for (const Configuration& c : configurations_) {
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
    if (!any)
      throw DesignError("configuration '" + c.name + "' contains no modules");
    if (!seen.insert(c.mode_of_module).second)
      throw DesignError("configuration '" + c.name +
                        "' duplicates an earlier configuration");
  }
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
