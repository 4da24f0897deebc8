#include "design/builder.hpp"

namespace prpart {

DesignBuilder& DesignBuilder::static_base(ResourceVec area) {
  static_base_ = area;
  return *this;
}

DesignBuilder& DesignBuilder::module(const std::string& name,
                                     std::vector<Mode> modes) {
  modules_.push_back(Module{name, std::move(modes)});
  return *this;
}

DesignBuilder& DesignBuilder::configuration(
    const std::vector<std::pair<std::string, std::string>>& choices) {
  return configuration("Conf" + std::to_string(configurations_.size() + 1),
                       choices);
}

DesignBuilder& DesignBuilder::configuration(
    std::string config_name,
    const std::vector<std::pair<std::string, std::string>>& choices) {
  Configuration c;
  c.name = std::move(config_name);
  c.mode_of_module.assign(modules_.size(), 0);
  for (const auto& [module_name, mode_name] : choices)
    if (const auto problem = choose_mode(modules_, c, module_name, mode_name))
      throw DesignError(problem->message);
  configurations_.push_back(std::move(c));
  return *this;
}

Design DesignBuilder::build() const {
  return Design(name_, static_base_, modules_, configurations_);
}

}  // namespace prpart
