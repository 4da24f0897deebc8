#include "benchlib/policy.hpp"

#include "util/status.hpp"

namespace prpart {

AdaptationPolicy::AdaptationPolicy(std::size_t configurations)
    : configurations_(configurations) {
  require(configurations_ > 0, "policy needs at least one configuration");
}

void AdaptationPolicy::add_rule(std::size_t from, std::string event,
                                std::size_t to) {
  require(from == kAnyConfig || from < configurations_,
          "rule source configuration out of range");
  require(to < configurations_, "rule target configuration out of range");
  require(!event.empty(), "rule event must be named");
  for (const Rule& r : rules_)
    require(!(r.from == from && r.event == event),
            "duplicate rule for (configuration, event)");
  rules_.push_back(Rule{from, std::move(event), to});
}

std::optional<std::size_t> AdaptationPolicy::target(
    std::size_t current, const std::string& event) const {
  require(current < configurations_, "current configuration out of range");
  std::optional<std::size_t> wildcard;
  for (const Rule& r : rules_) {
    if (r.event != event) continue;
    if (r.from == current) return r.to;  // specific rule wins
    if (r.from == kAnyConfig) wildcard = r.to;
  }
  return wildcard;
}

PolicyRunResult run_policy(ReconfigurationController& controller,
                           const AdaptationPolicy& policy,
                           const std::vector<std::string>& events) {
  PolicyRunResult result;
  result.path.push_back(controller.current_config());
  for (const std::string& event : events) {
    ++result.events;
    const auto to = policy.target(controller.current_config(), event);
    if (!to) {
      ++result.ignored;
      continue;
    }
    if (*to == controller.current_config()) {
      ++result.self_loops;
      continue;
    }
    controller.transition(*to);
    ++result.applied;
    result.path.push_back(*to);
  }
  return result;
}

}  // namespace prpart
