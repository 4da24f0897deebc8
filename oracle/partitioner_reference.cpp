#include "oracle/partitioner_reference.hpp"

#include "server/protocol.hpp"
#include "util/status.hpp"

namespace prpart::oracle {

DevicePartitionResult partition_on_smallest_device_reference(
    const Design& design, const DeviceLibrary& library,
    const PartitionerOptions& options) {
  const auto& devices = library.devices();
  require(!devices.empty(), "device library is empty");

  DevicePartitionResult out;
  bool found_first = false;
  for (std::size_t i = 0; i < devices.size(); ++i) {
    PartitionerResult r =
        partition_design(design, devices[i].capacity(), options);
    if (!r.feasible) continue;
    if (!found_first) {
      out.first_feasible_index = i;
      found_first = true;
    }
    const bool only_single_region = !r.proposed_from_search;
    if (only_single_region && i + 1 < devices.size()) {
      // Keep the single-region answer in hand but try a larger device
      // (§V: designs re-iterated on larger FPGAs).
      out.device = &devices[i];
      out.chosen_index = i;
      out.result = std::move(r);
      continue;
    }
    out.device = &devices[i];
    out.chosen_index = i;
    out.result = std::move(r);
    out.escalated = out.chosen_index != out.first_feasible_index;
    return out;
  }
  if (found_first) {
    // Largest device still only supported single-region: report that.
    out.escalated = out.chosen_index != out.first_feasible_index;
    return out;
  }
  throw DeviceError("design '" + design.name() +
                    "' does not fit any device in the library");
}

namespace {

bool same_scheme(const PartitionScheme& a, const PartitionScheme& b) {
  if (a.label != b.label || a.static_members != b.static_members ||
      a.regions.size() != b.regions.size())
    return false;
  for (std::size_t i = 0; i < a.regions.size(); ++i)
    if (a.regions[i].members != b.regions[i].members) return false;
  return true;
}

}  // namespace

std::string walk_mismatch(const Design& design,
                          const DevicePartitionResult& production,
                          const DevicePartitionResult& reference) {
  if (production.device != reference.device) return "device";
  if (production.chosen_index != reference.chosen_index)
    return "chosen_index";
  if (production.first_feasible_index != reference.first_feasible_index)
    return "first_feasible_index";
  if (production.escalated != reference.escalated) return "escalated";
  const ResourceVec budget = reference.device->capacity();
  const std::string name = reference.device->name();
  if (server::partition_result_json(design, production.result, name, budget)
          .dump() !=
      server::partition_result_json(design, reference.result, name, budget)
          .dump())
    return "partition_result_json";
  const auto& pa = production.result.alternatives;
  const auto& ra = reference.result.alternatives;
  if (pa.size() != ra.size()) return "alternatives.size";
  for (std::size_t i = 0; i < pa.size(); ++i) {
    if (!same_scheme(pa[i].scheme, ra[i].scheme) ||
        pa[i].total_frames != ra[i].total_frames)
      return "alternatives[" + std::to_string(i) + "]";
  }
  return {};
}

}  // namespace prpart::oracle
