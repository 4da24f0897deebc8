#pragma once

#include <string>

#include "core/partitioner.hpp"
#include "design/design.hpp"

namespace prpart::server {

/// Canonical text form of a design: modules sorted by name (modes sorted by
/// name within each module), configurations sorted by name, each
/// configuration's mode choices sorted by module name, and every name
/// rendered as a JSON string literal so arbitrary characters cannot forge
/// delimiters. Two designs that differ only in declaration order of
/// modules, modes or configurations canonicalise to the same string; any
/// change to a name, a resource count or a configuration changes it.
std::string canonical_design_string(const Design& design);

/// 128-bit content hash (32 hex chars) of an arbitrary byte string: two
/// independently seeded FNV-1a-64 lanes. Not cryptographic — it keys an
/// in-memory result cache, where a collision costs a wrong answer only if
/// an adversary can submit both preimages; the protocol is trusted-client.
std::string content_hash(const std::string& bytes);

/// Cache key of a partition job: canonical design form + target (device
/// name or explicit budget) + every PartitionerOptions field that can alter
/// the result. `threads` and `use_move_table` are deliberately excluded —
/// the search returns byte-identical schemes for any value of either, so
/// submissions differing only there share one cache entry.
std::string job_cache_key(const Design& design, const std::string& target,
                          const PartitionerOptions& options);

}  // namespace prpart::server
