#pragma once

#include <string>

#include "util/rng.hpp"

namespace prpart::testing {

/// `edits` seeded byte edits of `doc`: a flip to a random printable byte,
/// a deletion, a duplication or a truncation each. The XML fuzz sweep and
/// the reader agreement test replay the same seeds.
inline std::string mutate_bytes(Rng& rng, std::string doc, int edits) {
  for (int e = 0; e < edits; ++e) {
    if (doc.empty()) break;
    const std::size_t pos = rng.below(doc.size());
    switch (rng.below(4)) {
      case 0:  // flip to a random printable byte
        doc[pos] = static_cast<char>(32 + rng.below(95));
        break;
      case 1:  // delete a byte
        doc.erase(pos, 1);
        break;
      case 2:  // duplicate a byte
        doc.insert(pos, 1, doc[pos]);
        break;
      case 3:  // truncate
        doc.resize(pos);
        break;
    }
  }
  return doc;
}

}  // namespace prpart::testing
