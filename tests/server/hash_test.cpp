#include "server/hash.hpp"

#include <gtest/gtest.h>

#include "design/io_xml.hpp"
#include "synth/ip_library.hpp"

namespace prpart::server {
namespace {

/// A small two-module design in its reference declaration order.
Design reference_design() {
  std::vector<Module> modules = {
      {"Filter", {{"LowPass", {120, 4, 2}}, {"HighPass", {150, 2, 6}}}},
      {"Codec", {{"Fast", {80, 8, 0}}, {"Dense", {60, 12, 1}}}},
  };
  std::vector<Configuration> configs = {
      {"Receive", {1, 2}},
      {"Transmit", {2, 1}},
      {"Idle", {0, 1}},
  };
  return Design("radio", {40, 1, 0}, std::move(modules), std::move(configs));
}

/// The same design with modules, modes and configurations permuted, with
/// every configuration's mode numbers remapped to match.
Design permuted_design() {
  std::vector<Module> modules = {
      {"Codec", {{"Dense", {60, 12, 1}}, {"Fast", {80, 8, 0}}}},
      {"Filter", {{"HighPass", {150, 2, 6}}, {"LowPass", {120, 4, 2}}}},
  };
  // Module order is now [Codec, Filter]; Codec's Fast is mode 2, Dense 1;
  // Filter's HighPass is mode 1, LowPass 2.
  std::vector<Configuration> configs = {
      {"Idle", {2, 0}},
      {"Transmit", {2, 1}},
      {"Receive", {1, 2}},
  };
  return Design("radio", {40, 1, 0}, std::move(modules), std::move(configs));
}

TEST(HashTest, DeclarationOrderDoesNotChangeTheHash) {
  const Design a = reference_design();
  const Design b = permuted_design();
  EXPECT_EQ(canonical_design_string(a), canonical_design_string(b));
  EXPECT_EQ(content_hash(canonical_design_string(a)),
            content_hash(canonical_design_string(b)));
}

TEST(HashTest, ResourceChangeChangesTheHash) {
  const Design a = reference_design();
  std::vector<Module> modules = {
      {"Filter", {{"LowPass", {121, 4, 2}}, {"HighPass", {150, 2, 6}}}},
      {"Codec", {{"Fast", {80, 8, 0}}, {"Dense", {60, 12, 1}}}},
  };
  std::vector<Configuration> configs = {
      {"Receive", {1, 2}}, {"Transmit", {2, 1}}, {"Idle", {0, 1}}};
  const Design b("radio", {40, 1, 0}, std::move(modules), std::move(configs));
  EXPECT_NE(content_hash(canonical_design_string(a)),
            content_hash(canonical_design_string(b)));
}

TEST(HashTest, ConfigurationChangeChangesTheHash) {
  const Design a = reference_design();
  std::vector<Module> modules = {
      {"Filter", {{"LowPass", {120, 4, 2}}, {"HighPass", {150, 2, 6}}}},
      {"Codec", {{"Fast", {80, 8, 0}}, {"Dense", {60, 12, 1}}}},
  };
  // Idle now uses Codec's Fast instead of Dense.
  std::vector<Configuration> configs = {
      {"Receive", {1, 2}}, {"Transmit", {2, 1}}, {"Idle", {0, 2}}};
  const Design b("radio", {40, 1, 0}, std::move(modules), std::move(configs));
  EXPECT_NE(content_hash(canonical_design_string(a)),
            content_hash(canonical_design_string(b)));
}

TEST(HashTest, StaticBaseChangeChangesTheHash) {
  std::vector<Module> modules = {
      {"Filter", {{"LowPass", {120, 4, 2}}, {"HighPass", {150, 2, 6}}}},
      {"Codec", {{"Fast", {80, 8, 0}}, {"Dense", {60, 12, 1}}}},
  };
  std::vector<Configuration> configs = {
      {"Receive", {1, 2}}, {"Transmit", {2, 1}}, {"Idle", {0, 1}}};
  const Design b("radio", {41, 1, 0}, std::move(modules), std::move(configs));
  EXPECT_NE(content_hash(canonical_design_string(reference_design())),
            content_hash(canonical_design_string(b)));
}

TEST(HashTest, StableAcrossXmlRoundTrip) {
  // Serialising to the XML input format and parsing back must preserve the
  // content identity: the cache outlives any single process.
  const Design a = synth::wireless_receiver_design();
  const Design b = design_from_xml(design_to_xml(a));
  EXPECT_EQ(content_hash(canonical_design_string(a)),
            content_hash(canonical_design_string(b)));
}

TEST(HashTest, HashIsAFixedWidthHexDigest) {
  const std::string digest = content_hash("payload");
  EXPECT_EQ(digest.size(), 32u);
  EXPECT_EQ(digest.find_first_not_of("0123456789abcdef"), std::string::npos);
  EXPECT_EQ(digest, content_hash("payload"));
  EXPECT_NE(digest, content_hash("payloae"));
}

TEST(HashTest, CacheKeyIgnoresThreads) {
  const Design design = reference_design();
  PartitionerOptions a;
  PartitionerOptions b;
  b.search.threads = 8;
  // The thread count changes how the search runs, never what it returns,
  // so it must not fragment the cache.
  EXPECT_EQ(job_cache_key(design, "auto", a), job_cache_key(design, "auto", b));
}

TEST(HashTest, CacheKeySeparatesEffortTargetsAndDesigns) {
  const Design design = reference_design();
  PartitionerOptions base;
  PartitionerOptions more_sets = base;
  more_sets.search.max_candidate_sets += 1;
  PartitionerOptions more_evals = base;
  more_evals.search.max_move_evaluations += 1;

  const std::string k = job_cache_key(design, "auto", base);
  EXPECT_NE(k, job_cache_key(design, "auto", more_sets));
  EXPECT_NE(k, job_cache_key(design, "auto", more_evals));
  EXPECT_NE(k, job_cache_key(design, "device XC5VFX70T", base));
  EXPECT_NE(k, job_cache_key(design, "budget 100,10,10", base));
  EXPECT_NE(k, job_cache_key(synth::wireless_receiver_design(), "auto", base));
}

TEST(HashTest, PermutedDesignSharesTheCacheKey) {
  PartitionerOptions options;
  EXPECT_EQ(job_cache_key(reference_design(), "auto", options),
            job_cache_key(permuted_design(), "auto", options));
}

}  // namespace
}  // namespace prpart::server
