#include "util/cancel.hpp"

#include <gtest/gtest.h>

#include "core/partitioner.hpp"
#include "design/synthetic.hpp"
#include "synth/ip_library.hpp"

namespace prpart {
namespace {

TEST(CancelTest, DefaultTokenIsLive) {
  CancelToken token;
  EXPECT_FALSE(token.cancelled());
  EXPECT_NO_THROW(check_cancel(&token));
  EXPECT_NO_THROW(check_cancel(nullptr));
}

TEST(CancelTest, CancelFlagFires) {
  CancelToken token;
  token.cancel();
  EXPECT_TRUE(token.cancelled());
  EXPECT_THROW(check_cancel(&token), CancelledError);
}

TEST(CancelTest, PastDeadlineFires) {
  CancelToken token;
  token.set_deadline(monotonic_now_ns() - 1);
  EXPECT_TRUE(token.cancelled());
}

TEST(CancelTest, FutureDeadlineDoesNotFire) {
  CancelToken token;
  token.set_timeout_ms(60'000);
  EXPECT_FALSE(token.cancelled());
}

TEST(CancelTest, NonPositiveTimeoutDisarms) {
  CancelToken token;
  token.set_deadline(monotonic_now_ns() - 1);
  token.set_timeout_ms(0);
  EXPECT_FALSE(token.cancelled());
}

TEST(CancelTest, PreCancelledTokenAbortsSearch) {
  const Design design = synth::wireless_receiver_design();
  CancelToken token;
  token.cancel();
  PartitionerOptions options;
  options.search.max_move_evaluations = 500'000;
  options.search.cancel = &token;
  EXPECT_THROW(partition_design(design, {6800, 64, 150}, options),
               CancelledError);
}

TEST(CancelTest, NullTokenSearchCompletes) {
  const Design design = synth::wireless_receiver_design();
  PartitionerOptions options;
  options.search.max_move_evaluations = 300'000;
  const PartitionerResult r = partition_design(design, {6800, 64, 150}, options);
  EXPECT_TRUE(r.feasible);
}

TEST(CancelTest, MidSearchDeadlineAborts) {
  // A deeply adaptive design (8 modules x 4 modes, 300 configurations)
  // searched over up to 4000 candidate sets on one thread. Uncancelled, the
  // search takes ~3.5 s (Release build, 4-vCPU x86-64 VM) and its front end
  // alone ~0.3 s, so the 1 ms deadline has fired before the search can
  // finish on any host, whatever ran before it in the process.
  SyntheticOptions so;
  so.min_modules = so.max_modules = 8;
  so.min_modes = so.max_modes = 4;
  so.max_clbs = 400;
  so.min_configurations = 300;
  Rng rng(1);
  const Design design =
      generate_synthetic(rng, CircuitClass::Logic, so).design;
  CancelToken token;
  token.set_timeout_ms(1);
  PartitionerOptions options;
  options.search.max_candidate_sets = 4000;
  options.search.max_move_evaluations = 2'000'000'000;
  options.search.threads = 1;
  options.search.cancel = &token;
  EXPECT_THROW(partition_design(design, {30720, 456, 384}, options),
               CancelledError);
}

}  // namespace
}  // namespace prpart
