#include "sim/trace.hpp"

#include <gtest/gtest.h>

#include <set>
#include <utility>

#include "server/protocol.hpp"
#include "util/rng.hpp"
#include "util/status.hpp"

namespace prpart::sim {
namespace {

using analysis::Severity;

// ---------------------------------------------------------------------------
// uniform_pair_trace: the Eulerian all-pairs circuit behind Eq. 10.

TEST(UniformPairTrace, CoversEveryOrderedPairExactlyOnce) {
  for (std::size_t n = 2; n <= 6; ++n) {
    const TransitionTrace trace = uniform_pair_trace(n);
    ASSERT_EQ(trace.configs.size(), n * (n - 1) + 1) << "n=" << n;
    std::set<std::pair<std::uint32_t, std::uint32_t>> seen;
    for (std::size_t k = 1; k < trace.configs.size(); ++k) {
      const auto from = trace.configs[k - 1];
      const auto to = trace.configs[k];
      ASSERT_LT(from, n);
      ASSERT_LT(to, n);
      ASSERT_NE(from, to) << "self-transition at step " << k;
      ASSERT_TRUE(seen.insert({from, to}).second)
          << "pair (" << from << "," << to << ") repeated, n=" << n;
    }
    // n(n-1) distinct ordered pairs = all of them.
    EXPECT_EQ(seen.size(), n * (n - 1));
    // A circuit returns to its start.
    EXPECT_EQ(trace.configs.front(), trace.configs.back());
  }
}

TEST(UniformPairTrace, IsDeterministic) {
  EXPECT_EQ(uniform_pair_trace(5).configs, uniform_pair_trace(5).configs);
}

TEST(UniformPairTrace, RejectsDegenerateStateCounts) {
  EXPECT_THROW(uniform_pair_trace(0), Error);
  EXPECT_THROW(uniform_pair_trace(1), Error);
}

// ---------------------------------------------------------------------------
// markov_trace: seeded sampling from the environment chain.

TEST(MarkovTrace, SameSeedReplaysSameWorkload) {
  const MarkovChain chain = MarkovChain::uniform(4);
  Rng a(42), b(42), c(43);
  const TransitionTrace ta = markov_trace(chain, a, 500);
  const TransitionTrace tb = markov_trace(chain, b, 500);
  const TransitionTrace tc = markov_trace(chain, c, 500);
  EXPECT_EQ(ta.configs, tb.configs);
  EXPECT_NE(ta.configs, tc.configs);
}

TEST(MarkovTrace, HasRequestedShape) {
  const MarkovChain chain = MarkovChain::uniform(3);
  Rng rng(7);
  const TransitionTrace trace = markov_trace(chain, rng, 200, 2);
  EXPECT_EQ(trace.transitions(), 200u);
  EXPECT_EQ(trace.configs.size(), 201u);
  EXPECT_EQ(trace.configs.front(), 2u);
  // The library chains exclude self-transitions: every step reconfigures.
  for (std::size_t k = 1; k < trace.configs.size(); ++k)
    EXPECT_NE(trace.configs[k - 1], trace.configs[k]) << "step " << k;
}

TEST(MarkovTrace, SimulateSetupTracesArePinned) {
  // FNV-1a over the trace entries of simulate_setup (the server's and
  // `prpart simulate`'s trace), pinned from the subtraction-loop sampler
  // before threshold sampling replaced it. They cover tabulated rows
  // (C = 5 to 64), a chain too large to tabulate for its draws (300) and
  // the two-state ping-pong.
  struct Pin {
    std::size_t configs;
    std::uint64_t seed, steps, hash;
  };
  for (const Pin& pin : {Pin{5, 1, 20000, 0x958901634c2ad54bull},
                         Pin{5, 424242, 20000, 0xc72213ab86b49897ull},
                         Pin{17, 7, 20000, 0x9b52c209306cdb7bull},
                         Pin{40, 1, 20000, 0x8433ed8425673004ull},
                         Pin{64, 3, 100000, 0x2b9a875ac4bf6cfbull},
                         Pin{300, 5, 20000, 0x2b3e6483e46cc46cull},
                         Pin{2, 9, 1000, 0xd944635ab874ee2full}}) {
    server::SimulateParams params;
    params.seed = pin.seed;
    params.steps = pin.steps;
    const server::SimulateSetup setup =
        server::simulate_setup(pin.configs, params);
    ASSERT_EQ(setup.trace.transitions(), pin.steps);
    std::uint64_t hash = 14695981039346656037ull;
    for (const std::uint32_t c : setup.trace.configs) {
      hash ^= c;
      hash *= 1099511628211ull;
    }
    EXPECT_EQ(hash, pin.hash) << "C " << pin.configs << " seed " << pin.seed;
  }
}

TEST(MarkovTrace, EqualsTheSubtractionLoopDrawForDraw) {
  // Whether or not the sampler tabulates, the trace is chain.sample_next's.
  Rng chain_rng(8);
  for (const std::size_t n : {3u, 20u, 45u, 200u}) {
    const MarkovChain chain = MarkovChain::random(chain_rng, n);
    for (const std::uint64_t steps : {50ull, 60'000ull}) {
      Rng a(n + steps), b(n + steps);
      const TransitionTrace trace = markov_trace(chain, a, steps, 1);
      std::size_t state = 1;
      ASSERT_EQ(trace.configs.front(), 1u);
      for (std::uint64_t k = 1; k <= steps; ++k) {
        state = chain.sample_next(b, state);
        ASSERT_EQ(trace.configs[k], state) << "n " << n << " step " << k;
      }
    }
  }
}

TEST(MarkovTrace, RejectsOutOfRangeStart) {
  const MarkovChain chain = MarkovChain::uniform(3);
  Rng rng(1);
  EXPECT_THROW(markov_trace(chain, rng, 10, 3), Error);
}

// ---------------------------------------------------------------------------
// parse_trace: typed diagnostics with exact source spans, one fixture per
// code (docs/diagnostics.md catalogues them).

TEST(ParseTrace, AcceptsCommentsAndWhitespace) {
  const TraceParse p = parse_trace("# boot\n0 1\t2\n 3 # trailing\n0\n", 4);
  ASSERT_TRUE(p.ok());
  EXPECT_TRUE(p.diagnostics.empty());
  EXPECT_EQ(p.trace.configs,
            (std::vector<std::uint32_t>{0, 1, 2, 3, 0}));
  EXPECT_EQ(p.trace.transitions(), 4u);
}

TEST(ParseTrace, BadTokenCarriesExactSpan) {
  const TraceParse p = parse_trace("0\n1\n  bogus\n2\n", 4);
  EXPECT_FALSE(p.ok());
  ASSERT_EQ(p.diagnostics.size(), 1u);
  const analysis::Diagnostic& d = p.diagnostics[0];
  EXPECT_EQ(d.code, "trace-bad-token");
  EXPECT_EQ(d.severity, Severity::Error);
  EXPECT_EQ(d.span.line, 3u);
  EXPECT_EQ(d.span.column, 3u);
  EXPECT_NE(d.message.find("bogus"), std::string::npos);
  EXPECT_FALSE(d.fixit.empty());
}

TEST(ParseTrace, OverlongNumberIsABadTokenNotUb) {
  // 20 digits would overflow the 64-bit accumulator; the reader rejects the
  // token before multiplying.
  const TraceParse p = parse_trace("0 99999999999999999999 1", 4);
  EXPECT_FALSE(p.ok());
  ASSERT_EQ(p.diagnostics.size(), 1u);
  EXPECT_EQ(p.diagnostics[0].code, "trace-bad-token");
}

TEST(ParseTrace, OutOfRangeIdCarriesExactSpan) {
  const TraceParse p = parse_trace("0 1 7\n", 4);
  EXPECT_FALSE(p.ok());
  ASSERT_EQ(p.diagnostics.size(), 1u);
  const analysis::Diagnostic& d = p.diagnostics[0];
  EXPECT_EQ(d.code, "trace-config-out-of-range");
  EXPECT_EQ(d.severity, Severity::Error);
  EXPECT_EQ(d.span.line, 1u);
  EXPECT_EQ(d.span.column, 5u);
  EXPECT_NE(d.fixit.find("[0, 4)"), std::string::npos);
}

TEST(ParseTrace, EmptyInputIsAnError) {
  for (const char* text : {"", "   \n\t\n", "# only comments\n# here\n"}) {
    const TraceParse p = parse_trace(text, 4);
    EXPECT_FALSE(p.ok()) << "text='" << text << "'";
    ASSERT_EQ(p.diagnostics.size(), 1u);
    EXPECT_EQ(p.diagnostics[0].code, "trace-empty");
    EXPECT_EQ(p.diagnostics[0].span.line, 0u);  // no position to point at
  }
}

TEST(ParseTrace, SelfTransitionWarnsButParses) {
  const TraceParse p = parse_trace("0\n1\n1\n2\n", 4);
  EXPECT_TRUE(p.ok());  // warnings do not reject the trace
  ASSERT_EQ(p.diagnostics.size(), 1u);
  const analysis::Diagnostic& d = p.diagnostics[0];
  EXPECT_EQ(d.code, "trace-self-transition");
  EXPECT_EQ(d.severity, Severity::Warning);
  EXPECT_EQ(d.span.line, 3u);
  EXPECT_EQ(p.trace.configs, (std::vector<std::uint32_t>{0, 1, 1, 2}));
}

TEST(ParseTrace, KeepsWellFormedEntriesAroundErrors) {
  // The reader recovers after each bad token so one run reports them all.
  const TraceParse p = parse_trace("0 x 1 9 2\n", 3);
  EXPECT_FALSE(p.ok());
  EXPECT_EQ(p.diagnostics.size(), 2u);
  EXPECT_EQ(p.trace.configs, (std::vector<std::uint32_t>{0, 1, 2}));
}

}  // namespace
}  // namespace prpart::sim
