#include "benchlib/pipeline.hpp"

#include <gtest/gtest.h>

#include "util/status.hpp"

namespace prpart {
namespace {

std::vector<StageSpec> chain(std::initializer_list<std::uint32_t> rates,
                             std::size_t fifo = 4) {
  std::vector<StageSpec> stages;
  int i = 0;
  for (std::uint32_t r : rates)
    stages.push_back({"s" + std::to_string(i++), r, fifo});
  return stages;
}

TEST(Pipeline, SingleFastStageKeepsUp) {
  StreamingPipeline p(chain({1}), 1);
  p.run(1000);
  EXPECT_EQ(p.stats().dropped, 0u);
  // Latency-offset steady state: delivered within a couple of items of
  // arrivals.
  EXPECT_GE(p.stats().delivered + 3, p.stats().arrived);
}

TEST(Pipeline, ThroughputBoundedByBottleneck) {
  // Middle stage needs 3 cycles/item while items arrive every cycle: the
  // chain delivers ~1/3 of arrivals and drops the rest.
  StreamingPipeline p(chain({1, 3, 1}), 1);
  p.run(30000);
  const double rate = static_cast<double>(p.stats().delivered) /
                      static_cast<double>(p.stats().cycles);
  EXPECT_NEAR(rate, 1.0 / 3, 0.01);
  EXPECT_GT(p.stats().dropped, 0u);
  EXPECT_DOUBLE_EQ(p.throughput_bound(), 1.0 / 3);
}

TEST(Pipeline, MatchedRatesLoseNothing) {
  // Arrivals every 3 cycles through a 3-cycle bottleneck: sustainable.
  StreamingPipeline p(chain({1, 3, 2}), 3);
  p.run(30000);
  EXPECT_EQ(p.stats().dropped, 0u);
}

TEST(Pipeline, ConservationOfItems) {
  StreamingPipeline p(chain({2, 1, 3}), 2);
  p.run(5000);
  std::uint64_t in_flight = 0;
  for (std::size_t s = 0; s < p.stages(); ++s) in_flight += p.occupancy(s);
  // accepted = delivered + buffered (+ up to one busy item per stage).
  EXPECT_GE(p.stats().accepted, p.stats().delivered + in_flight);
  EXPECT_LE(p.stats().accepted,
            p.stats().delivered + in_flight + p.stages());
  EXPECT_EQ(p.stats().arrived, p.stats().accepted + p.stats().dropped);
}

TEST(Pipeline, OfflineStageStallsAndFifosBuffer) {
  StreamingPipeline p(chain({1, 1}, /*fifo=*/8), 1);
  p.run(100);
  const std::uint64_t delivered_before = p.stats().delivered;
  p.set_offline(1, true);
  p.run(6);  // shorter than the FIFO depth: absorbed
  p.set_offline(1, false);
  p.run(200);
  EXPECT_EQ(p.stats().dropped, 0u);  // the FIFO hid the outage
  EXPECT_GT(p.stats().delivered, delivered_before);
}

TEST(Pipeline, LongOutageOverflowsFifoAndDrops) {
  StreamingPipeline p(chain({1, 1}, /*fifo=*/8), 1);
  p.run(100);
  p.set_offline(0, true);
  p.run(50);  // much longer than the head FIFO
  EXPECT_GT(p.stats().dropped, 30u);
  p.set_offline(0, false);
  const std::uint64_t dropped = p.stats().dropped;
  p.run(200);
  // Recovery: at most the one arrival racing the first dequeue is lost.
  EXPECT_LE(p.stats().dropped, dropped + 1);
}

TEST(Pipeline, OfflineStagePreservesState) {
  StreamingPipeline p(chain({1, 2, 1}), 2);
  p.run(57);
  p.set_offline(1, true);
  const std::size_t held = p.occupancy(1);
  p.run(1);  // upstream may add one more item to the offline stage's FIFO
  EXPECT_GE(p.occupancy(1), held);
  EXPECT_TRUE(p.offline(1));
  p.set_offline(1, false);
  EXPECT_FALSE(p.offline(1));
}

TEST(Pipeline, Validation) {
  EXPECT_THROW(StreamingPipeline({}, 1), InternalError);
  EXPECT_THROW(StreamingPipeline(chain({1}), 0), InternalError);
  EXPECT_THROW(StreamingPipeline({{"x", 0, 4}}, 1), InternalError);
  EXPECT_THROW(StreamingPipeline({{"x", 1, 0}}, 1), InternalError);
  StreamingPipeline p(chain({1}), 1);
  EXPECT_THROW(p.set_offline(5, true), InternalError);
  EXPECT_THROW(p.occupancy(5), InternalError);
}

TEST(Pipeline, DeepChainPipelinesOneItemPerCycle) {
  StreamingPipeline p(chain({1, 1, 1, 1, 1, 1, 1, 1}), 1);
  p.run(10000);
  const double rate = static_cast<double>(p.stats().delivered) /
                      static_cast<double>(p.stats().cycles);
  EXPECT_NEAR(rate, 1.0, 0.01);
}

}  // namespace
}  // namespace prpart
