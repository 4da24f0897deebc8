#include "util/parallel_for.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <numeric>
#include <stdexcept>
#include <thread>
#include <vector>

namespace prpart {
namespace {

TEST(ParallelFor, ExecutesEveryIndexExactlyOnce) {
  for (unsigned threads : {1u, 2u, 4u, 8u}) {
    std::vector<std::atomic<int>> hits(100);
    for (auto& h : hits) h = 0;
    parallel_for(100, threads, [&](std::size_t i) { ++hits[i]; });
    for (std::size_t i = 0; i < hits.size(); ++i)
      EXPECT_EQ(hits[i].load(), 1) << "index " << i << " threads " << threads;
  }
}

TEST(ParallelFor, ResultsIndependentOfThreadCount) {
  auto compute = [](unsigned threads) {
    std::vector<std::uint64_t> out(200);
    parallel_for(out.size(), threads, [&](std::size_t i) {
      std::uint64_t v = i + 1;
      for (int k = 0; k < 50; ++k) v = v * 6364136223846793005ull + 1;
      out[i] = v;
    });
    return out;
  };
  const auto serial = compute(1);
  EXPECT_EQ(compute(2), serial);
  EXPECT_EQ(compute(7), serial);
}

TEST(ParallelFor, ZeroCountIsNoop) {
  bool ran = false;
  parallel_for(0, 4, [&](std::size_t) { ran = true; });
  EXPECT_FALSE(ran);
}

TEST(ParallelFor, SingleThreadRunsInline) {
  const auto caller = std::this_thread::get_id();
  std::vector<std::thread::id> ids(5);
  parallel_for(ids.size(), 1,
               [&](std::size_t i) { ids[i] = std::this_thread::get_id(); });
  for (const auto& id : ids) EXPECT_EQ(id, caller);
}

TEST(ParallelFor, PropagatesFirstException) {
  EXPECT_THROW(
      parallel_for(50, 4,
                   [&](std::size_t i) {
                     if (i == 13) throw std::runtime_error("boom");
                   }),
      std::runtime_error);
}

TEST(ParallelFor, ExceptionStopsFurtherWork) {
  std::atomic<int> executed{0};
  try {
    parallel_for(1000000, 2, [&](std::size_t i) {
      ++executed;
      if (i == 0) throw std::runtime_error("early");
    });
    FAIL() << "expected exception";
  } catch (const std::runtime_error&) {
  }
  // Workers bail out quickly; far fewer than all iterations ran.
  EXPECT_LT(executed.load(), 1000000);
}

TEST(ParallelFor, NestedCallsRunInlineOnWorkers) {
  // A parallel_for issued from inside a worker body must not spawn another
  // layer of threads: the inner loop runs inline on the worker, every index
  // still executes exactly once, and inside_parallel_for() reports the
  // nesting to the inner call.
  std::vector<std::atomic<int>> inner_hits(64);
  for (auto& h : inner_hits) h = 0;
  std::atomic<int> nested_inline{0};
  parallel_for(8, 4, [&](std::size_t outer) {
    EXPECT_TRUE(inside_parallel_for());
    const auto worker = std::this_thread::get_id();
    parallel_for(8, 4, [&](std::size_t inner) {
      if (std::this_thread::get_id() == worker) ++nested_inline;
      ++inner_hits[outer * 8 + inner];
    });
  });
  for (std::size_t i = 0; i < inner_hits.size(); ++i)
    EXPECT_EQ(inner_hits[i].load(), 1) << "index " << i;
  // Every nested iteration stayed on its outer worker thread.
  EXPECT_EQ(nested_inline.load(), 64);
  // Outside any parallel_for the guard reads false again.
  EXPECT_FALSE(inside_parallel_for());
}

TEST(ParallelFor, DefaultThreadCountRespectsEnv) {
  setenv("PRPART_TEST_THREADS", "3", 1);
  EXPECT_EQ(default_thread_count("PRPART_TEST_THREADS"), 3u);
  setenv("PRPART_TEST_THREADS", "0", 1);
  EXPECT_EQ(default_thread_count("PRPART_TEST_THREADS"), 1u);
  unsetenv("PRPART_TEST_THREADS");
  EXPECT_GE(default_thread_count("PRPART_TEST_THREADS"), 1u);
}

// --- WorkerPool (persistent threads, §4e) ----------------------------------

TEST(WorkerPool, ExecutesEveryIndexExactlyOnce) {
  for (unsigned threads : {1u, 2u, 4u, 8u}) {
    WorkerPool pool(threads);
    std::vector<std::atomic<int>> hits(100);
    for (auto& h : hits) h = 0;
    pool.run(100, [&](std::size_t i) { ++hits[i]; });
    for (std::size_t i = 0; i < hits.size(); ++i)
      EXPECT_EQ(hits[i].load(), 1) << "index " << i << " threads " << threads;
  }
}

TEST(WorkerPool, ReusesThreadsAcrossRuns) {
  // The steady-state contract: back-to-back runs never spawn a thread, and
  // every run still executes each index exactly once.
  WorkerPool pool(4);
  const std::uint64_t spawned = pool.threads_spawned();
  EXPECT_EQ(spawned, 3u);  // the caller is the fourth worker
  for (int round = 0; round < 20; ++round) {
    std::vector<std::atomic<int>> hits(37);
    for (auto& h : hits) h = 0;
    pool.run(hits.size(), [&](std::size_t i) { ++hits[i]; });
    for (std::size_t i = 0; i < hits.size(); ++i)
      EXPECT_EQ(hits[i].load(), 1) << "round " << round << " index " << i;
    EXPECT_EQ(pool.threads_spawned(), spawned) << "round " << round;
  }
}

TEST(WorkerPool, ResultsMatchParallelFor) {
  auto fill = [](std::vector<std::uint64_t>& out, std::size_t i) {
    std::uint64_t v = i + 1;
    for (int k = 0; k < 50; ++k) v = v * 6364136223846793005ull + 1;
    out[i] = v;
  };
  std::vector<std::uint64_t> serial(200);
  parallel_for(serial.size(), 1, [&](std::size_t i) { fill(serial, i); });
  WorkerPool pool(5);
  std::vector<std::uint64_t> pooled(200);
  pool.run(pooled.size(), [&](std::size_t i) { fill(pooled, i); });
  EXPECT_EQ(pooled, serial);
}

TEST(WorkerPool, PropagatesFirstExceptionAndStaysUsable) {
  WorkerPool pool(4);
  EXPECT_THROW(pool.run(50,
                        [&](std::size_t i) {
                          if (i == 13) throw std::runtime_error("boom");
                        }),
               std::runtime_error);
  // A failed run drains cleanly: the next run works and hits every index.
  std::vector<std::atomic<int>> hits(50);
  for (auto& h : hits) h = 0;
  pool.run(hits.size(), [&](std::size_t i) { ++hits[i]; });
  for (std::size_t i = 0; i < hits.size(); ++i)
    EXPECT_EQ(hits[i].load(), 1) << "index " << i;
}

TEST(WorkerPool, NestedRunsExecuteInline) {
  // A run() (or parallel_for) issued from inside a pool body must run
  // inline on that worker.
  WorkerPool pool(4);
  std::vector<std::atomic<int>> inner_hits(64);
  for (auto& h : inner_hits) h = 0;
  std::atomic<int> nested_inline{0};
  pool.run(8, [&](std::size_t outer) {
    EXPECT_TRUE(inside_parallel_for());
    const auto worker = std::this_thread::get_id();
    pool.run(8, [&](std::size_t inner) {
      if (std::this_thread::get_id() == worker) ++nested_inline;
      ++inner_hits[outer * 8 + inner];
    });
  });
  for (std::size_t i = 0; i < inner_hits.size(); ++i)
    EXPECT_EQ(inner_hits[i].load(), 1) << "index " << i;
  EXPECT_EQ(nested_inline.load(), 64);
  EXPECT_FALSE(inside_parallel_for());
}

TEST(WorkerPool, SingleThreadPoolRunsInline) {
  WorkerPool pool(1);
  EXPECT_EQ(pool.threads_spawned(), 0u);
  const auto caller = std::this_thread::get_id();
  std::vector<std::thread::id> ids(5);
  pool.run(ids.size(),
           [&](std::size_t i) { ids[i] = std::this_thread::get_id(); });
  for (const auto& id : ids) EXPECT_EQ(id, caller);
}

TEST(WorkerPool, ZeroThreadsMeansDefaultThreadCount) {
  const WorkerPool pool(0);
  EXPECT_EQ(pool.thread_count(), default_thread_count());
  EXPECT_EQ(pool.threads_spawned(), default_thread_count() - 1u);
  EXPECT_EQ(resolve_thread_count(0), default_thread_count());
  EXPECT_EQ(resolve_thread_count(5), 5u);
}

TEST(WorkerPool, PoolBuiltInsideABodySpawnsNothing) {
  // The composition rule for pools: a search (or any fan-out) that builds
  // its own pool inside another fan-out's body runs inline instead of
  // multiplying the thread count.
  std::vector<std::uint64_t> spawned(8, 1);
  std::vector<std::atomic<int>> inner_hits(64);
  for (auto& h : inner_hits) h = 0;
  parallel_for(8, 4, [&](std::size_t outer) {
    WorkerPool inner(4);
    spawned[outer] = inner.threads_spawned();
    inner.run(8, [&](std::size_t i) { ++inner_hits[outer * 8 + i]; });
  });
  for (std::size_t i = 0; i < spawned.size(); ++i)
    EXPECT_EQ(spawned[i], 0u) << "outer index " << i;
  for (std::size_t i = 0; i < inner_hits.size(); ++i)
    EXPECT_EQ(inner_hits[i].load(), 1) << "index " << i;
}

}  // namespace
}  // namespace prpart
