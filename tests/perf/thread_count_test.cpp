// The one thread-count rule of the fan-outs (util/parallel_for.hpp,
// resolve_thread_count): 0 means default_thread_count(), 1 runs inline, a
// search builds one pool for both of its fan-out phases, and nothing built
// inside a fan-out body spawns a thread.
//
// Thread creation is counted by interposing pthread_create, so the checks
// see every std::thread the code under test starts without any hook in
// it. Sanitizers intercept pthread_create themselves, so like the
// replaced allocator of steady_state_alloc_test.cpp this binary stays OUT
// of the sanitizer CI legs.

#include <dlfcn.h>
#include <pthread.h>

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <vector>

#include "core/clustering.hpp"
#include "core/covering.hpp"
#include "core/partitioner.hpp"
#include "core/search.hpp"
#include "design/synthetic.hpp"
#include "reconfig/markov.hpp"
#include "sim/simulator.hpp"
#include "sim/trace.hpp"
#include "util/parallel_for.hpp"
#include "util/rng.hpp"

namespace {

std::atomic<std::uint64_t> g_threads_created{0};
std::atomic<std::uint64_t> g_threads_created_in_body{0};
/// Set by the tests while the calling thread runs a fan-out body.
thread_local bool t_in_body = false;

using PthreadCreate = int (*)(pthread_t*, const pthread_attr_t*,
                              void* (*)(void*), void*);

}  // namespace

extern "C" int pthread_create(pthread_t* thread, const pthread_attr_t* attr,
                              void* (*start)(void*), void* arg) {
  static const auto real =
      reinterpret_cast<PthreadCreate>(dlsym(RTLD_NEXT, "pthread_create"));
  g_threads_created.fetch_add(1, std::memory_order_relaxed);
  if (t_in_body)
    g_threads_created_in_body.fetch_add(1, std::memory_order_relaxed);
  return real(thread, attr, start, arg);
}

namespace prpart {
namespace {

std::uint64_t threads_created() {
  return g_threads_created.load(std::memory_order_relaxed);
}

struct SearchHarness {
  Design design;
  ConnectivityMatrix matrix;
  std::vector<BasePartition> partitions;
  CompatibilityTable compat;
  std::vector<CandidateSet> sets;
  ResourceVec budget{30720, 456, 384};

  explicit SearchHarness(Design d)
      : design(std::move(d)),
        matrix(design),
        partitions(enumerate_base_partitions(design, matrix)),
        compat(matrix, partitions),
        sets(candidate_sets(partitions, matrix,
                            SearchOptions{}.max_candidate_sets)) {}

  SearchResult run(unsigned threads) const {
    SearchOptions opt;
    opt.threads = threads;
    return search_partitioning(design, matrix, partitions, compat, sets,
                               budget, opt);
  }
};

TEST(ThreadCountRule, ProbeSeesThreadCreation) {
  // Guards the interposer itself: without it every "spawns nothing" check
  // below would pass vacuously.
  const std::uint64_t before = threads_created();
  WorkerPool pool(3);
  EXPECT_EQ(threads_created() - before, 2u);
}

TEST(ThreadCountRule, SimulateSchemesZeroUsesDefaultThreadCount) {
  const unsigned default_threads = default_thread_count();
  if (default_threads == 1)
    GTEST_SKIP() << "default_thread_count() is 1: nothing to fan out";
  const Design design = generate_synthetic_suite(/*seed=*/77, 1)[0].design;
  const PartitionerResult result = partition_design(design, {30720, 456, 384});
  std::vector<sim::SchemeRef> refs;
  for (int copy = 0; copy < 4; ++copy) {
    refs.push_back({&result.proposed.scheme, &result.proposed.eval});
    refs.push_back({&result.single_region.scheme, &result.single_region.eval});
  }
  const MarkovChain chain = MarkovChain::uniform(design.configurations().size());
  Rng rng(9);
  const sim::TransitionTrace trace = sim::markov_trace(chain, rng, 200);

  const std::uint64_t before = threads_created();
  const auto fanned = sim::simulate_schemes(design, refs, trace, {}, 0);
  // 0 resolves to default_thread_count(): a pool of that many participants
  // (at most one per scheme), the caller and the rest spawned.
  EXPECT_EQ(threads_created() - before,
            std::min<std::size_t>(default_threads, refs.size()) - 1);

  const std::uint64_t inline_before = threads_created();
  const auto inline_run = sim::simulate_schemes(design, refs, trace, {}, 1);
  EXPECT_EQ(threads_created() - inline_before, 0u);
  ASSERT_EQ(fanned.size(), inline_run.size());
  for (std::size_t i = 0; i < fanned.size(); ++i)
    EXPECT_EQ(fanned[i].frames_loaded, inline_run[i].frames_loaded) << i;
}

TEST(ThreadCountRule, SearchBuildsOnePoolForBothPhases) {
  const SearchHarness h(generate_synthetic_suite(/*seed=*/91, 1)[0].design);
  ASSERT_GT(h.sets.size(), 1u);
  const std::uint64_t before = threads_created();
  const SearchResult four = h.run(4);
  const std::uint64_t spawned = threads_created() - before;
  // One pool of min(4, candidate sets) participants for the bound phase and
  // the unit phase together, not a fresh set of threads per phase.
  EXPECT_EQ(spawned, std::min<std::size_t>(4, h.sets.size()) - 1);
  EXPECT_EQ(four.stats.move_evaluations, h.run(1).stats.move_evaluations);
}

TEST(ThreadCountRule, SearchInsideParallelForBodySpawnsNoThread) {
  const SearchHarness h(generate_synthetic_suite(/*seed=*/91, 1)[0].design);
  ASSERT_GT(h.sets.size(), 1u);
  const SearchResult reference = h.run(1);
  // At top level the same search fans out (so the probe below can see it).
  const std::uint64_t before = threads_created();
  (void)h.run(4);
  ASSERT_GT(threads_created() - before, 0u);

  std::vector<SearchResult> nested(4);
  g_threads_created_in_body.store(0, std::memory_order_relaxed);
  parallel_for(nested.size(), 4, [&](std::size_t i) {
    t_in_body = true;
    nested[i] = h.run(4);
    t_in_body = false;
  });
  EXPECT_EQ(g_threads_created_in_body.load(std::memory_order_relaxed), 0u);
  for (const SearchResult& r : nested) {
    EXPECT_EQ(r.eval.total_frames, reference.eval.total_frames);
    EXPECT_EQ(r.stats.move_evaluations, reference.stats.move_evaluations);
  }
}

}  // namespace
}  // namespace prpart
