// Steady-state allocation contract (DESIGN.md §4e): a serve worker that
// keeps its WorkerPool and EvalScratch across jobs must reach a state where
// a whole job — pool fan-out, batched kernel evaluation, result reduction —
// performs ZERO heap allocations and spawns zero threads. The first job may
// allocate (it sizes every buffer); the second identical job may not.
//
// The check counts in a replaced global operator new, exactly like the
// warm-kernel bench (bench/algo_micro.cpp), so it observes every std::
// container allocation with no instrumentation in the code under test.
// Because of the replaced allocator this binary must stay OUT of the
// sanitizer CI legs (tsan/asan interpose their own allocators).

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <memory>
#include <new>
#include <vector>

#include "core/clustering.hpp"
#include "core/eval_kernel.hpp"
#include "core/partitioner.hpp"
#include "core/scheme.hpp"
#include "core/schemes.hpp"
#include "design/builder.hpp"
#include "design/synthetic.hpp"
#include "reconfig/controller.hpp"
#include "util/parallel_for.hpp"

static std::atomic<std::uint64_t> g_heap_allocations{0};

// GCC pairs new/delete expressions with the *default* operator new it can
// see through inlining and flags the std::free below as mismatched; with
// the whole global new/delete family replaced here the pairing is in fact
// consistent (new -> malloc, delete -> free).
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"

void* operator new(std::size_t size) {
  g_heap_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}

void* operator new(std::size_t size, std::align_val_t align) {
  g_heap_allocations.fetch_add(1, std::memory_order_relaxed);
  const std::size_t a = static_cast<std::size_t>(align);
  const std::size_t rounded = (size + a - 1) / a * a;
  if (void* p = std::aligned_alloc(a, rounded == 0 ? a : rounded)) return p;
  throw std::bad_alloc();
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}

#pragma GCC diagnostic pop

namespace prpart {
namespace {

// One shard = one design's work unit inside a job: a batch of schemes
// evaluated through the shard's own scratch. The server shape is one scratch
// per job worker; sharding by design here keeps pool bodies data-parallel
// while every buffer is still reused across jobs.
struct Shard {
  Design design;
  ConnectivityMatrix matrix;
  std::vector<BasePartition> partitions;
  EvalContext context;
  std::vector<PartitionScheme> schemes;
  std::vector<const PartitionScheme*> ptrs;
  std::vector<SchemeEvaluation> evals;
  EvalScratch scratch;
  std::uint64_t frames = 0;

  explicit Shard(Design d)
      : design(std::move(d)),
        matrix(design),
        partitions(enumerate_base_partitions(design, matrix)),
        context(design, matrix, partitions) {
    // Valid schemes only: the steady-state contract covers the serve hot
    // path, and the invalid path legitimately builds diagnosis strings.
    schemes.push_back(make_modular_scheme(design, matrix, partitions));
    schemes.push_back(make_static_scheme(design, matrix, partitions));
    for (const PartitionScheme& s : schemes) ptrs.push_back(&s);
    evals.resize(schemes.size());
  }
};

// Shards are pinned behind unique_ptr: EvalContext is neither copyable nor
// movable, and `ptrs` aliases `schemes`.
struct JobState {
  std::vector<std::unique_ptr<Shard>>* shards;
  const ResourceVec* budget;
};

// One serve-style job: fan the shards across the pool, batch-evaluate each
// shard's schemes, reduce into per-shard frame totals. The pool.run body
// captures a single reference so the std::function built at the call site
// stays inside its small-buffer storage (no allocation per job).
void run_job(WorkerPool& pool, JobState& st) {
  pool.run(st.shards->size(), [&st](std::size_t i) {
    Shard& sh = *(*st.shards)[i];
    sh.context.evaluate_batch_into(sh.ptrs.data(), sh.ptrs.size(), *st.budget,
                                   sh.scratch, sh.evals.data());
    std::uint64_t frames = 0;
    for (const SchemeEvaluation& e : sh.evals) frames += e.total_frames;
    sh.frames = frames;
  });
}

TEST(SteadyStateAlloc, SecondServeJobAllocatesNothingAndSpawnsNothing) {
  const auto suite = generate_synthetic_suite(/*seed=*/424242, /*count=*/6);
  const ResourceVec budget{30720, 456, 384};
  std::vector<std::unique_ptr<Shard>> shards;
  shards.reserve(suite.size());
  for (const SyntheticDesign& s : suite)
    shards.push_back(std::make_unique<Shard>(s.design));
  JobState st{&shards, &budget};

  WorkerPool pool(4);
  const std::uint64_t spawned = pool.threads_spawned();

  // Job 1 warms every buffer: scratch, evaluation outputs, pool machinery.
  run_job(pool, st);
  std::vector<std::uint64_t> job1_frames;
  for (const auto& sh : shards) job1_frames.push_back(sh->frames);

  // Job 2 is the steady state: identical work, zero heap traffic, zero
  // thread spawns.
  const std::uint64_t allocs_before =
      g_heap_allocations.load(std::memory_order_relaxed);
  run_job(pool, st);
  const std::uint64_t job2_allocs =
      g_heap_allocations.load(std::memory_order_relaxed) - allocs_before;

  EXPECT_EQ(job2_allocs, 0u)
      << "steady-state serve job hit the heap " << job2_allocs << " time(s)";
  EXPECT_EQ(pool.threads_spawned(), spawned);

  // The job really ran: results match job 1 and are non-trivial.
  ASSERT_EQ(job1_frames.size(), shards.size());
  std::uint64_t total = 0;
  for (std::size_t i = 0; i < shards.size(); ++i) {
    EXPECT_EQ(shards[i]->frames, job1_frames[i]) << "shard " << i;
    total += shards[i]->frames;
  }
  EXPECT_GT(total, 0u);
}

TEST(SteadyStateAlloc, WarmSingleEvaluationAllocatesNothing) {
  // The single-call form of the same contract (the search inner loop):
  // after one sizing call, evaluate_into is allocation-free with reused
  // scratch and output.
  const auto suite = generate_synthetic_suite(/*seed=*/31, /*count=*/1);
  ASSERT_FALSE(suite.empty());
  Shard shard(suite.front().design);
  const ResourceVec budget{30720, 456, 384};
  SchemeEvaluation eval;
  shard.context.evaluate_into(shard.schemes.front(), budget, shard.scratch,
                              eval);  // size once
  const std::uint64_t before =
      g_heap_allocations.load(std::memory_order_relaxed);
  for (int k = 0; k < 16; ++k)
    shard.context.evaluate_into(shard.schemes.front(), budget, shard.scratch,
                                eval);
  EXPECT_EQ(g_heap_allocations.load(std::memory_order_relaxed) - before, 0u);
}

TEST(SteadyStateAlloc, RepeatedControllerWalkAllocatesNothing) {
  // The served prefetch replay's per-step contract: transition() reuses its
  // event buffer and the prefetcher its precomputed tables, so once a walk
  // has sized the buffer, replaying the same walk never touches the heap.
  // Module A's two modes share one region that configuration c2 leaves
  // idle, so the prefetcher has a window to fill.
  const Design design =
      DesignBuilder("idle-window")
          .module("A", {{"A1", {200, 0, 0}}, {"A2", {300, 0, 0}}})
          .module("B", {{"B1", {100, 0, 0}}})
          .configuration({{"A", "A1"}, {"B", "B1"}})
          .configuration({{"A", "A2"}, {"B", "B1"}})
          .configuration({{"B", "B1"}})
          .build();
  const PartitionerResult result = partition_design(design, {450, 4, 4});
  ASSERT_TRUE(result.feasible);
  const std::size_t n = design.configurations().size();
  const MarkovChain env = MarkovChain::uniform(n);
  std::vector<std::size_t> walk;
  Rng rng(5);
  std::size_t state = 0;
  for (int i = 0; i < 500; ++i) {
    state = env.sample_next(rng, state);
    walk.push_back(state);
  }

  ReconfigurationController ctl(design, result.proposed.eval, {},
                                PrefetchPolicy{env});
  const auto replay = [&] {
    ctl.boot(0);
    std::uint64_t frames = 0;
    for (const std::size_t next : walk)
      for (const ReconfigEvent& ev : ctl.transition(next)) frames += ev.frames;
    return frames;
  };
  const std::uint64_t first = replay();  // sizes the event buffer
  const std::uint64_t before =
      g_heap_allocations.load(std::memory_order_relaxed);
  const std::uint64_t second = replay();
  EXPECT_EQ(g_heap_allocations.load(std::memory_order_relaxed) - before, 0u);
  EXPECT_EQ(second, first);
  EXPECT_GT(ctl.stats().prefetched_frames, 0u);
}

}  // namespace
}  // namespace prpart
