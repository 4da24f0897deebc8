#include "util/lock_order.hpp"

#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "util/thread_annotations.hpp"

namespace prpart {
namespace {

#if defined(__SANITIZE_THREAD__)
constexpr bool kUnderTsan = true;
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
constexpr bool kUnderTsan = true;
#else
constexpr bool kUnderTsan = false;
#endif
#else
constexpr bool kUnderTsan = false;
#endif

std::vector<std::string>& reports() {
  static std::vector<std::string> r;
  return r;
}

void record_report(const std::string& report) { reports().push_back(report); }

/// Forces validation on (release builds default it off) and swaps in a
/// recording handler so violations become assertions instead of aborts.
class LockOrderTest : public ::testing::Test {
 protected:
  void SetUp() override {
    was_enabled_ = lock_order::enabled();
    lock_order::set_enabled(true);
    previous_ = lock_order::set_violation_handler(&record_report);
    reports().clear();
  }

  void TearDown() override {
    lock_order::set_violation_handler(previous_);
    lock_order::set_enabled(was_enabled_);
    reports().clear();
  }

 private:
  bool was_enabled_ = false;
  lock_order::ViolationHandler previous_ = nullptr;
};

TEST_F(LockOrderTest, StrictlyIncreasingLevelsAreClean) {
  Mutex outer(lock_order::Level::kServerLifecycle, "test.lifecycle");
  Mutex middle(lock_order::Level::kServerQueue, "test.queue");
  Mutex leaf(lock_order::Level::kServerLog, "test.log");
  {
    const MutexLock a(outer);
    const MutexLock b(middle);
    const MutexLock c(leaf);
  }
  EXPECT_TRUE(reports().empty()) << reports().front();
}

// The validator-triggering tests below physically acquire std::mutexes in
// inverted order, which TSan's own deadlock detector (correctly) also
// reports — under TSan they are skipped and the validator's logic is
// covered by the API-level tests plus the other three CI legs.
#define PRPART_SKIP_IF_TSAN()                                              \
  do {                                                                     \
    if (kUnderTsan)                                                        \
      GTEST_SKIP() << "TSan's deadlock detector flags the deliberate "     \
                      "inversion first";                                   \
  } while (false)

TEST_F(LockOrderTest, StatsUnderQueueLockIsAnInversion) {
  PRPART_SKIP_IF_TSAN();
  // The regression shape behind the admit_job fix: ServerStats sits below
  // the scheduler's queue mutex, so folding a counter while holding the
  // queue lock must be flagged — this is exactly what the pre-fix
  // Server::admit_job did on every accepted and rejected job.
  Mutex queue(lock_order::Level::kServerQueue, "test.queue");
  Mutex stats(lock_order::Level::kServerStats, "test.stats");
  {
    const MutexLock q(queue);
    const MutexLock s(stats);
  }
  ASSERT_EQ(reports().size(), 1u);
  EXPECT_NE(reports()[0].find("test.stats"), std::string::npos) << reports()[0];
  EXPECT_NE(reports()[0].find("test.queue"), std::string::npos) << reports()[0];
  EXPECT_NE(reports()[0].find("this thread holds"), std::string::npos);
}

TEST_F(LockOrderTest, SameLevelNestingIsReported) {
  PRPART_SKIP_IF_TSAN();
  // Two locks of one level at once would deadlock against a thread taking
  // them in the opposite order; same-level nesting is therefore illegal.
  Mutex a(lock_order::Level::kSearchBoundHint, "test.hint-a");
  Mutex b(lock_order::Level::kSearchBoundHint, "test.hint-b");
  {
    const MutexLock la(a);
    const MutexLock lb(b);
  }
  ASSERT_EQ(reports().size(), 1u);
  EXPECT_NE(reports()[0].find("test.hint-a"), std::string::npos);
  EXPECT_NE(reports()[0].find("test.hint-b"), std::string::npos);
}

TEST_F(LockOrderTest, SequentialSameLevelIsClean) {
  // One lock of a level at a time is fine.
  Mutex a(lock_order::Level::kSearchBoundHint, "test.hint-a");
  Mutex b(lock_order::Level::kSearchBoundHint, "test.hint-b");
  {
    const MutexLock la(a);
  }
  {
    const MutexLock lb(b);
  }
  EXPECT_TRUE(reports().empty()) << reports().front();
}

TEST_F(LockOrderTest, RecursiveAcquisitionIsReported) {
  // Driven through the validator API directly: actually re-locking a
  // std::mutex would deadlock before the assertion ran.
  int tag = 0;
  lock_order::on_acquire(&tag, 80, "test.recursive");
  lock_order::on_acquire(&tag, 80, "test.recursive");
  EXPECT_EQ(reports().size(), 1u);
  EXPECT_NE(reports()[0].find("recursively"), std::string::npos);
  lock_order::on_release(&tag);
  lock_order::on_release(&tag);
}

TEST_F(LockOrderTest, ApiLevelInversionIsReported) {
  // Same check as StatsUnderQueueLockIsAnInversion but through the raw
  // validator API (no std::mutex is locked), so it runs under TSan too.
  int queue_tag = 0;
  int stats_tag = 0;
  lock_order::on_acquire(&queue_tag, 80, "test.queue");
  lock_order::on_acquire(&stats_tag, 30, "test.stats");
  ASSERT_EQ(reports().size(), 1u);
  EXPECT_NE(reports()[0].find("test.stats"), std::string::npos);
  lock_order::on_release(&stats_tag);
  lock_order::on_release(&queue_tag);
}

TEST_F(LockOrderTest, ReportShowsBothOrdersViaWitness) {
  PRPART_SKIP_IF_TSAN();
  // lockdep-style A->B / B->A: the second thread's report should cite the
  // first order from the witness table, not just the current stack.
  Mutex a(lock_order::Level::kServerStats, "test.a");
  Mutex b(lock_order::Level::kServerQueue, "test.b");
  {
    const MutexLock la(a);
    const MutexLock lb(b);  // legal: 30 -> 80, records witness for b
  }
  EXPECT_TRUE(reports().empty());
  {
    const MutexLock lb(b);
    const MutexLock la(a);  // inversion: 30 under 80
  }
  ASSERT_EQ(reports().size(), 1u);
  EXPECT_NE(reports()[0].find("test.b was previously acquired while holding"),
            std::string::npos)
      << reports()[0];
}

TEST_F(LockOrderTest, MidScopeUnlockRelockIsTracked) {
  // The logger's drop-the-lock-around-slow-work pattern: after unlock(),
  // lower-level work is legal again; relock re-checks the hierarchy.
  Mutex outer(lock_order::Level::kServerLifecycle, "test.lifecycle");
  Mutex inner(lock_order::Level::kServerStats, "test.stats");
  MutexLock lock(outer);
  lock.unlock();
  {
    const MutexLock stats(inner);
  }
  lock.lock();
  EXPECT_TRUE(reports().empty()) << reports().front();
}

TEST_F(LockOrderTest, DisabledValidatorIsSilent) {
  PRPART_SKIP_IF_TSAN();
  lock_order::set_enabled(false);
  Mutex queue(lock_order::Level::kServerQueue, "test.queue");
  Mutex stats(lock_order::Level::kServerStats, "test.stats");
  {
    const MutexLock q(queue);
    const MutexLock s(stats);
  }
  EXPECT_TRUE(reports().empty());
}

TEST_F(LockOrderTest, HeldDescriptionListsAcquisitionOrder) {
  Mutex outer(lock_order::Level::kServerLifecycle, "test.lifecycle");
  Mutex inner(lock_order::Level::kServerQueue, "test.queue");
  const MutexLock a(outer);
  const MutexLock b(inner);
  const std::string held = lock_order::held_description();
  const auto outer_at = held.find("test.lifecycle");
  const auto inner_at = held.find("test.queue");
  ASSERT_NE(outer_at, std::string::npos) << held;
  ASSERT_NE(inner_at, std::string::npos) << held;
  EXPECT_LT(outer_at, inner_at) << held;
}

TEST_F(LockOrderTest, ServePathLadderIsClean) {
  // The full reactor-mode descent: connection registry, admission queue,
  // stats, RAM cache, disk index, job queue, completion outbox. Every
  // cross-layer path in the serve stack is a sub-chain of this ladder.
  Mutex conns(lock_order::Level::kReactorConns, "test.reactor.conns");
  Mutex admission(lock_order::Level::kServerAdmission, "test.admission");
  Mutex stats(lock_order::Level::kServerStats, "test.stats");
  Mutex cache(lock_order::Level::kResultCache, "test.cache");
  Mutex disk(lock_order::Level::kDiskStoreIndex, "test.disk");
  Mutex queue(lock_order::Level::kServerQueue, "test.queue");
  Mutex outbox(lock_order::Level::kReactorOutbox, "test.outbox");
  {
    const MutexLock a(conns);
    const MutexLock b(admission);
    const MutexLock c(stats);
    const MutexLock d(cache);
    const MutexLock e(disk);
    const MutexLock f(queue);
    const MutexLock g(outbox);
  }
  EXPECT_TRUE(reports().empty()) << reports().front();
}

TEST_F(LockOrderTest, SpillFromCacheToDiskIsLegal) {
  // ResultCache evicts to the DiskStore sink while holding the cache
  // mutex; the disk index sits directly below it for exactly this nest.
  Mutex cache(lock_order::Level::kResultCache, "test.cache");
  Mutex disk(lock_order::Level::kDiskStoreIndex, "test.disk");
  {
    const MutexLock c(cache);
    const MutexLock d(disk);
  }
  EXPECT_TRUE(reports().empty()) << reports().front();
}

TEST_F(LockOrderTest, CacheUnderDiskIndexIsAnInversion) {
  // The reverse of the spill path — a disk-hit promoting into the RAM
  // cache must not run under the disk index lock. API-level so it also
  // runs under TSan.
  int disk_tag = 0;
  int cache_tag = 0;
  lock_order::on_acquire(&disk_tag, 42, "test.disk");
  lock_order::on_acquire(&cache_tag, 40, "test.cache");
  ASSERT_EQ(reports().size(), 1u);
  EXPECT_NE(reports()[0].find("test.cache"), std::string::npos) << reports()[0];
  lock_order::on_release(&cache_tag);
  lock_order::on_release(&disk_tag);
}

TEST_F(LockOrderTest, ConnRegistryUnderOutboxIsAnInversion) {
  // Reactor::drain_posts must swap the outbox out and *release* it before
  // touching the connection registry; holding both would invert 85 -> 22.
  int outbox_tag = 0;
  int conns_tag = 0;
  lock_order::on_acquire(&outbox_tag, 85, "test.outbox");
  lock_order::on_acquire(&conns_tag, 22, "test.reactor.conns");
  ASSERT_EQ(reports().size(), 1u);
  EXPECT_NE(reports()[0].find("test.reactor.conns"), std::string::npos)
      << reports()[0];
  lock_order::on_release(&conns_tag);
  lock_order::on_release(&outbox_tag);
}

TEST_F(LockOrderTest, RouterLocksAreSequentialNotNested) {
  // The router's client registry and per-connection write serialiser share
  // one level: a relay holds only the write mutex, the acceptor only the
  // registry. Sequential use is clean; nesting them is flagged.
  Mutex registry(lock_order::Level::kShardRouter, "test.router.clients");
  Mutex writer(lock_order::Level::kShardRouter, "test.router.write");
  {
    const MutexLock r(registry);
  }
  {
    const MutexLock w(writer);
  }
  EXPECT_TRUE(reports().empty()) << reports().front();
  int registry_tag = 0;
  int writer_tag = 0;
  lock_order::on_acquire(&registry_tag, 26, "test.router.clients");
  lock_order::on_acquire(&writer_tag, 26, "test.router.write");
  ASSERT_EQ(reports().size(), 1u);
  EXPECT_NE(reports()[0].find("test.router.write"), std::string::npos)
      << reports()[0];
  lock_order::on_release(&writer_tag);
  lock_order::on_release(&registry_tag);
}

TEST_F(LockOrderTest, AdmissionWalksFullLadderLegally) {
  // An admission worker pops a line (24), folds stats (30), probes the
  // store (40 spilling to 42) and finally queues the job (80) — each step
  // after dropping the previous lock, but the nested worst case must also
  // be legal because handle_request holds admission state nowhere lower.
  Mutex admission(lock_order::Level::kServerAdmission, "test.admission");
  Mutex queue(lock_order::Level::kServerQueue, "test.queue");
  {
    const MutexLock a(admission);
    const MutexLock q(queue);
  }
  EXPECT_TRUE(reports().empty()) << reports().front();
}

using LockOrderDeathTest = LockOrderTest;

TEST_F(LockOrderDeathTest, DefaultHandlerAborts) {
  if (kUnderTsan) GTEST_SKIP() << "death tests are unreliable under TSan";
  ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
  // Restore the aborting default inside the death-test child only.
  EXPECT_DEATH(
      {
        lock_order::set_violation_handler(nullptr);
        lock_order::set_enabled(true);
        Mutex queue(lock_order::Level::kServerQueue, "test.queue");
        Mutex stats(lock_order::Level::kServerStats, "test.stats");
        const MutexLock q(queue);
        const MutexLock s(stats);
      },
      "lock-order violation");
}

}  // namespace
}  // namespace prpart
