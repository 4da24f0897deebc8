#include "util/bitset.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <unordered_set>

#include "util/rng.hpp"
#include "util/status.hpp"

namespace prpart {
namespace {

TEST(DynBitset, StartsEmpty) {
  DynBitset b(100);
  EXPECT_EQ(b.size(), 100u);
  EXPECT_EQ(b.count(), 0u);
  EXPECT_TRUE(b.none());
  EXPECT_FALSE(b.any());
}

TEST(DynBitset, SetResetTest) {
  DynBitset b(70);
  b.set(0);
  b.set(63);
  b.set(64);
  b.set(69);
  EXPECT_TRUE(b.test(0));
  EXPECT_TRUE(b.test(63));
  EXPECT_TRUE(b.test(64));
  EXPECT_TRUE(b.test(69));
  EXPECT_FALSE(b.test(1));
  EXPECT_EQ(b.count(), 4u);
  b.reset(63);
  EXPECT_FALSE(b.test(63));
  EXPECT_EQ(b.count(), 3u);
}

TEST(DynBitset, OutOfRangeThrows) {
  DynBitset b(10);
  EXPECT_THROW(b.set(10), InternalError);
  EXPECT_THROW(b.test(11), InternalError);
  EXPECT_THROW(b.reset(100), InternalError);
}

TEST(DynBitset, SizeMismatchThrows) {
  DynBitset a(10);
  DynBitset b(11);
  EXPECT_THROW(a.intersects(b), InternalError);
  EXPECT_THROW(a.is_subset_of(b), InternalError);
  EXPECT_THROW(a |= b, InternalError);
}

TEST(DynBitset, Intersects) {
  DynBitset a(130);
  DynBitset b(130);
  a.set(5);
  a.set(128);
  b.set(6);
  EXPECT_FALSE(a.intersects(b));
  b.set(128);
  EXPECT_TRUE(a.intersects(b));
  EXPECT_TRUE(b.intersects(a));
}

TEST(DynBitset, SubsetRelation) {
  DynBitset a(80);
  DynBitset b(80);
  a.set(1);
  a.set(70);
  b.set(1);
  b.set(70);
  b.set(3);
  EXPECT_TRUE(a.is_subset_of(b));
  EXPECT_FALSE(b.is_subset_of(a));
  EXPECT_TRUE(a.is_subset_of(a));
  DynBitset empty(80);
  EXPECT_TRUE(empty.is_subset_of(a));
}

TEST(DynBitset, UnionIntersection) {
  DynBitset a(66);
  DynBitset b(66);
  a.set(0);
  a.set(65);
  b.set(1);
  b.set(65);
  const DynBitset u = a | b;
  EXPECT_EQ(u.count(), 3u);
  const DynBitset i = a & b;
  EXPECT_EQ(i.count(), 1u);
  EXPECT_TRUE(i.test(65));
}

TEST(DynBitset, Subtract) {
  DynBitset a(66);
  DynBitset b(66);
  a.set(0);
  a.set(5);
  a.set(65);
  b.set(5);
  b.set(65);
  a.subtract(b);
  EXPECT_EQ(a.count(), 1u);
  EXPECT_TRUE(a.test(0));
}

TEST(DynBitset, BitsAreSortedAndComplete) {
  DynBitset b(200);
  const std::vector<std::size_t> expected = {0, 1, 63, 64, 127, 128, 199};
  for (std::size_t i : expected) b.set(i);
  EXPECT_EQ(b.bits(), expected);
}

TEST(DynBitset, EqualityAndOrdering) {
  DynBitset a(10);
  DynBitset b(10);
  EXPECT_EQ(a, b);
  a.set(3);
  EXPECT_NE(a, b);
  EXPECT_TRUE(b < a || a < b);
}

TEST(DynBitset, HashDistinguishesTypicalSets) {
  std::unordered_set<std::size_t> hashes;
  Rng rng(7);
  for (int i = 0; i < 500; ++i) {
    DynBitset b(64);
    for (int k = 0; k < 8; ++k) b.set(rng.below(64));
    hashes.insert(b.hash());
  }
  // Collisions are possible but should be rare for 500 random sets.
  EXPECT_GT(hashes.size(), 450u);
}

TEST(DynBitset, ToString) {
  DynBitset b(10);
  b.set(1);
  b.set(4);
  b.set(7);
  EXPECT_EQ(b.to_string(), "{1,4,7}");
  EXPECT_EQ(DynBitset(5).to_string(), "{}");
}

TEST(DynBitset, ZeroSizeIsValid) {
  DynBitset b(0);
  EXPECT_EQ(b.count(), 0u);
  EXPECT_TRUE(b.none());
}

TEST(DynBitset, ForEachSetBitMatchesBits) {
  // Multi-word set with bits on word boundaries (63, 64) and in the
  // partially-used trailing word (150 of size 151).
  DynBitset b(151);
  for (std::size_t i : {0u, 1u, 62u, 63u, 64u, 65u, 127u, 128u, 150u}) b.set(i);
  std::vector<std::size_t> seen;
  b.for_each_set_bit([&](std::size_t i) { seen.push_back(i); });
  EXPECT_EQ(seen, b.bits());
  EXPECT_EQ(seen.size(), b.count());
}

TEST(DynBitset, ForEachSetBitOnEmptyAndDense) {
  DynBitset empty(200);
  std::size_t calls = 0;
  empty.for_each_set_bit([&](std::size_t) { ++calls; });
  EXPECT_EQ(calls, 0u);

  DynBitset dense(130);
  for (std::size_t i = 0; i < 130; ++i) dense.set(i);
  std::size_t next = 0;
  dense.for_each_set_bit([&](std::size_t i) { EXPECT_EQ(i, next++); });
  EXPECT_EQ(next, 130u);
}

TEST(DynBitset, WordViewHasZeroTrailingBits) {
  DynBitset b(70);  // two words, 6 used bits in the trailing word
  b.set(69);
  b.set(3);
  ASSERT_EQ(b.word_count(), 2u);
  EXPECT_EQ(b.word(0), std::uint64_t{1} << 3);
  EXPECT_EQ(b.word(1), std::uint64_t{1} << 5);
  b.reset(69);
  EXPECT_EQ(b.word(1), 0u);
}

TEST(DynBitset, ClearAllAndFindFirst) {
  DynBitset b(130);
  EXPECT_EQ(b.find_first(), 130u);
  b.set(128);
  EXPECT_EQ(b.find_first(), 128u);
  b.set(64);
  EXPECT_EQ(b.find_first(), 64u);
  b.clear_all();
  EXPECT_TRUE(b.none());
  EXPECT_EQ(b.find_first(), 130u);
}

TEST(DynBitset, OrAndAccumulatesOverlap) {
  DynBitset claimed(100);
  DynBitset conflicts(100);
  DynBitset first(100);
  DynBitset second(100);
  first.set(3);
  first.set(70);
  second.set(70);
  second.set(90);
  conflicts.or_and(claimed, first);
  claimed |= first;
  EXPECT_TRUE(conflicts.none());
  conflicts.or_and(claimed, second);
  claimed |= second;
  EXPECT_EQ(conflicts.bits(), (std::vector<std::size_t>{70}));
}

TEST(DynBitset, OrAndnotAccumulatesDifference) {
  DynBitset acc(100);
  DynBitset need(100);
  DynBitset have(100);
  need.set(2);
  need.set(65);
  need.set(99);
  have.set(65);
  acc.or_andnot(need, have);
  EXPECT_EQ(acc.bits(), (std::vector<std::size_t>{2, 99}));
}

// --- Masked-tail invariant (bitset.hpp word-view contract) -----------------
// Every mutator keeps the unused bits of the trailing word zero, so word
// consumers — count(), the evaluation kernel's word loops —
// may scan whole words without masking. These tests pin the invariant for
// each mutator over sizes that exercise an empty, partial and full tail.

namespace {
// Sum of word popcounts: equals count() only when the tail bits are zero.
std::uint64_t raw_word_popcount(const DynBitset& b) {
  std::uint64_t total = 0;
  for (std::size_t w = 0; w < b.word_count(); ++w)
    total += static_cast<std::uint64_t>(std::popcount(b.word(w)));
  return total;
}

std::uint64_t tail_garbage(const DynBitset& b) {
  if (b.size() % 64 == 0 || b.word_count() == 0) return 0;
  const std::uint64_t used_mask =
      (std::uint64_t{1} << (b.size() % 64)) - 1;
  return b.word(b.word_count() - 1) & ~used_mask;
}
}  // namespace

TEST(BitsetTest, TailWordStaysZeroThroughMutators) {
  for (const std::size_t nbits : {1u, 63u, 64u, 65u, 127u, 128u, 130u}) {
    DynBitset a(nbits);
    DynBitset b(nbits);
    for (std::size_t i = 0; i < nbits; i += 3) a.set(i);
    for (std::size_t i = 1; i < nbits; i += 2) b.set(i);
    EXPECT_EQ(tail_garbage(a), 0u) << nbits;
    a |= b;
    EXPECT_EQ(tail_garbage(a), 0u) << "|= at " << nbits;
    a &= b;
    EXPECT_EQ(tail_garbage(a), 0u) << "&= at " << nbits;
    DynBitset acc(nbits);
    acc.or_and(a, b);
    EXPECT_EQ(tail_garbage(acc), 0u) << "or_and at " << nbits;
    acc.or_andnot(a, b);
    EXPECT_EQ(tail_garbage(acc), 0u) << "or_andnot at " << nbits;
    acc.clear_all();
    EXPECT_EQ(tail_garbage(acc), 0u) << "clear_all at " << nbits;
    if (nbits > 1) {
      a.set(nbits - 1);
      a.reset(nbits - 1);
      EXPECT_EQ(tail_garbage(a), 0u) << "set/reset at " << nbits;
    }
  }
}

TEST(BitsetTest, TailWordCountMatchesWordPopcounts) {
  // count() folds raw words; with a clean tail the two totals agree for
  // any mutation sequence on an awkward (non-multiple-of-64) size.
  DynBitset b(97);
  for (std::size_t i = 0; i < 97; i += 5) b.set(i);
  DynBitset m(97);
  for (std::size_t i = 0; i < 97; i += 7) m.set(i);
  b |= m;
  EXPECT_EQ(b.count(), raw_word_popcount(b));
  b &= m;
  EXPECT_EQ(b.count(), raw_word_popcount(b));
  b.set(96);
  b.reset(0);
  EXPECT_EQ(b.count(), raw_word_popcount(b));
}

}  // namespace
}  // namespace prpart
