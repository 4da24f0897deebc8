#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace prpart {

/// Fixed-capacity dynamic bitset sized at construction time.
///
/// Used throughout the partitioner to represent sets of modes (columns of
/// the connectivity matrix). Capacity is decided once per design, so all
/// sets in one partitioning run share the same word count, which keeps the
/// set algebra branch-free.
class DynBitset {
 public:
  DynBitset() = default;
  explicit DynBitset(std::size_t nbits);

  std::size_t size() const { return nbits_; }

  // The single-bit accessors and the pairwise-disjointness test are the
  // partitioner's hottest operations (the greedy move scan runs millions
  // per search), so they live in the header; the failure paths stay
  // out-of-line to keep the inlined code small.
  void set(std::size_t i) {
    check_index(i);
    words_[i / 64] |= std::uint64_t{1} << (i % 64);
  }
  void reset(std::size_t i) {
    check_index(i);
    words_[i / 64] &= ~(std::uint64_t{1} << (i % 64));
  }
  bool test(std::size_t i) const {
    check_index(i);
    return (words_[i / 64] >> (i % 64)) & 1u;
  }

  /// Number of set bits. Header-inline: the kernel's Eq. 10 pass popcounts
  /// one activity row per region member per evaluation.
  std::size_t count() const {
    std::size_t n = 0;
    for (std::uint64_t w : words_)
      n += static_cast<std::size_t>(std::popcount(w));
    return n;
  }
  bool any() const {
    for (std::uint64_t w : words_)
      if (w != 0) return true;
    return false;
  }
  bool none() const { return !any(); }

  /// True when this and `other` share at least one set bit. Header-inline
  /// like the bit accessors: the greedy scan's compatibility checks and the
  /// evaluation kernel's activity tests call this tens of millions of times
  /// per search.
  bool intersects(const DynBitset& other) const {
    if (nbits_ != other.nbits_) throw_size_mismatch("intersects");
    for (std::size_t i = 0; i < words_.size(); ++i)
      if (words_[i] & other.words_[i]) return true;
    return false;
  }
  /// True when every set bit of this is also set in `other`.
  bool is_subset_of(const DynBitset& other) const {
    if (nbits_ != other.nbits_) throw_size_mismatch("is_subset_of");
    for (std::size_t i = 0; i < words_.size(); ++i)
      if (words_[i] & ~other.words_[i]) return false;
    return true;
  }

  DynBitset& operator|=(const DynBitset& other) {
    if (nbits_ != other.nbits_) throw_size_mismatch("operator|=");
    for (std::size_t i = 0; i < words_.size(); ++i)
      words_[i] |= other.words_[i];
    return *this;
  }
  DynBitset& operator&=(const DynBitset& other) {
    if (nbits_ != other.nbits_) throw_size_mismatch("operator&=");
    for (std::size_t i = 0; i < words_.size(); ++i)
      words_[i] &= other.words_[i];
    return *this;
  }
  /// Clears every bit that is set in `other`.
  DynBitset& subtract(const DynBitset& other) {
    if (nbits_ != other.nbits_) throw_size_mismatch("subtract");
    for (std::size_t i = 0; i < words_.size(); ++i)
      words_[i] &= ~other.words_[i];
    return *this;
  }

  friend DynBitset operator|(DynBitset a, const DynBitset& b) { return a |= b; }
  friend DynBitset operator&(DynBitset a, const DynBitset& b) { return a &= b; }

  bool operator==(const DynBitset& other) const;
  bool operator!=(const DynBitset& other) const { return !(*this == other); }
  /// Lexicographic order on the underlying words; any strict weak order
  /// works for use as a map key.
  bool operator<(const DynBitset& other) const;

  /// Indices of set bits in increasing order.
  std::vector<std::size_t> bits() const;

  // Word view: the packed 64-bit words backing the set, for kernels that
  // combine several bitsets word-by-word (activity matrices, compatibility
  // rows). Bits past size() are guaranteed zero, so consumers can popcount
  // and scan whole words without masking the trailing word. The masked-tail
  // invariant is load-bearing for every consumer that reads and combines
  // word_count() whole words regardless of size() % 64 — every mutator in
  // this class preserves it (pinned by BitsetTest.TailWord* in
  // tests/util/bitset_test.cpp):
  //   * set/reset check the index, so no tail bit is ever addressed;
  //   * |=, &=, subtract, or_and, or_andnot combine same-capacity operands
  //     whose tails are zero, and OR/AND/ANDNOT of zeros stays zero;
  //   * clear_all and the constructor zero whole words.
  std::size_t word_count() const { return words_.size(); }
  std::uint64_t word(std::size_t w) const { return words_[w]; }

  /// Calls `fn(index)` for every set bit in increasing order. The word-wise
  /// scan (countr_zero + clear-lowest) touches each word once, so iterating
  /// a sparse set costs O(words + set bits) with no heap allocation —
  /// unlike bits(), which materialises a vector.
  template <typename Fn>
  void for_each_set_bit(Fn&& fn) const {
    for (std::size_t w = 0; w < words_.size(); ++w) {
      std::uint64_t word = words_[w];
      while (word != 0) {
        const auto bit = static_cast<std::size_t>(std::countr_zero(word));
        fn(w * 64 + bit);
        word &= word - 1;
      }
    }
  }

  /// Clears every bit without changing the capacity. Unlike assigning a
  /// fresh DynBitset, this never touches the allocator.
  void clear_all() {
    for (auto& w : words_) w = 0;
  }

  /// this |= (a & b), word-parallel. The kernel's conflict detector: with
  /// `a` the bits already claimed and `b` a new member's bits, the result
  /// accumulates exactly the positions claimed twice.
  DynBitset& or_and(const DynBitset& a, const DynBitset& b) {
    for (std::size_t w = 0; w < words_.size(); ++w)
      words_[w] |= a.words_[w] & b.words_[w];
    return *this;
  }

  /// this |= (a & ~b), word-parallel: accumulates the bits of `a` missing
  /// from `b` (the uncovered configurations in the coverage check).
  DynBitset& or_andnot(const DynBitset& a, const DynBitset& b) {
    for (std::size_t w = 0; w < words_.size(); ++w)
      words_[w] |= a.words_[w] & ~b.words_[w];
    return *this;
  }

  /// Index of the lowest set bit, or size() when empty.
  std::size_t find_first() const {
    for (std::size_t w = 0; w < words_.size(); ++w)
      if (words_[w] != 0)
        return w * 64 + static_cast<std::size_t>(std::countr_zero(words_[w]));
    return nbits_;
  }

  /// FNV-1a hash of the words, for unordered containers and memo tables.
  std::size_t hash() const;

  /// "{1,4,7}"-style rendering, mainly for diagnostics and tests.
  std::string to_string() const;

 private:
  void check_index(std::size_t i) const {
    if (i >= nbits_) throw_index_out_of_range(i);
  }
  [[noreturn]] void throw_index_out_of_range(std::size_t i) const;
  [[noreturn]] void throw_size_mismatch(const char* op) const;

  std::size_t nbits_ = 0;
  std::vector<std::uint64_t> words_;
};

struct DynBitsetHash {
  std::size_t operator()(const DynBitset& b) const { return b.hash(); }
};

}  // namespace prpart
