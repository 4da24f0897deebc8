#include "core/search.hpp"

#include <algorithm>
#include <atomic>
#include <bit>
#include <optional>
#include <utility>

#include "core/covering.hpp"
#include "core/eval_kernel.hpp"
#include "core/search_internal.hpp"
#include "util/parallel_for.hpp"
#include "util/status.hpp"
#include "util/thread_annotations.hpp"

namespace prpart {

namespace {

using namespace search_internal;  // NOLINT(google-build-using-namespace)

/// One independent greedy descent: a candidate set's initial state,
/// optionally forced through a distinct first move (§IV-C's restarts).
struct Unit {
  std::size_t set = 0;
  std::optional<Move> first;
};

struct UnitOutcome {
  std::vector<Kept> kept;          ///< unit-local leaderboard
  std::uint64_t evals = 0;         ///< move evaluations consumed
  std::uint64_t cap = 0;           ///< evaluation cap the unit ran with
  bool truncated = false;          ///< stopped because evals reached cap
  bool ran = false;
  bool pruned_speculative = false; ///< skipped on the shared bound hint
  std::size_t greedy_runs = 0;
  std::uint64_t states_recorded = 0;
  std::uint64_t full_evaluations = 0;  ///< merge costs computed from scratch
  std::uint64_t moves_rescored = 0;    ///< served by the move table
};

/// Shared *hint* of the worst kept leaderboard objective, fed by finished
/// units and read (relaxed) by workers to skip units whose completion lower
/// bound cannot enter the board. Purely speculative: the canonical merge
/// re-decides every prune from the deterministic board, replaying units the
/// hint skipped wrongly, so thread interleaving never leaks into results.
class BoundHint {
 public:
  explicit BoundHint(std::size_t keep) : keep_(keep) {}

  /// Worst kept objective once the board is full; UINT64_MAX (prunes
  /// nothing) before that.
  std::uint64_t worst() const { return worst_.load(std::memory_order_relaxed); }

  void offer(const std::vector<Kept>& entries) {
    if (entries.empty()) return;
    const MutexLock lock(mutex_);
    for (const Kept& e : entries)
      insert_kept(kept_, e, keep_);
    if (kept_.size() >= keep_)
      worst_.store(kept_.back().ttotal, std::memory_order_relaxed);
  }

 private:
  const std::size_t keep_;
  Mutex mutex_{lock_order::Level::kSearchBoundHint, "search.bound_hint"};
  std::vector<Kept> kept_ PRPART_GUARDED_BY(mutex_);
  std::atomic<std::uint64_t> worst_{~std::uint64_t{0}};
};

/// Runs the units of one candidate set on one worker. The set's state is
/// copied once; each unit's moves are applied in place and unwound through
/// the undo records afterwards, and merge costs are re-used across the
/// set's restarts through a version-stamped move table (the restarts share
/// the initial state, so step-one move scores differ only around the forced
/// first move). Entirely thread-confined apart from the shared read-only
/// inputs.
class ChunkRunner {
 public:
  ChunkRunner(const Design& design, const ResourceVec& budget,
              const SearchOptions& options, const State& initial)
      : design_(design), budget_(budget), options_(options), s_(initial) {
    const std::size_t n = s_.groups.size();
    versions_.resize(n);
    for (std::size_t i = 0; i < n; ++i) versions_[i] = i + 1;
    version_counter_ = n;
    alive_list_.reserve(n);
    alive_mask_ = DynBitset(n);
    for (std::size_t i = 0; i < n; ++i)
      if (s_.groups[i].alive) {
        alive_list_.push_back(i);
        alive_mask_.set(i);
      }
    // Undo storage is pooled up front (each move retires one group, so a
    // unit applies at most n): run_unit's apply/undo cycles then reuse the
    // records' member buffers instead of allocating per move.
    undo_stack_.resize(n);
    // The table is quadratic in the candidate-set size; past a few hundred
    // groups its footprint outweighs the rescoring win, so fall back to
    // fresh evaluation (results are identical either way).
    if (options_.use_move_table && n <= kMaxTableGroups) {
      table_.resize(n * n);
      // Pairwise-compatibility rows: bit j of compat_[i] says the groups'
      // occupancies are disjoint, so the greedy scan can reject an
      // incompatible pair on one bit test instead of a table probe. Kept
      // symmetric, and maintained under apply()/unwind() like the stamps.
      compat_.assign(n, DynBitset(n));
      for (std::size_t i = 0; i < n; ++i) {
        for (std::size_t j = i + 1; j < n; ++j) {
          if (s_.groups[i].occ.intersects(s_.groups[j].occ)) continue;
          compat_[i].set(j);
          compat_[j].set(i);
        }
      }
      // One saved row per possible merge depth; same-size assignments into
      // the pool reuse the rows' word storage.
      row_undo_.assign(n, DynBitset(n));
    }
  }

  UnitOutcome run_unit(const Unit& unit, std::uint64_t cap) {
    out_ = UnitOutcome{};
    out_.cap = cap;
    out_.ran = true;
    if (unit.first) {
      apply(*unit.first);
      record();
    }
    greedy();
    unwind();
    return std::move(out_);
  }

 private:
  /// Merge-cost memo entry, valid while both groups' version stamps match
  /// (stamps change only when a merge rewrites group `a`; undo restores
  /// them, so entries survive across the restarts of the set). Only
  /// compatible merges are entered — the compat_ rows filter the rest
  /// before the table is consulted.
  struct MergeEntry {
    std::uint64_t va = 0, vb = 0;  ///< 0 never matches a live version
    GroupCost cost;
  };

  static constexpr std::size_t kMaxTableGroups = 128;

  Objective objective(std::uint64_t excess, std::uint64_t ttotal,
                      std::uint64_t warea) const {
    if (excess > 0) return {excess, warea, ttotal};
    return {0, ttotal, warea};
  }

  Objective state_objective() const {
    const ResourceVec total = s_.total_res(design_.static_base());
    return objective(budget_excess(total, budget_), s_.ttotal,
                     weighted_area(total));
  }

  /// Charges one greedy scan to the budget before it runs: every alive
  /// pair is one merge consideration and every alive group one promotion
  /// (the budget unit is a considered move, compatible or not). When the
  /// scan would reach the cap, the unit ends there with evals == cap and
  /// applies nothing, exactly as counting the considerations one by one
  /// would end it: a scan cut short never applies its best move. Returns
  /// false then.
  bool charge_scan() {
    const std::uint64_t alive = s_.alive;
    const std::uint64_t length =
        alive * (alive - 1) / 2 +
        (options_.allow_static_promotion ? alive : 0);
    if (length >= out_.cap - out_.evals) {
      out_.evals = out_.cap;
      out_.truncated = true;
      return false;
    }
    out_.evals += length;
    return true;
  }

  Objective merge_objective(const Group& ga, const Group& gb,
                            const GroupCost& cost) const {
    const std::uint64_t contrib =
        (cost.tw_union - ga.tw_same - gb.tw_same) * cost.frames;
    // scan_base_ is pr_res + static base + static_extra, hoisted out of the
    // greedy scan (it is invariant across one scan's evaluations; unsigned
    // addition reassociates exactly). Subtract the two old footprints (kept
    // as additions to avoid unsigned underflow juggling: compute the new
    // total directly).
    ResourceVec total = scan_base_ + cost.tiles.resources();
    total.clbs -= ga.tiles.resources().clbs + gb.tiles.resources().clbs;
    total.brams -= ga.tiles.resources().brams + gb.tiles.resources().brams;
    total.dsps -= ga.tiles.resources().dsps + gb.tiles.resources().dsps;
    const std::uint64_t ttotal = s_.ttotal - ga.contrib - gb.contrib + contrib;
    return objective(budget_excess(total, budget_), ttotal,
                     weighted_area(total));
  }

  /// Scan-invariant aggregates of the left-hand group `i`, hoisted out of
  /// the inner partner loop of greedy's table path: the objective of merging
  /// (i, j) only needs these scalars of `ga` plus `gb`'s own fields, so the
  /// per-partner work shrinks to one table probe and a handful of adds.
  /// Unsigned +/- reassociate exactly, so the scores are bit-identical to
  /// merge_objective's.
  struct RowCtx {
    ResourceVec res_base;       ///< scan_base_ - ga footprint
    std::uint64_t tt_base = 0;  ///< s_.ttotal - ga.contrib
    std::uint64_t tw_same = 0;  ///< ga.tw_same
    std::uint64_t version = 0;  ///< versions_[i]
    MergeEntry* row = nullptr;  ///< &table_[i * n]
  };

  RowCtx row_ctx(std::size_t i) {
    const Group& ga = s_.groups[i];
    const ResourceVec ga_res = ga.tiles.resources();
    RowCtx ctx;
    ctx.res_base = scan_base_;
    ctx.res_base.clbs -= ga_res.clbs;
    ctx.res_base.brams -= ga_res.brams;
    ctx.res_base.dsps -= ga_res.dsps;
    ctx.tt_base = s_.ttotal - ga.contrib;
    ctx.tw_same = ga.tw_same;
    ctx.version = versions_[i];
    ctx.row = &table_[i * s_.groups.size()];
    return ctx;
  }

  /// The table path's merge score, with the row context hoisted;
  /// compatibility was already established by the word scan. Serves the
  /// merge cost from the move table when both version stamps still match.
  Objective evaluate_merge_row(const RowCtx& ctx, std::size_t i,
                               std::size_t j) {
    const Group& gb = s_.groups[j];
    MergeEntry& entry = ctx.row[j];
    if (entry.va != ctx.version || entry.vb != versions_[j]) {
      ++out_.full_evaluations;
      entry.cost = merged_group_cost(s_.groups[i], gb, options_.pair_weights);
      entry.va = ctx.version;
      entry.vb = versions_[j];
    } else {
      ++out_.moves_rescored;
    }
    const GroupCost& cost = entry.cost;
    const std::uint64_t contrib =
        (cost.tw_union - ctx.tw_same - gb.tw_same) * cost.frames;
    ResourceVec total = ctx.res_base + cost.tiles.resources();
    const ResourceVec gb_res = gb.tiles.resources();
    total.clbs -= gb_res.clbs;
    total.brams -= gb_res.brams;
    total.dsps -= gb_res.dsps;
    const std::uint64_t ttotal = ctx.tt_base - gb.contrib + contrib;
    return objective(budget_excess(total, budget_), ttotal,
                     weighted_area(total));
  }

  /// The table-less path's merge score: nullopt for incompatible pairs,
  /// otherwise the merge cost computed from scratch.
  std::optional<Objective> evaluate_merge(std::size_t i, std::size_t j) {
    const Group& ga = s_.groups[i];
    const Group& gb = s_.groups[j];
    if (ga.occ.intersects(gb.occ)) return std::nullopt;
    ++out_.full_evaluations;
    return merge_objective(ga, gb,
                           merged_group_cost(ga, gb, options_.pair_weights));
  }

  /// Metrics of promoting group i into the static region: the whole
  /// group's mode set becomes permanently present. Already O(1) from the
  /// group's incremental fields — no table needed.
  Objective evaluate_promote(std::size_t i) {
    const Group& ga = s_.groups[i];
    ResourceVec total = scan_base_ + ga.promote_area;
    total.clbs -= ga.tiles.resources().clbs;
    total.brams -= ga.tiles.resources().brams;
    total.dsps -= ga.tiles.resources().dsps;
    const std::uint64_t ttotal = s_.ttotal - ga.contrib;
    return objective(budget_excess(total, budget_), ttotal,
                     weighted_area(total));
  }

  /// Removes / reinserts an index of the sorted alive list (and mask).
  void alive_erase(std::size_t g) {
    alive_list_.erase(
        std::lower_bound(alive_list_.begin(), alive_list_.end(), g));
    alive_mask_.reset(g);
  }
  void alive_insert(std::size_t g) {
    alive_list_.insert(
        std::lower_bound(alive_list_.begin(), alive_list_.end(), g), g);
    alive_mask_.set(g);
  }

  /// Calls fn(k) for every bit k set in `before` but not in `after` (the
  /// partners a compatibility row lost; rows only ever shrink by a merge).
  template <typename Fn>
  static void for_each_lost(const DynBitset& before, const DynBitset& after,
                            Fn&& fn) {
    for (std::size_t w = 0; w < before.word_count(); ++w) {
      std::uint64_t lost = before.word(w) & ~after.word(w);
      while (lost != 0) {
        fn(w * 64 + static_cast<std::size_t>(std::countr_zero(lost)));
        lost &= lost - 1;
      }
    }
  }

  void apply(const Move& move) {
    GroupCost cost;
    if (move.kind == Move::Kind::Merge) {
      // The scan that chose this move just scored it, so with the table on
      // its entry is almost always still valid — reuse it instead of
      // recomputing the merge.
      const MergeEntry* entry =
          table_.empty() ? nullptr
                         : &table_[move.a * s_.groups.size() + move.b];
      if (entry != nullptr && entry->va == versions_[move.a] &&
          entry->vb == versions_[move.b])
        cost = entry->cost;
      else
        cost = merged_group_cost(s_.groups[move.a], s_.groups[move.b],
                                 options_.pair_weights);
    }
    UndoRecord& undo = undo_stack_[undo_depth_++];
    apply_move_into(s_, move, &cost, undo);
    undo.prior_version = versions_[move.a];
    alive_erase(move.kind == Move::Kind::Merge ? move.b : move.a);
    if (move.kind == Move::Kind::Merge) {
      versions_[move.a] = ++version_counter_;
      if (!compat_.empty()) {
        // Group a absorbed b's occupancy: a is now compatible with exactly
        // the groups both were compatible with. Row a only shrinks, so
        // keeping the rows symmetric means clearing bit a in the rows of
        // the partners it lost, and no others.
        DynBitset& saved = row_undo_[undo_depth_ - 1];
        saved = compat_[move.a];
        compat_[move.a] &= compat_[move.b];
        for_each_lost(saved, compat_[move.a],
                      [&](std::size_t k) { compat_[k].reset(move.a); });
      }
    }
  }

  /// Reverses every move this unit applied, restoring the set's initial
  /// state (and the groups' version stamps and compatibility rows,
  /// revalidating table entries for the next restart).
  void unwind() {
    while (undo_depth_ > 0) {
      UndoRecord& undo = undo_stack_[--undo_depth_];
      versions_[undo.move.a] = undo.prior_version;
      alive_insert(undo.move.kind == Move::Kind::Merge ? undo.move.b
                                                       : undo.move.a);
      if (undo.move.kind == Move::Kind::Merge && !compat_.empty()) {
        const DynBitset& saved = row_undo_[undo_depth_];
        for_each_lost(saved, compat_[undo.move.a],
                      [&](std::size_t k) { compat_[k].set(undo.move.a); });
        compat_[undo.move.a] = saved;
      }
      undo_move(s_, undo);
    }
  }

  /// Records the state when it fits and enters the unit's leaderboard.
  void record() {
    const ResourceVec total = s_.total_res(design_.static_base());
    if (!total.fits_in(budget_)) return;
    ++out_.states_recorded;
    const std::uint64_t warea = weighted_area(total);
    const std::size_t keep =
        std::max<std::size_t>(1, options_.keep_alternatives);
    if (out_.kept.size() >= keep) {
      const Kept& worst = out_.kept.back();
      // Strictly worse than the current worst: cannot enter. Objective ties
      // fall through to the canonical-key comparison in insert_kept.
      if (s_.ttotal > worst.ttotal ||
          (s_.ttotal == worst.ttotal && warea > worst.warea))
        return;
    }
    Kept entry;
    entry.ttotal = s_.ttotal;
    entry.warea = warea;
    entry.key = state_key(s_);
    insert_kept(out_.kept, std::move(entry), keep);
  }

  /// Greedy descent: repeatedly apply the objective-minimising move while it
  /// strictly improves; records every visited state. Evaluation order is
  /// the canonical (i, j)-merges-then-promote enumeration of moves_of().
  void greedy() {
    ++out_.greedy_runs;
    record();
    while (s_.alive > 0) {
      check_cancel(options_.cancel);
      if (!charge_scan()) return;
      std::optional<Move> best_move;
      scan_base_ = s_.pr_res + design_.static_base() + s_.static_extra;
      Objective best_obj = state_objective();
      if (!compat_.empty()) {
        // Table path: scan the words of (compat row & alive mask) so only
        // compatible alive partners are visited, in the canonical ascending
        // (i, j) order; the incompatible ones were charged with the scan.
        for (const std::size_t i : alive_list_) {
          const DynBitset& row = compat_[i];
          const RowCtx ctx = row_ctx(i);
          const std::size_t start = i + 1;
          for (std::size_t w = start / 64; w < alive_mask_.word_count(); ++w) {
            std::uint64_t comp_w = alive_mask_.word(w) & row.word(w);
            if (w == start / 64) comp_w &= ~std::uint64_t{0} << (start % 64);
            while (comp_w != 0) {
              const std::size_t j =
                  w * 64 + static_cast<std::size_t>(std::countr_zero(comp_w));
              comp_w &= comp_w - 1;
              const Objective obj = evaluate_merge_row(ctx, i, j);
              if (obj < best_obj) {
                best_obj = obj;
                best_move = Move{Move::Kind::Merge, i, j};
              }
            }
          }
          if (options_.allow_static_promotion) {
            const Objective obj = evaluate_promote(i);
            if (obj < best_obj) {
              best_obj = obj;
              best_move = Move{Move::Kind::Promote, i, 0};
            }
          }
        }
      } else {
        const std::size_t n = s_.groups.size();
        for (std::size_t i = 0; i < n; ++i) {
          if (!s_.groups[i].alive) continue;
          // One poll per row keeps the cancel latency at O(n) merge costs
          // however large the candidate set.
          check_cancel(options_.cancel);
          for (std::size_t j = i + 1; j < n; ++j) {
            if (!s_.groups[j].alive) continue;
            const std::optional<Objective> obj = evaluate_merge(i, j);
            if (obj && *obj < best_obj) {
              best_obj = *obj;
              best_move = Move{Move::Kind::Merge, i, j};
            }
          }
          if (options_.allow_static_promotion) {
            const Objective obj = evaluate_promote(i);
            if (obj < best_obj) {
              best_obj = obj;
              best_move = Move{Move::Kind::Promote, i, 0};
            }
          }
        }
      }
      if (!best_move) return;  // local optimum
      apply(*best_move);
      record();
    }
  }

  const Design& design_;
  const ResourceVec budget_;
  const SearchOptions& options_;
  State s_;
  std::vector<std::uint64_t> versions_;
  std::uint64_t version_counter_ = 0;
  std::vector<MergeEntry> table_;   ///< empty when the move table is off
  std::vector<DynBitset> compat_;   ///< pairwise compatibility, empty with table_
  std::vector<DynBitset> row_undo_; ///< saved compat_ rows, pooled per depth
  std::vector<std::size_t> alive_list_;  ///< sorted indices of alive groups
  DynBitset alive_mask_;            ///< same set, as a word-scannable mask
  std::vector<UndoRecord> undo_stack_;   ///< pooled records, undo_depth_ used
  std::size_t undo_depth_ = 0;
  ResourceVec scan_base_;  ///< pr_res + static base + extra, per greedy scan
  UnitOutcome out_;
};

class Searcher {
 public:
  Searcher(const Design& design, const ConnectivityMatrix& matrix,
           const std::vector<BasePartition>& partitions,
           const CompatibilityTable& compat,
           const std::vector<CandidateSet>& sets, const ResourceVec& budget,
           const SearchOptions& options)
      : design_(design),
        matrix_(matrix),
        partitions_(partitions),
        compat_(compat),
        sets_(sets),
        budget_(budget),
        options_(options) {}

  SearchResult run() {
    if (options_.pair_weights) {
      const PairWeights& w = *options_.pair_weights;
      require(w.size() == matrix_.configs(),
              "pair_weights must have one row per configuration");
      for (const auto& row : w)
        require(row.size() == matrix_.configs(),
                "pair_weights must be square");
      // The search reads both triangles (pair_weight_between) while
      // pair_weight_within and weighted_total_frames read only i < j, so an
      // asymmetric matrix would optimise a different objective than the one
      // reported for the answer.
      for (std::size_t i = 0; i < w.size(); ++i)
        for (std::size_t j = i + 1; j < w.size(); ++j)
          require(w[i][j] == w[j][i], "pair_weights must be symmetric");
    }
    // Phase 1 — enumerate the work: per candidate partition set
    // (candidate_sets, §IV-C), one unit for the unconstrained descent plus
    // one per distinct valid first move.
    std::vector<State> initials;
    std::vector<Unit> units;
    std::vector<std::pair<std::size_t, std::size_t>> set_units;
    for (const CandidateSet& candidate : sets_) {
      check_cancel(options_.cancel);
      State initial = initial_state(partitions_, compat_,
                                    options_.pair_weights, candidate);
      const std::size_t set = initials.size();
      const std::size_t begin = units.size();
      units.push_back(Unit{set, std::nullopt});
      std::size_t first_moves = 0;
      for (const Move& m : moves_of(initial, options_.allow_static_promotion)) {
        if (first_moves >= options_.max_first_moves) break;
        if (m.kind == Move::Kind::Merge &&
            initial.groups[m.a].occ.intersects(initial.groups[m.b].occ))
          continue;  // incompatible merge: not a distinct restart
        units.push_back(Unit{set, m});
        ++first_moves;
      }
      set_units.emplace_back(begin, units.size());
      initials.push_back(std::move(initial));
    }
    stats_.units = units.size();

    // Phases 1b and 2 fan out over one pool, one candidate set per task:
    // the caller's persistent pool when given, otherwise one built for this
    // search. A thread count of 1 runs both inline on the caller.
    const unsigned threads = resolve_thread_count(options_.threads);
    std::optional<WorkerPool> own_pool;
    WorkerPool& pool =
        threads > 1 && options_.pool != nullptr
            ? *options_.pool
            : own_pool.emplace(static_cast<unsigned>(
                  std::clamp<std::size_t>(initials.size(), 1, threads)));

    // Phase 1b — the branch-and-bound lower bounds. One admissible bound
    // per unit on the weighted total frames of every fitting completion of
    // its start state (the set's initial state pushed through the forced
    // first move): UnitBounds solves the bound exactly at the set's root
    // and evaluates each first move in O(1) at the root's multipliers. A
    // pure function of the unit, so the fan-out is deterministic by
    // construction.
    std::vector<std::uint64_t> unit_lb;
    if (options_.use_bounding) {
      unit_lb.assign(units.size(), 0);
      const std::uint64_t w_min = min_pair_weight(options_.pair_weights);
      pool.run(initials.size(), [&](std::size_t k) {
        const State& root = initials[k];
        const UnitBounds bounds(root, design_.static_base(), budget_,
                                options_.allow_static_promotion, w_min);
        for (std::size_t i = set_units[k].first; i < set_units[k].second;
             ++i) {
          check_cancel(options_.cancel);
          if (!units[i].first) {
            unit_lb[i] = bounds.root();
            continue;
          }
          const Move& m = *units[i].first;
          GroupCost cost;
          if (m.kind == Move::Kind::Merge &&
              bounds.root() != kNoFittingCompletion)
            cost = merged_group_cost(root.groups[m.a], root.groups[m.b],
                                     options_.pair_weights);
          unit_lb[i] = bounds.after(m, &cost);
        }
      });
    }

    // Phase 2 — run the units, one candidate set per task so the set's
    // restarts share a chunk runner (state copy, undo stack, move table).
    // Each unit speculates twice: with the evaluation budget left according
    // to a relaxed global counter, and with the shared bound hint deciding
    // whether it is worth running at all. The merge below corrects any unit
    // whose speculative cap or prune disagrees with the canonical one.
    std::vector<UnitOutcome> outcomes(units.size());
    std::atomic<std::uint64_t> consumed_hint{0};
    const std::size_t keep =
        std::max<std::size_t>(1, options_.keep_alternatives);
    BoundHint hint(keep);
    pool.run(initials.size(), [&](std::size_t k) {
      ChunkRunner runner(design_, budget_, options_, initials[k]);
      for (std::size_t i = set_units[k].first; i < set_units[k].second; ++i) {
        if (options_.use_bounding) {
          const std::uint64_t lb = unit_lb[i];
          if (lb == kNoFittingCompletion || lb > hint.worst()) {
            outcomes[i].pruned_speculative = true;
            continue;
          }
        }
        const std::uint64_t consumed =
            std::min(consumed_hint.load(std::memory_order_relaxed),
                     options_.max_move_evaluations);
        const std::uint64_t cap = options_.max_move_evaluations - consumed;
        if (cap == 0) continue;  // almost certainly exhausted; merge re-checks
        outcomes[i] = runner.run_unit(units[i], cap);
        consumed_hint.fetch_add(outcomes[i].evals, std::memory_order_relaxed);
        hint.offer(outcomes[i].kept);
      }
    });

    // Phase 3 — deterministic merge in canonical unit order. A unit is
    // pruned when its lower bound proves it cannot displace any entry of
    // the (canonical) leaderboard — the bound exceeds the worst kept
    // objective of a full board, strictly, so objective ties still compete
    // on the canonical-key order. A surviving unit is accepted verbatim
    // when its speculative run is exactly what a sequential search would
    // have done with the remaining budget; otherwise it is replayed with
    // the canonical cap. Once the budget is exhausted every later unit is
    // dropped, mirroring the sequential early-out.
    std::vector<Kept> kept;
    std::uint64_t remaining = options_.max_move_evaluations;
    bool any_unit = false;
    std::size_t last_set = 0;
    for (std::size_t i = 0; i < units.size(); ++i) {
      check_cancel(options_.cancel);
      if (stats_.budget_exhausted) break;
      if (options_.use_bounding) {
        const std::uint64_t lb = unit_lb[i];
        const bool sterile = lb == kNoFittingCompletion;
        const bool dominated =
            kept.size() >= keep && lb > kept.back().ttotal;
        if (sterile || dominated) {
          ++stats_.units_pruned;
          if (sterile)
            ++stats_.units_pruned_sterile;
          else
            stats_.bound_gap_sum += lb - kept.back().ttotal;
          any_unit = true;
          last_set = units[i].set;
          continue;
        }
      }
      UnitOutcome& out = outcomes[i];
      const bool replay =
          out.pruned_speculative || !out.ran ||
          (out.truncated ? out.cap != remaining : out.evals >= remaining);
      if (replay) {
        ChunkRunner runner(design_, budget_, options_, initials[units[i].set]);
        out = runner.run_unit(units[i], remaining);
        ++stats_.units_replayed;
      }
      remaining -= out.evals;
      stats_.move_evaluations += out.evals;
      stats_.greedy_runs += out.greedy_runs;
      stats_.states_recorded += out.states_recorded;
      stats_.full_evaluations += out.full_evaluations;
      stats_.moves_rescored += out.moves_rescored;
      if (out.truncated) stats_.budget_exhausted = true;
      any_unit = true;
      last_set = units[i].set;
      if (options_.use_bounding && !out.kept.empty()) {
        stats_.bound_lb_sum += unit_lb[i];
        stats_.bound_best_sum += out.kept.front().ttotal;
      }
      for (Kept& entry : out.kept)
        insert_kept(kept, std::move(entry), keep);
    }
    stats_.candidate_sets = any_unit ? last_set + 1 : 0;
    for (const UnitOutcome& out : outcomes)
      if (out.pruned_speculative) ++stats_.units_pruned_speculative;

    SearchResult result;
    result.stats = stats_;
    if (!kept.empty()) {
      result.feasible = true;
      // The full evaluator stays the oracle for accepted leaders: the
      // incremental bookkeeping proposes, the kernel certifies. A caller-
      // provided context (the partitioner's) is reused; otherwise build one
      // for this evaluation.
      std::optional<EvalContext> local_context;
      const EvalContext* context = options_.eval_context;
      if (context == nullptr) {
        local_context.emplace(design_, matrix_, partitions_);
        context = &*local_context;
      }
      EvalScratch local_scratch;
      EvalScratch& scratch =
          options_.scratch != nullptr ? *options_.scratch : local_scratch;
      const std::uint64_t scratch_evals_before =
          scratch.stats.kernel_evaluations;
      const std::uint64_t scratch_collapsed_before =
          scratch.stats.signature_collapsed_configs;
      result.alternatives.reserve(kept.size());
      for (const Kept& entry : kept)
        result.alternatives.push_back(
            RankedScheme{scheme_from_key(entry.key), entry.ttotal});
      result.alternatives.front().scheme.label = "proposed";
      result.scheme = result.alternatives.front().scheme;
      result.eval = context->evaluate(result.scheme, budget_, scratch);
      // Fold the kernel work of *this call* (the scratch may be a warm
      // caller-provided one carrying earlier jobs' counts).
      result.stats.kernel_evaluations +=
          scratch.stats.kernel_evaluations - scratch_evals_before;
      result.stats.signature_collapsed_configs +=
          scratch.stats.signature_collapsed_configs -
          scratch_collapsed_before;
      require(result.eval.valid, "search produced an invalid scheme: " +
                                     result.eval.invalid_reason);
      require(result.eval.fits, "search recorded a non-fitting scheme");
    }
    return result;
  }

 private:
  const Design& design_;
  const ConnectivityMatrix& matrix_;
  const std::vector<BasePartition>& partitions_;
  const CompatibilityTable& compat_;
  const std::vector<CandidateSet>& sets_;
  const ResourceVec budget_;
  const SearchOptions options_;

  SearchStats stats_;
};

}  // namespace

std::uint64_t weighted_total_frames(const SchemeEvaluation& evaluation,
                                    const PairWeights& weights) {
  std::uint64_t total = 0;
  for (const RegionReport& region : evaluation.regions) {
    const std::size_t n = region.active.size();
    require(weights.size() == n, "weights do not match the evaluation");
    for (std::size_t i = 0; i < n; ++i) {
      require(weights[i].size() == n, "weights must be square");
      for (std::size_t j = i + 1; j < n; ++j) {
        const int a = region.active[i];
        const int b = region.active[j];
        if (a >= 0 && b >= 0 && a != b) total += weights[i][j] * region.frames;
      }
    }
  }
  return total;
}

SearchResult search_partitioning(const Design& design,
                                 const ConnectivityMatrix& matrix,
                                 const std::vector<BasePartition>& partitions,
                                 const CompatibilityTable& compat,
                                 const ResourceVec& budget,
                                 const SearchOptions& options) {
  const std::vector<CandidateSet> sets = candidate_sets(
      partitions, matrix, options.max_candidate_sets, options.cancel);
  return search_partitioning(design, matrix, partitions, compat, sets, budget,
                             options);
}

SearchResult search_partitioning(const Design& design,
                                 const ConnectivityMatrix& matrix,
                                 const std::vector<BasePartition>& partitions,
                                 const CompatibilityTable& compat,
                                 const std::vector<CandidateSet>& sets,
                                 const ResourceVec& budget,
                                 const SearchOptions& options) {
  return Searcher(design, matrix, partitions, compat, sets, budget, options)
      .run();
}

}  // namespace prpart
