#ifndef ANMAT_DISPATCH_DISPATCH_PLAN_H_
#define ANMAT_DISPATCH_DISPATCH_PLAN_H_

/// \file dispatch_plan.h
/// Per-column multi-pattern dispatch plans for the detectors.
///
/// Both detectors decide, per (tableau row, LHS cell), whether each
/// distinct value of the cell's column matches the cell's pattern. With R
/// rules on one column that is R independent automaton walks per distinct
/// value. A `ColumnDispatcher` collects every embedded pattern probing one
/// column, deduplicates by element-sequence signature into *slots*, cuts
/// the signature-sorted slots into groups of at most `kMaxUnionMembers`
/// with one union automaton each (shared through
/// `AutomatonCache::GetUnion`), and classifies each distinct value with
/// ONE forward scan per group — filling an exact 0/1 verdict vector per
/// slot that the detection hot paths read instead of calling per-pattern
/// matchers.
///
/// Verdicts are exact (a union automaton's accept set equals the member-
/// by-member match decisions), so candidate sets, violations and stats are
/// byte-identical to the per-pattern path.
///
/// The union automata are lazy (`MultiPatternDfa`): a group's scan
/// materializes only the subset states its values walk, and the states
/// stay in the engine cache for the next run, batch or repair pass over
/// the same rule set.
///
/// Thread safety: build + Classify* are single-threaded (or externally
/// ordered); afterwards the verdict vectors are read-only, so any number
/// of detection tasks may read them concurrently. A group's scan holds its
/// shared union's mutex, so dispatchers of concurrent runs (one task per
/// column, daemon detects, streams) that share a union take turns on it.

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "pattern/automaton_cache.h"
#include "pattern/pattern.h"
#include "relation/relation.h"

namespace anmat {

/// Most patterns one union automaton takes. A larger union walks more
/// subset states per value and overruns the cache's state bound, flushing
/// its memo over and over; 1,024 covers every rule set the paper's tables
/// produce in one union.
inline constexpr size_t kMaxUnionMembers = 1024;

/// True when `p` may join a union automaton: its leading element is a
/// literal or a bounded repeat. A leading unbounded class repeat (`\A+...`,
/// `\S*...`) leaves the union no discriminating prefix: every member stays
/// live through the whole scan, subset construction multiplies member
/// positions, and the union would scan no faster than the members run
/// separately. Such patterns keep the per-pattern path.
bool UnionFriendly(const Pattern& p);

/// \brief One column's multi-pattern classifier: registered patterns
/// (deduplicated into slots) -> one union automaton per group of
/// signature-sorted slots -> per-slot verdict vectors over the column
/// dictionary.
class ColumnDispatcher {
 public:
  /// Registers `p` (copied) and returns its slot. Patterns with the same
  /// element-sequence signature share a slot. Must precede `Compile`.
  uint32_t AddPattern(const Pattern& p);

  /// Sorts the registered union-friendly slots by signature, cuts them
  /// into consecutive groups of at most `kMaxUnionMembers` and looks each
  /// group's lazy union automaton up in `cache` (shared engine-wide; one per
  /// signature set). Every union-friendly slot is covered; the others keep
  /// the exact per-pattern path. Returns false — and leaves the dispatcher
  /// unusable — only when no slot is union-friendly.
  bool Compile(AutomatonCache* cache);

  bool compiled() const { return compiled_; }
  /// True when slot `slot` classifies through a union automaton — only
  /// then are `verdicts(slot)` / `match_ids(slot)` meaningful.
  bool covers(uint32_t slot) const { return covered_[slot] != 0; }
  /// True when every registered slot is covered (callers may then skip
  /// per-pattern fallback structures for this column entirely).
  bool fully_covered() const { return num_covered_ == slots_.size(); }
  size_t num_groups() const { return groups_.size(); }

  /// Classifies dictionary values [first_id, dict.num_values()), extending
  /// every slot's verdict vector to dict.num_values(). One union-table
  /// scan per (value, group), holding the group's union mutex for the
  /// group's whole scan.
  void ClassifyValues(const ColumnDictionary& dict, uint32_t first_id);

  /// Slot `slot`'s verdict vector (1 = value matches). The pointer is
  /// stable across `ClassifyValues` calls; entries are valid for every
  /// classified value id.
  const std::vector<int8_t>* verdicts(uint32_t slot) const {
    return &verdicts_[slot];
  }

  /// The classified value ids matching slot `slot`, ascending — the
  /// positive rows of `verdicts(slot)`. Lets candidate collection iterate
  /// only the matches instead of the whole dictionary (with R rules on a
  /// column the per-rule full-dictionary sweep is O(R * distinct); the
  /// match lists make it O(total matches)). Pointer stable like `verdicts`.
  const std::vector<uint32_t>* match_ids(uint32_t slot) const {
    return &match_ids_[slot];
  }

 private:
  struct Group {
    std::shared_ptr<SharedUnion> automaton;
    std::vector<uint32_t> to_slot;  ///< automaton pattern id -> slot
  };

  std::vector<Pattern> slots_;  ///< one representative pattern per slot
  /// Signature -> slot, iterated in signature order by `Compile`.
  std::map<std::string, uint32_t> slot_of_signature_;
  std::vector<Group> groups_;
  /// Outer vectors fixed at Compile (stable inner addresses for
  /// `verdicts` / `match_ids`).
  std::vector<std::vector<int8_t>> verdicts_;
  std::vector<std::vector<uint32_t>> match_ids_;
  std::vector<uint8_t> covered_;  ///< per slot: classifies via a union
  size_t num_covered_ = 0;
  bool compiled_ = false;
};

}  // namespace anmat

#endif  // ANMAT_DISPATCH_DISPATCH_PLAN_H_
