#ifndef ANMAT_DETECT_DETECTOR_INTERNAL_H_
#define ANMAT_DETECT_DETECTOR_INTERNAL_H_

/// \file detector_internal.h
/// Shared internals of the one-shot detector (detector.cc), which also
/// backs discovery's coverage check (`ComputeCoverage`), and the streaming
/// detector (detection_stream.cc): the resolved tableau rows,
/// per-distinct-value match/extraction memos, record keys, and the group
/// resolution that turns equivalence groups into variable violations.
///
/// Not part of the public API — include only from the detect layer.
/// Definitions live in detector.cc.

#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "detect/violation.h"
#include "pattern/matcher.h"
#include "pfd/pfd.h"
#include "pfd/tableau.h"
#include "relation/relation.h"
#include "util/status.h"

namespace anmat {

struct DetectionResult;
struct DetectorOptions;
class AutomatonCache;

namespace detect_internal {

/// One tableau row of one PFD, resolved against the relation's schema and
/// pre-compiled for matching. Matchers compiled through an
/// `AutomatonCache` are backed by shared frozen automata
/// (`concurrent_safe()`) and the row may then be probed by any number of
/// threads. A row holding a lazy matcher (the fallback for a pattern past
/// the freeze cap, or the reference oracle's uncached matchers) must be
/// used by one thread at a time: the one-shot detector re-resolves such a
/// row inside its parallel task, the stream processes each row's state on a
/// single task per batch.
struct ResolvedRow {
  const TableauRow* row;
  std::vector<size_t> lhs_cols;
  std::vector<size_t> rhs_cols;
  std::vector<std::string> lhs_attrs;
  std::vector<std::string> rhs_attrs;
  // One matcher per non-wildcard LHS cell (parallel to lhs_cols; null for
  // wildcard cells).
  std::vector<std::unique_ptr<ConstrainedMatcher>> lhs_matchers;
  // Constant RHS values (valid when the row is constant).
  std::vector<std::string> rhs_constants;

  /// Every matcher frozen-backed: the row is shareable across threads.
  bool concurrent_safe() const {
    for (const std::unique_ptr<ConstrainedMatcher>& m : lhs_matchers) {
      if (m != nullptr && !m->concurrent_safe()) return false;
    }
    return true;
  }
};

/// Resolves `row`, compiling its matchers through `automata` (null gives
/// private uncached matchers — the reference oracle's mode).
ResolvedRow ResolveRow(const TableauRow& row,
                       const std::vector<size_t>& lhs_cols,
                       const std::vector<size_t>& rhs_cols,
                       const std::vector<std::string>& lhs_attrs,
                       const std::vector<std::string>& rhs_attrs,
                       AutomatonCache* automata);

/// Resolved rows of a fixed (pfds, schema) pair, flattened in (PFD,
/// tableau row) order — one entry per detection work item. A caller
/// running `DetectErrors` repeatedly over the same rules (the repair
/// fixpoint loop) passes one of these to `DetectErrorsReusingRows` so rows
/// are resolved once, not once per pass.
struct ResolvedRowSet {
  std::vector<ResolvedRow> rows;
  bool resolved = false;
};

/// `options` with a private `AutomatonCache` installed when it has none.
/// Each public entry point (`DetectErrors`, `RepairErrors`,
/// `DetectionStream::Open`) calls this once; everything below it relies on
/// a non-null cache.
DetectorOptions WithAutomata(const DetectorOptions& options);

/// `DetectErrors` with an optional cross-run resolved-row cache (see
/// `ResolvedRowSet`); `row_set` may be null. `options.automata` must be
/// set (see `WithAutomata`). Defined in detector.cc.
Result<DetectionResult> DetectErrorsReusingRows(const Relation& relation,
                                                const std::vector<Pfd>& pfds,
                                                const DetectorOptions& options,
                                                ResolvedRowSet* row_set);

/// The index of the seed cell (the first non-wildcard LHS cell), or
/// lhs_cols.size() when every cell is a wildcard (a row `Pfd::Validate`
/// rejects, so detection never sees one).
size_t SeedCell(const ResolvedRow& row);

/// The canonical violation order every detection result is reported in:
/// by PFD, tableau row, then cells. One definition, shared by the one-shot
/// and streaming detectors — their byte-identical contract depends on it.
void SortViolations(std::vector<Violation>* violations);

/// Appends the record-key fragment of `value` under `matcher` to `key`:
/// the canonical extraction's parts, each followed by '\x1f', then one
/// '\x1e'. The separators keep extractions that concatenate alike apart
/// ({"ab","c"} vs {"a","bc"}). Returns false, appending nothing, when the
/// value has no canonical extraction. The one definition of a pattern
/// cell's share of a grouping key, for the one-shot and streaming
/// detectors alike.
bool AppendKeyFragment(const ConstrainedMatcher& matcher,
                       std::string_view value, std::string* key);

/// Per-LHS-cell memo of per-distinct-value results over one column
/// dictionary: every match / key-fragment decision is computed once per
/// *distinct* value and reused across the rows holding it. The one-shot
/// detector points `dict` at the relation's dictionary for one run; the
/// streaming detector points it at its incremental dictionary and keeps
/// the memo alive across batches (tables grow with the dictionary; entries
/// for already-seen values are never recomputed).
struct CellScan {
  const ColumnDictionary* dict = nullptr;  ///< not owned; must be set
  /// Pre-computed 0/1 match verdicts per distinct value, filled by a
  /// multi-pattern dispatcher (dispatch/dispatch_plan.h); read in place of
  /// the lazy `match` memo for every id it covers. Not owned.
  const std::vector<int8_t>* preset_match = nullptr;
  /// The matching value ids of `preset_match`, ascending (the dispatcher's
  /// `match_ids`); the one-shot detector seeds candidates from these. The
  /// stream, which seeds from its index, leaves it null.
  const std::vector<uint32_t>* preset_ids = nullptr;
  std::vector<int8_t> match;       ///< -1 unknown, else Matches() verdict
  std::vector<int8_t> frag_state;  ///< -1 unknown, 0 no match, 1 cached
  std::vector<std::string> frag;   ///< cached record-key fragment

  /// Whether dictionary value `id` matches `matcher` (the cell's matcher).
  /// Inline: it runs once per candidate row and cell.
  bool Matches(const ConstrainedMatcher& matcher, uint32_t id) {
    if (preset_match != nullptr && id < preset_match->size()) {
      return (*preset_match)[id] != 0;
    }
    if (id >= match.size()) match.resize(dict->num_values(), -1);
    if (match[id] < 0) match[id] = matcher.Matches(dict->value(id)) ? 1 : 0;
    return match[id] != 0;
  }
  /// Value `id`'s `AppendKeyFragment` bytes, or null when it has no
  /// canonical extraction under `matcher`.
  const std::string* Fragment(const ConstrainedMatcher& matcher, uint32_t id) {
    if (id >= frag_state.size()) {
      frag_state.resize(dict->num_values(), -1);
      frag.resize(dict->num_values());
    }
    if (frag_state[id] < 0) {
      frag_state[id] =
          AppendKeyFragment(matcher, dict->value(id), &frag[id]) ? 1 : 0;
    }
    return frag_state[id] != 0 ? &frag[id] : nullptr;
  }
};

/// True if row `r` matches every non-wildcard LHS cell of `row` other than
/// `skip_cell`, memoizing per distinct value through `scans`. This is the
/// exact candidacy test — identical to what index- or dispatch-seeded
/// candidate generation verifies.
bool MatchesLhs(const ResolvedRow& row, std::vector<CellScan>& scans, RowId r,
                size_t skip_cell = static_cast<size_t>(-1));

/// The grouping key of a record under a (variable) tableau row: the
/// concatenated `AppendKeyFragment`s of all pattern cells, and the whole
/// value '\x1f'-terminated for wildcard cells. Returns false when some
/// pattern cell has no canonical extraction. Pattern-cell fragments are
/// memoized per distinct value in `scans`.
bool RecordKey(const Relation& relation, const ResolvedRow& row,
               std::vector<CellScan>& scans, RowId r, std::string* key);

/// Combined RHS value of a record (multi-attribute safe).
std::string RhsValue(const Relation& relation, const ResolvedRow& row,
                     RowId r);

/// Appends the constant-row violation of candidate row `r` to `out`, if its
/// RHS mismatches the row's constants. Returns true when one was emitted.
bool EmitConstantViolation(const Relation& relation, size_t pfd_index,
                           size_t row_index, const ResolvedRow& row, RowId r,
                           std::vector<Violation>* out);

/// Appends the pair violation between `suspect_row` and `witness`.
void EmitPairViolation(const Relation& relation, size_t pfd_index,
                       size_t row_index, const ResolvedRow& row,
                       RowId suspect_row, RowId witness,
                       const std::string& majority_repair,
                       std::vector<Violation>* out);

/// The majority entry of one equivalence group's RHS-value → rows split:
/// the entry with the strictly greatest row count; ties break toward the
/// lexicographically smallest RHS value (map order). This single definition
/// decides "the majority" for one-shot group resolution AND the streaming
/// clean-on-ingest variable repairs — their agreement cell-for-cell depends
/// on it. `by_rhs` must not be empty.
const std::pair<const std::string, std::vector<RowId>>& MajorityBlock(
    const std::map<std::string, std::vector<RowId>>& by_rhs);

/// Resolves one equivalence group of `size` members from its RHS-value →
/// members split (members ascending): when the members disagree, accounts
/// the group's pairs into `result->stats.pairs_checked` and appends a pair
/// violation for every minority member from `first_suspect` on against the
/// first member of the majority block. The one emission of variable
/// violations: one-shot detection resolves every group through it, the
/// stream each group a batch grows.
void ResolveGroup(const Relation& relation, size_t pfd_index,
                  size_t row_index, const ResolvedRow& row,
                  const std::map<std::string, std::vector<RowId>>& by_rhs,
                  size_t size, RowId first_suspect, DetectionResult* result);

/// One-shot group resolution: splits every group of key → rows by RHS
/// value and runs `ResolveGroup` on it, in key order.
void ResolveGroups(const Relation& relation, size_t pfd_index,
                   size_t row_index, const ResolvedRow& row,
                   const std::map<std::string, std::vector<RowId>>& groups,
                   DetectionResult* result);

}  // namespace detect_internal
}  // namespace anmat

#endif  // ANMAT_DETECT_DETECTOR_INTERNAL_H_
