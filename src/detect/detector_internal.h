#ifndef ANMAT_DETECT_DETECTOR_INTERNAL_H_
#define ANMAT_DETECT_DETECTOR_INTERNAL_H_

/// \file detector_internal.h
/// Internals of the detector: the resolved tableau rows, the
/// `DetectionState` that one-shot detection, the repair loop, discovery's
/// coverage check and `DetectionStream` all absorb rows through,
/// per-distinct-value match/extraction memos, record keys, and the group
/// resolution that turns equivalence groups into variable violations. The
/// reference oracle shares only `ResolveRow` and the emission helpers.
///
/// Not part of the public API — include only from the detect layer, the
/// repair loop and the engine, which keeps a `Detect`'s state for the next
/// `Detect` or `Repair`. Definitions live in detector.cc.

#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "detect/detector.h"
#include "detect/pattern_index.h"
#include "detect/violation.h"
#include "dispatch/dispatch_plan.h"
#include "pattern/matcher.h"
#include "pfd/pfd.h"
#include "pfd/tableau.h"
#include "relation/relation.h"
#include "util/status.h"
#include "util/thread_pool.h"

namespace anmat {

namespace detect_internal {

/// One tableau row of one PFD, resolved against the relation's schema and
/// pre-compiled for matching. Its matchers own lazy automata, which memoize
/// under the const interface: a resolved row is used by one thread at a
/// time. A `DetectionState` runs each work item on a single task, which
/// alone touches the item's row.
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
};

/// Resolves `row`, compiling its matchers through `automata` (null gives
/// private uncached matchers — the reference oracle's mode).
ResolvedRow ResolveRow(const TableauRow& row,
                       const std::vector<size_t>& lhs_cols,
                       const std::vector<size_t>& rhs_cols,
                       const std::vector<std::string>& lhs_attrs,
                       const std::vector<std::string>& rhs_attrs,
                       AutomatonCache* automata);

/// The index of the seed cell (the first non-wildcard LHS cell), or
/// lhs_cols.size() when every cell is a wildcard (a row `Pfd::Validate`
/// rejects, so detection never sees one).
size_t SeedCell(const ResolvedRow& row);

/// The canonical violation order every detection result is reported in:
/// by PFD, tableau row, then cells.
void SortViolations(std::vector<Violation>* violations);

/// Appends the record-key fragment of `value` under `matcher` to `key`:
/// the canonical extraction's parts, each followed by '\x1f', then one
/// '\x1e'. The separators keep extractions that concatenate alike apart
/// ({"ab","c"} vs {"a","bc"}). Returns false, appending nothing, when the
/// value has no canonical extraction. The one definition of a pattern
/// cell's share of a grouping key, for absorbed rows and clean-on-ingest's
/// batch rows alike.
bool AppendKeyFragment(const ConstrainedMatcher& matcher,
                       std::string_view value, std::string* key);

/// Per-LHS-cell memo of per-distinct-value results over one column
/// dictionary: every match / key-fragment decision is computed once per
/// *distinct* value and reused across the rows holding it. A memo lives as
/// long as its item's state: tables grow with the dictionary, and entries
/// for already-seen values are never recomputed.
struct CellScan {
  const ColumnDictionary* dict = nullptr;  ///< not owned; must be set
  /// Pre-computed 0/1 match verdicts per distinct value, filled by a
  /// multi-pattern dispatcher (dispatch/dispatch_plan.h); read in place of
  /// the lazy `match` memo for every id it covers. Not owned.
  const std::vector<int8_t>* preset_match = nullptr;
  /// The matching value ids of `preset_match`, ascending (the dispatcher's
  /// `match_ids`); a run absorbing from row 0 seeds candidates from these.
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
/// decides "the majority" for detection, the reference oracle and the
/// stream's clean-on-ingest variable repairs — their agreement
/// cell-for-cell depends on it. `by_rhs` must not be empty.
const std::pair<const std::string, std::vector<RowId>>& MajorityBlock(
    const std::map<std::string, std::vector<RowId>>& by_rhs);

/// Resolves one equivalence group of `size` members from its RHS-value →
/// members split (members ascending): when the members disagree, accounts
/// the group's pairs into `result->stats.pairs_checked` and appends a pair
/// violation for every minority member from `first_suspect` on against the
/// first member of the majority block. The one emission of variable
/// violations: a run resolves every group it grows or re-splits through
/// it.
void ResolveGroup(const Relation& relation, size_t pfd_index,
                  size_t row_index, const ResolvedRow& row,
                  const std::map<std::string, std::vector<RowId>>& by_rhs,
                  size_t size, RowId first_suspect, DetectionResult* result);

/// One equivalence group of a variable item: the candidates whose LHS
/// cells share one grouping key.
struct Group {
  /// Members, ascending.
  std::vector<RowId> members;
  /// RHS value → members, over the relation's live cells. Absorbing rows
  /// only adds to it; a write to one of the item's RHS columns re-splits
  /// the group.
  std::map<std::string, std::vector<RowId>> by_rhs;
  /// The group's share of the result: its pair violations and
  /// `pairs_checked`.
  DetectionResult slice;
  /// The `by_rhs` key of the majority block `slice` was resolved under.
  const std::string* majority = nullptr;
};

/// What one work item — one tableau row of one PFD — has derived from the
/// rows absorbed so far.
struct ItemState {
  /// Rows [0, absorbed) are in.
  RowId absorbed = 0;
  /// A write to one of the item's RHS columns since it last ran: its
  /// violations must be re-emitted from the live cells.
  bool rhs_written = false;
  /// Per-LHS-cell memos over the columns' dictionaries.
  std::vector<CellScan> scans;
  /// The item's share of `DetectionStats::candidate_rows`.
  size_t candidate_rows = 0;
  /// Constant rows: the rows matching every LHS cell, ascending (kept only
  /// by a writable state: `ReEmit` reads them after a recorded write), and
  /// their violations, in row order.
  std::vector<RowId> candidates;
  std::vector<Violation> violations;
  /// Variable rows: grouping key → group, the groups with violations (in
  /// the order they got their first; a disagreeing group only ever grows,
  /// so none leaves until a re-split), and the sum of the groups'
  /// `pairs_checked`.
  std::map<std::string, Group> groups;
  std::vector<Group*> violating;
  size_t pairs_checked = 0;
};

/// One work item: a tableau row of one PFD, resolved, with its state.
struct WorkItem {
  size_t pfd_index = 0;
  size_t row_index = 0;
  bool constant = false;
  bool variable = false;
  ResolvedRow row;
  /// Per LHS cell: its slot in the column's dispatcher.
  std::vector<uint32_t> slots;
  ItemState state;
};

/// What detection keeps per LHS pattern column.
struct ColumnState {
  /// The dictionary the next run reads: a caller-grown one (the stream's
  /// incremental dictionaries), else `Relation::dictionary`, re-read on
  /// every run because `set_cell` frees it.
  const ColumnDictionary* external_dict = nullptr;
  const ColumnDictionary* dict = nullptr;
  /// Some detected item seeds its candidates from this column.
  bool seeds = false;
  /// The seed index: the caller's (`UseColumn`), else one built over the
  /// relation when a seed column's dispatcher leaves a slot uncovered.
  const PatternIndex* index = nullptr;
  std::unique_ptr<PatternIndex> owned_index;
  /// The column's multi-pattern dispatcher (null: no union-friendly
  /// pattern) and how many dictionary values it has classified.
  std::unique_ptr<ColumnDispatcher> dispatcher;
  uint32_t classified = 0;
  /// The dispatcher must be (re)built: first run, or the column was
  /// written.
  bool stale = true;
};

/// The §3 detector over one relation and a fixed PFD list: constant rows
/// seeded by a dispatcher or an index and verified on the other LHS cells,
/// variable rows blocked on the canonical extraction key. It keeps, per
/// work item, what the rows absorbed so far derived, and per LHS pattern
/// column its dispatcher, classification watermark and seed index, so a
/// run absorbs only rows it has not seen: one-shot detection absorbs every
/// row once, the repair loop keeps one state across its passes (starting
/// from the state of `Engine::Detect` when it ran on the same relation),
/// and `DetectionStream` absorbs each batch. Violations and stats always
/// equal a fresh `DetectErrors` over the relation as it stands, provided it
/// changes between runs only by recorded writes, or by appends to columns
/// the caller grows (`UseColumn`).
class DetectionState {
 public:
  /// Validates and resolves `pfds` against `schema`. `dispatch` false
  /// leaves every pattern cell on the per-pattern path (no union
  /// automata). `writable` false promises that `RecordWrite` is never
  /// called, so constant rows keep no candidate lists. `pfds` and
  /// `automata` must outlive the state.
  Status Open(const Schema& schema, const std::vector<Pfd>& pfds,
              AutomatonCache* automata, bool dispatch, bool writable);
  bool opened() const { return automata_ != nullptr; }

  /// Column `col` reads `dict` (grown by the caller in step with the
  /// relation; null: `Relation::dictionary`) and seeds from `index` (may
  /// be null). Call after `Open`, before the first run.
  void UseColumn(size_t col, const ColumnDictionary* dict,
                 const PatternIndex* index);

  /// Records a write to column `col`: the items reading it on their LHS
  /// (wildcard cells included: `RecordKey` keys on their raw values)
  /// start over, those reading it on their RHS re-emit from the live
  /// cells, and the column's dispatcher and owned index are rebuilt.
  /// Writes are recorded, not inferred from a dictionary's address:
  /// `set_cell` frees the dictionary and a new one may reuse the address.
  /// Only a state opened writable may be written.
  void RecordWrite(size_t col);

  /// Absorbs rows [absorbed, relation.num_rows()) into every item, one
  /// task per item, and returns the cumulative result in the canonical
  /// order. With `release`, each item's state is freed as soon as its
  /// share is out (a one-shot run; the state is spent). `covered`
  /// (optional, serial runs only) is set for every candidate row.
  DetectionResult Absorb(const Relation& relation,
                         const ExecutionOptions& execution, bool release,
                         std::vector<bool>* covered = nullptr);

  std::vector<WorkItem>& items() { return items_; }
  /// The LHS pattern columns, by column index.
  const std::map<size_t, ColumnState>& columns() const { return columns_; }

 private:
  /// Brings the columns the absorbing items read up to date: dictionary,
  /// dispatcher classification and seed index.
  void PrepareColumns(const Relation& relation, RowId num_rows,
                      const ExecutionOptions& execution);
  void AbsorbItem(const Relation& relation, WorkItem& item, RowId num_rows,
                  std::vector<bool>* covered);

  AutomatonCache* automata_ = nullptr;
  size_t num_pfds_ = 0;
  bool dispatch_ = true;
  bool writable_ = false;
  std::vector<WorkItem> items_;
  std::map<size_t, ColumnState> columns_;
};

/// `options` with a private `AutomatonCache` installed when it has none.
/// Each public entry point (`DetectErrors`, `RepairErrors`,
/// `DetectionStream::Open`) calls this once; everything below it relies on
/// a non-null cache.
DetectorOptions WithAutomata(const DetectorOptions& options);

/// Detection through `state`, opened writable on first use; null runs a
/// one-shot state, released as it goes. A kept state holds every item's
/// state after the run, for the next run over the same relation.
/// `options.automata` must be set (see `WithAutomata`).
Result<DetectionResult> DetectErrorsKeepingState(
    const Relation& relation, const std::vector<Pfd>& pfds,
    const DetectorOptions& options, DetectionState* state);

}  // namespace detect_internal
}  // namespace anmat

#endif  // ANMAT_DETECT_DETECTOR_INTERNAL_H_
