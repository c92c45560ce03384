#ifndef ANMAT_DETECT_DETECTION_STREAM_H_
#define ANMAT_DETECT_DETECTION_STREAM_H_

/// \file detection_stream.h
/// Streaming batch detection: a stateful detector over an append-only
/// relation with a fixed PFD set (opened via `Engine::OpenStream`).
///
/// The stream keeps one detection state (detector_internal.h), the one
/// `DetectErrors` absorbs a whole relation through, and absorbs each batch
/// into it. Its per-column dictionaries and pattern-index postings grow
/// incrementally, each column's dispatcher classifies only the values new
/// since the last batch, and the per-cell match/extraction memos live as
/// long as the stream, so append-heavy workloads (a feed of records
/// checked as they arrive, the demo GUI re-running after edits) do
/// O(new distinct values) automaton work per batch instead of O(rows).
///
/// Group work is delta-maintained too. Each equivalence group of a
/// variable row keeps its RHS split, its violations and its share of
/// `pairs_checked`, and a batch updates only the groups it grows: their
/// new members join the split, and a group whose majority block did not
/// move emits violations for those new members alone (a moved majority
/// re-emits the group). Constant violations, which depend only on their
/// own row, stay cached. Per batch the stream therefore does
/// O(batch rows + distinct RHS values of the groups the batch touches +
/// violations it emits) group work, plus the assembly of the cumulative
/// result, which is linear in the violations reported — none of it grows
/// with the rows absorbed so far.
///
/// The cumulative result returned by `AppendBatch` is byte-identical to
/// `DetectErrors` over the concatenated relation (asserted by the
/// randomized differential tests in engine_test.cc).
///
/// Repair mode (clean-on-ingest): with `set_clean_on_ingest(true)`, each
/// incoming batch is first cleaned with the confident repairs its rows
/// trigger, then absorbed, so the stream accumulates the *repaired*
/// relation and the cumulative violations reflect it. Two rule kinds
/// contribute (the same suggestion fold and confidence policy as
/// `RepairErrors` — detect/suggestion_policy.h — so streaming and batch
/// repair cannot drift):
///
///  * Constant rules (§3's "if the LHS is correct, the RHS could be
///    changed to tp[B]" — always confident): computed straight from the
///    batch's own rows against the stream's resolved rows and cross-batch
///    memos.
///  * Variable rules (on by default; `set_clean_variable_rules(false)`
///    restores constant-only cleaning): each batch row joins its
///    equivalence group, and the suggestion is the *cumulative* group
///    majority — the absorbed rows the stream already holds in
///    `ItemState::groups` plus the batch's own members — exactly the
///    majority a one-shot constant+variable repair pass over the
///    concatenation would use, as long as that majority never flips.
///
/// Neither kind runs a batch-local `DetectErrors`: cleaning reuses the
/// incremental dictionaries and the per-distinct-value match/extraction
/// memos (new values are memoized batch-locally). Variable cleaning reads
/// each touched group's RHS split as the stream keeps it; its dirty-view
/// split is folded once per absorbed member, not once per batch. Applied
/// repairs are reported per batch (`batch_repairs()`) and cumulatively
/// (`repairs()`), with row ids in stream coordinates.
///
/// Majority-flip semantics: already-absorbed rows are NEVER retroactively
/// edited — the stream's relation is append-only except for the batch
/// being cleaned. When a later batch moves a group's cumulative majority
/// such that the one-shot pass would now repair (or would not have
/// repaired) an absorbed row, the divergence is surfaced as a
/// `StreamConflict` in `batch_conflicts()` / `conflicts()` instead of an
/// edit. Consequently the cleaned stream relation is byte-identical to a
/// single-pass constant+variable `RepairErrors` over the concatenated
/// batches whenever `conflicts()` is empty, and every divergence is
/// covered by a reported conflict (randomized chunk-split differential
/// tests in engine_test.cc).
///
/// Flip detection walks all of a touched group's absorbed members only
/// when its dirty-view majority has changed since the last walk; otherwise
/// it walks just the members absorbed since then, so under a steady
/// majority clean-on-ingest stays within the per-batch bound above (a
/// moved majority costs one walk over the group). This is exact: whether an
/// absorbed member surfaces a conflict depends only on its own cells,
/// dirty overrides and repair record — all immutable once absorbed — and
/// on the group's dirty majority (whether the group disagrees, the
/// majority value and its repair). A member walked before under the same
/// majority reaches the same verdict again, and a conflict it raised then
/// is already recorded for its cell, which is reported at most once.

#include <map>
#include <memory>
#include <set>
#include <string>
#include <unordered_map>
#include <vector>

#include "detect/detector.h"
#include "detect/detector_internal.h"
#include "detect/pattern_index.h"
#include "pfd/pfd.h"
#include "relation/relation.h"
#include "util/status.h"

namespace anmat {

/// \brief One surfaced clean-on-ingest divergence from the one-shot repair
/// of the concatenation (see the majority-flip semantics in the file
/// comment). The stream keeps `current` in the cell; a single-pass
/// constant+variable repair over the concatenated batches would hold
/// `expected` there instead.
struct StreamConflict {
  enum class Kind {
    /// A group's cumulative majority (or whether it has a majority at all)
    /// differs between the stream's cleaned view and the dirty
    /// concatenation, so the batch's repairs follow a different majority
    /// than the one-shot pass would.
    kMajorityFlip,
    /// The one-shot pass would repair (or leave dirty) an already-absorbed
    /// cell; the stream never retroactively edits.
    kRetroactiveRepair,
    /// An applied repair changed a cell some variable rule groups by, so
    /// the row's equivalence group differs from its dirty-concatenation
    /// group from this batch onward.
    kKeyDivergence,
  };

  Kind kind = Kind::kMajorityFlip;
  CellRef cell;          ///< stream coordinates
  std::string current;   ///< the value the stream keeps
  std::string expected;  ///< the one-shot pass's value for the cell
  size_t pfd_index = 0;  ///< rule whose group surfaced the divergence
  size_t batch = 0;      ///< batch whose ingest surfaced it
};

/// \brief Incremental detection over a growing relation with fixed PFDs.
///
/// Not thread-safe for concurrent `AppendBatch` calls; one batch is
/// processed at a time (internally fanning out per tableau row when the
/// options allow).
class DetectionStream {
 public:
  /// Opens a stream for `pfds` over relations with `schema`. Fails if some
  /// PFD does not validate against the schema. A null `options.automata`
  /// gets a cache private to the stream.
  static Result<std::unique_ptr<DetectionStream>> Open(
      const Schema& schema, std::vector<Pfd> pfds,
      const DetectorOptions& options = {});

  /// Appends `batch` (same column names as the stream schema) and returns
  /// the cumulative detection result over every row appended so far —
  /// byte-identical to one-shot `DetectErrors` on the concatenated
  /// relation. `pfd_index` in the violations refers to the PFD list the
  /// stream was opened with.
  Result<DetectionResult> AppendBatch(const Relation& batch);

  /// Convenience: appends raw rows (each the width of the schema).
  Result<DetectionResult> AppendRows(
      const std::vector<std::vector<std::string>>& rows);

  /// Enables/disables clean-on-ingest for subsequent batches (see the file
  /// comment). Safe to toggle between appends; already-absorbed rows are
  /// never touched (the incremental state is append-only).
  void set_clean_on_ingest(bool on) { clean_on_ingest_ = on; }
  bool clean_on_ingest() const { return clean_on_ingest_; }

  /// Enables/disables variable-rule (cumulative-majority) repairs inside
  /// clean-on-ingest. On by default; turning it off restores the
  /// constant-only cleaning of earlier releases (what A7d benchmarks).
  /// Toggling between appends is safe — like all cleaning it only ever
  /// affects batches appended afterwards.
  void set_clean_variable_rules(bool on) { clean_variable_rules_ = on; }
  bool clean_variable_rules() const { return clean_variable_rules_; }

  /// Repairs applied to the most recently appended batch (empty unless
  /// clean-on-ingest was on for it). Row ids are stream coordinates.
  const std::vector<AppliedRepair>& batch_repairs() const {
    return batch_repairs_;
  }

  /// All repairs applied since the stream was opened.
  const std::vector<AppliedRepair>& repairs() const { return repairs_; }

  /// Majority-flip conflicts surfaced by the most recently appended batch
  /// (see the file comment); each absorbed cell is reported at most once
  /// over the stream's lifetime.
  const std::vector<StreamConflict>& batch_conflicts() const {
    return batch_conflicts_;
  }

  /// All conflicts surfaced since the stream was opened. While this is
  /// empty, the stream's relation is byte-identical to a single-pass
  /// constant+variable `RepairErrors` over the concatenated batches.
  const std::vector<StreamConflict>& conflicts() const { return conflicts_; }

  /// The concatenation of all appended batches.
  const Relation& relation() const { return relation_; }

  const std::vector<Pfd>& pfds() const { return pfds_; }
  size_t num_batches() const { return num_batches_; }

  /// Total distinct values across the stream's column dictionaries — the
  /// quantity the per-batch pattern work is proportional to.
  size_t distinct_values() const;

 private:
  DetectionStream(Schema schema, std::vector<Pfd> pfds,
                  DetectorOptions options);

  /// Opens the detection state over the stream's incremental dictionaries
  /// and indexes; called once.
  Status Init();

  /// A variable row's dirty-view majority as one flip walk saw it: the
  /// part of the group's state a member's conflict verdict depends on.
  struct DirtyMajority {
    bool violated = false;  ///< the members disagree on the RHS
    std::string key;        ///< the majority RHS value (when violated)
    std::string repair;     ///< its repair value (when violated)

    bool operator==(const DirtyMajority& other) const {
      return violated == other.violated && key == other.key &&
             repair == other.repair;
    }
  };

  /// Clean-on-ingest's view of one absorbed equivalence group (a state
  /// `Group`). Absorbed rows are never retroactively edited, so it only
  /// ever grows.
  struct DirtyGroup {
    /// RHS value → members over the dirty view (through
    /// `dirty_overrides_`), folded by `CleanBatch` for the members
    /// [0, dirty_of.size()).
    std::map<std::string, std::vector<RowId>> by_dirty;
    /// Per folded member (member order): its dirty RHS value, as a pointer
    /// to a `by_dirty` key.
    std::vector<const std::string*> dirty_of;
    /// Flip watermark: the members [0, examined) were walked for conflicts
    /// under `examined_majority` (see the file comment).
    size_t examined = 0;
    DirtyMajority examined_majority;
  };

  /// Computes the confident constant- and (when enabled) variable-rule
  /// repairs for `batch` and records them (clean-on-ingest), surfacing
  /// majority-flip conflicts. Runs directly over the stream's resolved
  /// rows, cumulative groups and per-distinct-value memos — no batch-local
  /// detection, no dictionary/index rebuilds. When any repairs apply,
  /// `*cleaned` is set to the repaired copy and true is returned; a
  /// repair-free batch returns false without paying the copy.
  Result<bool> CleanBatch(const Relation& batch, Relation* cleaned);

  /// Records `conflict` (deduplicated per cell over the stream lifetime).
  void ReportConflict(StreamConflict conflict);

  Relation relation_;
  std::vector<Pfd> pfds_;
  DetectorOptions options_;
  size_t num_batches_ = 0;
  /// Stream-owned incremental dictionaries, one slot per column (null for
  /// columns no pattern cell touches). `Relation::dictionary` would rebuild
  /// from scratch after every append; these only absorb the new rows.
  std::vector<std::unique_ptr<ColumnDictionary>> dicts_;
  /// Stream-owned incremental pattern indexes over the seed columns: per
  /// batch they absorb the new rows' postings and seed each tableau row's
  /// new candidates sub-linearly.
  std::vector<std::unique_ptr<PatternIndex>> indexes_;
  /// The detector: per item, its candidates, groups and cached
  /// violations; per column, its dispatcher and classification watermark.
  detect_internal::DetectionState state_;
  /// Clean-on-ingest's view of each absorbed group a batch has touched.
  /// Group addresses are stable: the stream never restarts an item.
  std::unordered_map<const detect_internal::Group*, DirtyGroup>
      dirty_groups_;
  bool clean_on_ingest_ = false;
  bool clean_variable_rules_ = true;
  std::vector<AppliedRepair> batch_repairs_;
  std::vector<AppliedRepair> repairs_;
  std::vector<StreamConflict> batch_conflicts_;
  std::vector<StreamConflict> conflicts_;
  /// Cells already reported in `conflicts_` (each at most once).
  std::set<CellRef> conflicted_cells_;
  /// Pre-repair ("dirty") values of every cell clean-on-ingest edited —
  /// what the cell holds in the dirty concatenation. Majority-flip
  /// detection compares the dirty view (what the one-shot pass sees)
  /// against the stream's cleaned view through these overrides.
  std::map<CellRef, std::string> dirty_overrides_;
  /// Cells whose applied repair came from a variable (majority) rule; if
  /// such a group's majority later flips back to the cell's dirty value,
  /// the one-shot pass would not have repaired it — a conflict.
  std::set<CellRef> variable_repaired_;
};

}  // namespace anmat

#endif  // ANMAT_DETECT_DETECTION_STREAM_H_
