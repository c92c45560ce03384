#include "detect/detection_stream.h"

#include <algorithm>
#include <map>
#include <set>
#include <string_view>
#include <unordered_map>
#include <utility>

#include "detect/suggestion_policy.h"

namespace anmat {

using detect_internal::AppendKeyFragment;
using detect_internal::CellScan;
using detect_internal::Group;
using detect_internal::ResolvedRow;
using detect_internal::WorkItem;

namespace {

/// Batch cells resolved against a column's incremental stream dictionary:
/// ids >= 0 are stream dictionary ids (the cross-batch memos apply), ids
/// < 0 are batch-local new-value ids encoded as -(id + 1), with the new
/// distinct values listed in first-occurrence order.
struct ColumnIds {
  bool resolved = false;
  std::vector<int64_t> ids;
  /// Distinct values the stream has not absorbed yet (views into the
  /// batch's arena-backed cells, stable while the batch lives).
  std::vector<std::string_view> new_values;
};

/// Batch-side LHS evaluation of one resolved tableau row: per-row match
/// verdicts and grouping keys, each memoized per *distinct* value — through
/// the stream's persistent CellScan memos for values the stream already
/// absorbed, batch-locally for new ones. This is what keeps clean-on-ingest
/// at O(new distinct values) automaton work, with zero batch-local
/// detection.
class BatchLhsScan {
 public:
  BatchLhsScan(const Relation& batch, const ResolvedRow& row,
               std::vector<CellScan>& scans,
               std::vector<const ColumnIds*> cell_ids)
      : batch_(batch),
        row_(row),
        scans_(scans),
        cell_ids_(std::move(cell_ids)) {
    new_match_.resize(cell_ids_.size());
    new_frag_state_.resize(cell_ids_.size());
    new_frag_.resize(cell_ids_.size());
    for (size_t i = 0; i < cell_ids_.size(); ++i) {
      if (cell_ids_[i] == nullptr) continue;
      new_match_[i].assign(cell_ids_[i]->new_values.size(), -1);
      new_frag_state_[i].assign(cell_ids_[i]->new_values.size(), -1);
      new_frag_[i].resize(cell_ids_[i]->new_values.size());
    }
  }

  /// True if batch row `r` matches every non-wildcard LHS cell (the exact
  /// candidacy test detection uses).
  bool Matches(RowId r) {
    for (size_t i = 0; i < row_.lhs_cols.size(); ++i) {
      const ConstrainedMatcher* matcher = row_.lhs_matchers[i].get();
      if (matcher == nullptr) continue;
      const int64_t id = cell_ids_[i]->ids[r];
      bool ok;
      if (id >= 0) {
        // Already-absorbed values read the stream's memo (and the column
        // dispatcher's verdicts, which cover every absorbed value).
        ok = scans_[i].Matches(*matcher, static_cast<uint32_t>(id));
      } else {
        int8_t& verdict = new_match_[i][-id - 1];
        if (verdict < 0) {
          verdict = matcher->Matches(cell_ids_[i]->new_values[-id - 1])
                        ? 1
                        : 0;
        }
        ok = verdict != 0;
      }
      if (!ok) return false;
    }
    return true;
  }

  /// Builds batch row `r`'s grouping key (byte-identical to RecordKey, so
  /// it addresses the item's cumulative `ItemState::groups` directly);
  /// false when some pattern cell has no canonical extraction.
  bool Key(RowId r, std::string* key) {
    key->clear();
    for (size_t i = 0; i < row_.lhs_cols.size(); ++i) {
      const ConstrainedMatcher* matcher = row_.lhs_matchers[i].get();
      const std::string_view cell = batch_.cell(r, row_.lhs_cols[i]);
      if (matcher == nullptr) {
        key->append(cell);
        key->push_back('\x1f');
        continue;
      }
      const int64_t id = cell_ids_[i]->ids[r];
      if (id >= 0) {
        const std::string* frag =
            scans_[i].Fragment(*matcher, static_cast<uint32_t>(id));
        if (frag == nullptr) return false;
        key->append(*frag);
      } else {
        int8_t& state = new_frag_state_[i][-id - 1];
        std::string& frag = new_frag_[i][-id - 1];
        if (state < 0) {
          state = AppendKeyFragment(*matcher,
                                    cell_ids_[i]->new_values[-id - 1], &frag)
                      ? 1
                      : 0;
        }
        if (state == 0) return false;
        key->append(frag);
      }
    }
    return true;
  }

 private:
  const Relation& batch_;
  const ResolvedRow& row_;
  std::vector<CellScan>& scans_;
  std::vector<const ColumnIds*> cell_ids_;
  // Batch-local memos, indexed [cell][new-value id].
  std::vector<std::vector<int8_t>> new_match_;
  std::vector<std::vector<int8_t>> new_frag_state_;
  std::vector<std::vector<std::string>> new_frag_;
};

}  // namespace

DetectionStream::DetectionStream(Schema schema, std::vector<Pfd> pfds,
                                 DetectorOptions options)
    : relation_(std::move(schema)),
      pfds_(std::move(pfds)),
      options_(std::move(options)) {}

Result<std::unique_ptr<DetectionStream>> DetectionStream::Open(
    const Schema& schema, std::vector<Pfd> pfds,
    const DetectorOptions& options) {
  DetectorOptions with_cache = detect_internal::WithAutomata(options);
  std::unique_ptr<DetectionStream> stream(
      new DetectionStream(schema, std::move(pfds), std::move(with_cache)));  // lint: new-ok (private ctor, owned by the unique_ptr)
  ANMAT_RETURN_NOT_OK(stream->Init());
  return stream;
}

Status DetectionStream::Init() {
  ANMAT_RETURN_NOT_OK(state_.Open(relation_.schema(), pfds_,
                                  options_.automata.get(),
                                  /*dispatch=*/true, /*writable=*/false));
  // Stream-owned incremental dictionaries for every pattern column, and
  // incremental indexes over the seed columns: the state reads these in
  // place of `Relation::dictionary`, and seeds each batch's candidates from
  // the index's posting tails.
  dicts_.resize(relation_.num_columns());
  indexes_.resize(relation_.num_columns());
  for (const auto& [col, column] : state_.columns()) {
    dicts_[col] = std::make_unique<ColumnDictionary>();
    if (column.seeds) {
      indexes_[col] = std::make_unique<PatternIndex>(
          relation_, col, dicts_[col].get(), options_.automata.get());
    }
    state_.UseColumn(col, dicts_[col].get(), indexes_[col].get());
  }
  return Status::OK();
}

void DetectionStream::ReportConflict(StreamConflict conflict) {
  if (!conflicted_cells_.insert(conflict.cell).second) return;
  batch_conflicts_.push_back(conflict);
  conflicts_.push_back(std::move(conflict));
}

Result<bool> DetectionStream::CleanBatch(const Relation& batch,
                                         Relation* cleaned) {
  // Suggestions never come from a batch-local DetectErrors — and therefore
  // never trigger per-batch dictionary or index rebuilds:
  //
  //  * Constant-rule violations depend only on the violating row's own
  //    cells, so their suggestions are computed directly from the batch
  //    against the stream's resolved rows.
  //  * Variable-rule suggestions come from the *cumulative* equivalence
  //    groups: the absorbed members the detection state already holds in
  //    `ItemState::groups` plus the batch's own members, resolved with the
  //    same majority rule as detection (MajorityBlock).
  //
  // Per-distinct-value match/extraction verdicts are reused from the
  // stream's cross-batch memos when the value was already absorbed (looked
  // up through the incremental dictionary); values the stream has not seen
  // yet are evaluated once per batch via batch-local memos (BatchLhsScan).
  //
  // Majority-flip detection runs alongside: the one-shot pass computes its
  // majorities over the *dirty* concatenation, so for every group the
  // batch touches, the majority is resolved twice — over the stream's
  // cleaned values and over the dirty view (reconstructed through
  // `dirty_overrides_`) — and any disagreement, plus any absorbed cell the
  // one-shot pass would hold a different value in, is surfaced as a
  // StreamConflict instead of a retroactive edit.
  //
  // Every batch cell is resolved against its column's incremental
  // dictionary exactly once (not once per tableau row): the id arrays
  // below are shared by all states touching the column.
  const RowId nbatch = static_cast<RowId>(batch.num_rows());
  const RowId base = static_cast<RowId>(relation_.num_rows());
  std::vector<ColumnIds> columns(batch.num_columns());
  const auto resolve_column = [&](size_t col) -> const ColumnIds& {
    ColumnIds& entry = columns[col];
    if (entry.resolved) return entry;
    entry.resolved = true;
    entry.ids.resize(nbatch);
    const ColumnDictionary* dict = dicts_[col].get();
    std::unordered_map<std::string_view, int64_t> local;
    for (RowId r = 0; r < nbatch; ++r) {
      const std::string_view value = batch.cell(r, col);
      uint32_t id;
      if (dict != nullptr && dict->Lookup(value, &id)) {
        entry.ids[r] = static_cast<int64_t>(id);
      } else {
        auto [it, inserted] = local.try_emplace(
            value, -static_cast<int64_t>(entry.new_values.size()) - 1);
        if (inserted) entry.new_values.push_back(value);
        entry.ids[r] = it->second;
      }
    }
    return entry;
  };
  const auto cell_ids_of = [&](const ResolvedRow& row) {
    std::vector<const ColumnIds*> cell_ids(row.lhs_cols.size(), nullptr);
    for (size_t i = 0; i < row.lhs_cols.size(); ++i) {
      if (row.lhs_matchers[i] != nullptr) {
        cell_ids[i] = &resolve_column(row.lhs_cols[i]);
      }
    }
    return cell_ids;
  };

  // The batch's suggestions are folded twice: `fold` is what the stream
  // applies (variable suggestions against the *cleaned* cumulative
  // majorities), `dirty_fold` is what the one-shot pass would decide for
  // these rows (variable suggestions against the *dirty* majorities,
  // reconstructed through `dirty_overrides_`). Constant suggestions feed
  // both, so cross-kind conflicts resolve identically; any batch cell the
  // two folds decide differently is a majority-flip conflict.
  SuggestionFold fold;
  SuggestionFold dirty_fold;

  // ---- Constant rules -----------------------------------------------------
  for (WorkItem& item : state_.items()) {
    if (!item.constant) continue;
    const ResolvedRow& row = item.row;
    BatchLhsScan scan(batch, row, item.state.scans, cell_ids_of(row));
    for (RowId r = 0; r < nbatch; ++r) {
      if (!scan.Matches(r)) continue;
      // The suggestion EmitConstantViolation would attach: the first
      // mismatched RHS constant, for that cell; empty constants carry no
      // repair (SuggestionFold drops them).
      size_t first_mismatch = row.rhs_cols.size();
      for (size_t i = 0; i < row.rhs_cols.size(); ++i) {
        if (batch.cell(r, row.rhs_cols[i]) != row.rhs_constants[i]) {
          first_mismatch = i;
          break;
        }
      }
      if (first_mismatch == row.rhs_cols.size()) continue;
      const CellRef suspect{
          r, static_cast<uint32_t>(row.rhs_cols[first_mismatch])};
      fold.Add(suspect, row.rhs_constants[first_mismatch], item.pfd_index,
               /*variable=*/false);
      if (clean_variable_rules_) {  // dirty_fold is only read for flips
        dirty_fold.Add(suspect, row.rhs_constants[first_mismatch],
                       item.pfd_index, /*variable=*/false);
      }
    }
  }

  // ---- Variable rules: cumulative majorities + flip detection -------------
  if (clean_variable_rules_) {
    const auto dirty_cell = [&](RowId a, size_t col) -> std::string_view {
      const auto it =
          dirty_overrides_.find(CellRef{a, static_cast<uint32_t>(col)});
      return it != dirty_overrides_.end() ? std::string_view(it->second)
                                          : relation_.cell(a, col);
    };
    // Does some constant rule, applied to absorbed row `a`'s dirty cells,
    // suggest a value other than `value` for `(a, col)`? Then the one-shot
    // fold conflicts on that cell and keeps it dirty (rare slow path: only
    // consulted before flagging a retroactive-repair conflict).
    const auto oneshot_constant_conflict = [&](RowId a, uint32_t col,
                                               const std::string& value) {
      for (const WorkItem& constant : state_.items()) {
        if (!constant.constant) continue;
        const ResolvedRow& crow = constant.row;
        bool lhs_ok = true;
        for (size_t i = 0; i < crow.lhs_cols.size() && lhs_ok; ++i) {
          const ConstrainedMatcher* matcher = crow.lhs_matchers[i].get();
          if (matcher == nullptr) continue;
          lhs_ok = matcher->Matches(dirty_cell(a, crow.lhs_cols[i]));
        }
        if (!lhs_ok) continue;
        size_t first = crow.rhs_cols.size();
        for (size_t i = 0; i < crow.rhs_cols.size(); ++i) {
          if (dirty_cell(a, crow.rhs_cols[i]) != crow.rhs_constants[i]) {
            first = i;
            break;
          }
        }
        if (first == crow.rhs_cols.size()) continue;
        if (crow.rhs_cols[first] != col) continue;
        const std::string& suggestion = crow.rhs_constants[first];
        if (!suggestion.empty() && suggestion != value) return true;
      }
      return false;
    };
    for (WorkItem& item : state_.items()) {
      if (!item.variable) continue;
      const ResolvedRow& row = item.row;
      const uint32_t rhs_front = static_cast<uint32_t>(row.rhs_cols.front());
      const auto batch_rhs = [&](RowId b) {
        return detect_internal::RhsValue(batch, row, b);
      };
      // RhsValue's exact byte format, read through the dirty overrides.
      const auto dirty_rhs = [&](RowId a) {
        std::string value;
        for (size_t col : row.rhs_cols) {
          value.append(dirty_cell(a, col));
          value.push_back('\x1f');
        }
        return value;
      };

      BatchLhsScan scan(batch, row, item.state.scans, cell_ids_of(row));
      std::map<std::string, std::vector<RowId>> batch_groups;
      std::string key;
      key.reserve(32 * row.lhs_cols.size());
      for (RowId r = 0; r < nbatch; ++r) {
        if (scan.Matches(r) && scan.Key(r, &key)) {
          batch_groups[key].push_back(r);
        }
      }

      for (const auto& [gkey, brows] : batch_groups) {
        static const Group kNoGroup;
        static const DirtyGroup kNoDirty;
        const auto git = item.state.groups.find(gkey);
        const Group* group =
            git == item.state.groups.end() ? nullptr : &git->second;
        const Group& absorbed = group != nullptr ? *group : kNoGroup;
        const std::vector<RowId>& arows = absorbed.members;
        if (arows.size() + brows.size() < 2) continue;

        // The absorbed side of the group's dirty split, folded once per
        // member: absorbed rows are never retroactively edited, so their
        // dirty RHS values are immutable. (The cleaned side, `by_rhs`, is
        // kept current by the detection state.)
        DirtyGroup* dirty = group != nullptr ? &dirty_groups_[group] : nullptr;
        if (dirty != nullptr) {
          for (size_t ai = dirty->dirty_of.size(); ai < arows.size(); ++ai) {
            const RowId a = arows[ai];
            const auto it = dirty->by_dirty.try_emplace(dirty_rhs(a)).first;
            it->second.push_back(a);
            dirty->dirty_of.push_back(&it->first);
          }
        }
        const DirtyGroup& absorbed_dirty = dirty != nullptr ? *dirty : kNoDirty;

        // The batch side of the split, in final stream coordinates. One
        // map serves both views: batch rows carry no dirty overrides yet,
        // so their cleaned and dirty RHS values coincide.
        std::map<std::string, std::vector<RowId>> batch_by_rhs;
        std::vector<std::string> brow_rhs;  // parallel to brows
        brow_rhs.reserve(brows.size());
        for (RowId b : brows) {
          brow_rhs.push_back(batch_rhs(b));
          batch_by_rhs[brow_rhs.back()].push_back(base + b);
        }

        // Majority over the merged absorbed + batch split without
        // materializing the combined map, replicating MajorityBlock
        // exactly: keys ascending, strictly greater count wins (ties keep
        // the lexicographically smallest key), witness is the majority
        // block's first member — the absorbed front when the key has
        // absorbed rows (their ids all precede `base`), else the batch
        // front.
        struct Merged {
          bool violated = false;        // > 1 distinct RHS value
          const std::string* key = nullptr;
          RowId witness = 0;
        };
        const auto resolve_merged =
            [](const std::map<std::string, std::vector<RowId>>& absorbed,
               const std::map<std::string, std::vector<RowId>>& from_batch) {
              Merged m;
              size_t distinct = 0;
              size_t best = 0;
              auto at = absorbed.begin();
              auto bt = from_batch.begin();
              while (at != absorbed.end() || bt != from_batch.end()) {
                const bool take_a =
                    at != absorbed.end() &&
                    (bt == from_batch.end() || at->first <= bt->first);
                const bool take_b =
                    bt != from_batch.end() &&
                    (at == absorbed.end() || bt->first <= at->first);
                const std::string* key = take_a ? &at->first : &bt->first;
                const size_t count = (take_a ? at->second.size() : 0) +
                                     (take_b ? bt->second.size() : 0);
                const RowId front =
                    take_a ? at->second.front() : bt->second.front();
                if (take_a) ++at;
                if (take_b) ++bt;
                ++distinct;
                if (count > best) {
                  best = count;
                  m.key = key;
                  m.witness = front;
                }
              }
              m.violated = distinct > 1;
              return m;
            };
        const Merged stream_m = resolve_merged(absorbed.by_rhs, batch_by_rhs);
        const Merged dirty_m =
            resolve_merged(absorbed_dirty.by_dirty, batch_by_rhs);
        if (!stream_m.violated && !dirty_m.violated) continue;

        // Suggestions for the batch's own minority rows, against the
        // cumulative majority of the stream's (cleaned) view.
        if (stream_m.violated) {
          const RowId witness = stream_m.witness;
          const std::string_view repair =
              witness >= base ? batch.cell(witness - base, rhs_front)
                              : relation_.cell(witness, rhs_front);
          // A majority suggestion is confident as it stands: RepairErrors
          // applies every variable suggestion that survives the fold too.
          for (size_t bi = 0; bi < brows.size(); ++bi) {
            if (brow_rhs[bi] == *stream_m.key) continue;
            fold.Add(CellRef{brows[bi], rhs_front}, repair, item.pfd_index,
                     /*variable=*/true);
          }
        }

        // Flip detection against the dirty view (what the one-shot pass
        // resolves); see the header's majority-flip semantics. The dirty
        // majority's suggestions for the batch's own rows go into
        // `dirty_fold` — divergence is judged on resolved outcomes, not on
        // raw majority keys, so a majority that moved without changing any
        // decision stays conflict-free.
        std::string dirty_repair;
        if (dirty_m.violated) {
          const RowId witness = dirty_m.witness;
          dirty_repair = witness >= base
                             ? batch.cell(witness - base, rhs_front)
                             : dirty_cell(witness, rhs_front);
          for (size_t bi = 0; bi < brows.size(); ++bi) {
            if (brow_rhs[bi] == *dirty_m.key) continue;
            dirty_fold.Add(CellRef{brows[bi], rhs_front}, dirty_repair,
                           item.pfd_index, /*variable=*/true);
          }
        }
        if (dirty == nullptr) continue;  // nothing absorbed to walk

        // Walk the absorbed members whose verdict may have changed: all of
        // them when the dirty majority moved since the last walk, else
        // only those absorbed since (the watermark invariant in the header).
        DirtyMajority majority;
        if (dirty_m.violated) {
          majority = DirtyMajority{true, *dirty_m.key, dirty_repair};
        }
        const size_t from =
            majority == dirty->examined_majority ? dirty->examined : 0;
        for (size_t ai = from; ai < arows.size(); ++ai) {
          const CellRef cell{arows[ai], rhs_front};
          const std::string_view current =
              relation_.cell(cell.row, cell.column);
          if (dirty_m.violated && *dirty->dirty_of[ai] != *dirty_m.key &&
              !dirty_repair.empty()) {
            // The one-shot pass repairs this absorbed minority cell (empty
            // suggestions are never applied — SuggestionFold drops them —
            // so an empty majority value falls through to the branch
            // below); the stream keeps it unless it already holds that
            // value — or unless a disagreeing constant suggestion makes
            // the one-shot fold conflict and keep the cell dirty, like the
            // stream did.
            if (current != dirty_repair &&
                !(current == dirty_cell(cell.row, cell.column) &&
                  oneshot_constant_conflict(cell.row, cell.column,
                                            dirty_repair))) {
              ReportConflict(StreamConflict{
                  StreamConflict::Kind::kRetroactiveRepair, cell,
                  std::string(current), dirty_repair, item.pfd_index,
                  num_batches_});
            }
          } else if (variable_repaired_.count(cell) > 0 &&
                     current != dirty_cell(cell.row, cell.column)) {
            // An earlier majority repaired this cell, but the dirty view's
            // majority now sides with its original value — the one-shot
            // pass would have left it alone.
            ReportConflict(StreamConflict{
                StreamConflict::Kind::kRetroactiveRepair, cell,
                std::string(current),
                std::string(dirty_cell(cell.row, cell.column)),
                item.pfd_index, num_batches_});
          }
        }
        dirty->examined = arows.size();
        dirty->examined_majority = std::move(majority);
      }
    }
  }

  bool copied = false;  // most batches of a clean feed need no repair —
                        // only pay the batch copy when one applies
  for (const auto& [cell, suggestion] : fold.Resolve()) {
    std::string before(batch.cell(cell.row, cell.column));
    if (before == suggestion.value) continue;
    if (!copied) {
      *cleaned = batch;
      copied = true;
    }
    cleaned->set_cell(cell.row, cell.column, suggestion.value);
    const CellRef stream_cell{base + cell.row, cell.column};
    dirty_overrides_.emplace(stream_cell, before);
    if (suggestion.variable) variable_repaired_.insert(stream_cell);
    AppliedRepair applied;
    applied.cell = stream_cell;
    applied.before = std::move(before);
    applied.after = suggestion.value;
    applied.pass = num_batches_;  // which batch applied it
    applied.pfd_index = suggestion.pfd_index;
    batch_repairs_.push_back(applied);
    repairs_.push_back(std::move(applied));
  }

  // Outcome comparison between the two folds: any batch cell the stream's
  // cleaned-majority decisions and the one-shot pass's dirty-majority
  // decisions resolve to different values is a majority-flip conflict.
  // (A cell absent from a fold keeps its dirty value on that side; equal
  // resolved values — including no-op suggestions — are conflict-free.)
  if (clean_variable_rules_) {
    const auto& applied = fold.Resolve();
    const auto& expected = dirty_fold.Resolve();
    auto it = applied.begin();
    auto jt = expected.begin();
    while (it != applied.end() || jt != expected.end()) {
      CellRef cell;
      if (jt == expected.end() ||
          (it != applied.end() && it->first < jt->first)) {
        cell = it->first;
      } else if (it == applied.end() || jt->first < it->first) {
        cell = jt->first;
      } else {
        cell = it->first;
      }
      const std::string_view dirty_value = batch.cell(cell.row, cell.column);
      const std::string_view stream_outcome =
          (it != applied.end() && it->first == cell)
              ? std::string_view(it->second.value)
              : dirty_value;
      const std::string_view oneshot_outcome =
          (jt != expected.end() && jt->first == cell)
              ? std::string_view(jt->second.value)
              : dirty_value;
      const size_t pfd = (it != applied.end() && it->first == cell)
                             ? it->second.pfd_index
                             : jt->second.pfd_index;
      if (it != applied.end() && it->first == cell) ++it;
      if (jt != expected.end() && jt->first == cell) ++jt;
      if (stream_outcome != oneshot_outcome) {
        ReportConflict(StreamConflict{
            StreamConflict::Kind::kMajorityFlip,
            CellRef{base + cell.row, cell.column},
            std::string(stream_outcome), std::string(oneshot_outcome), pfd,
            num_batches_});
      }
    }
  }

  // A repair that changed a cell some variable rule groups by moves the
  // row into a different equivalence group than it holds in the dirty
  // concatenation — every later majority it participates in can diverge
  // from the one-shot pass, so surface it now.
  if (copied && clean_variable_rules_) {
    const auto membership_key = [](const ResolvedRow& row,
                                   const Relation& rel, RowId r,
                                   std::string* key) {
      key->clear();
      for (size_t i = 0; i < row.lhs_cols.size(); ++i) {
        const std::string_view cell = rel.cell(r, row.lhs_cols[i]);
        const ConstrainedMatcher* matcher = row.lhs_matchers[i].get();
        if (matcher == nullptr) {
          key->append(cell);
          key->push_back('\x1f');
          continue;
        }
        if (!matcher->Matches(cell)) return false;
        if (!AppendKeyFragment(*matcher, cell, key)) return false;
      }
      return true;
    };
    std::string dirty_key;
    std::string clean_key;
    for (const AppliedRepair& applied : batch_repairs_) {
      const RowId b = applied.cell.row - base;
      for (const WorkItem& item : state_.items()) {
        if (!item.variable) continue;
        const ResolvedRow& row = item.row;
        if (std::find(row.lhs_cols.begin(), row.lhs_cols.end(),
                      static_cast<size_t>(applied.cell.column)) ==
            row.lhs_cols.end()) {
          continue;
        }
        const bool dirty_member = membership_key(row, batch, b, &dirty_key);
        const bool clean_member =
            membership_key(row, *cleaned, b, &clean_key);
        if (dirty_member != clean_member ||
            (dirty_member && dirty_key != clean_key)) {
          ReportConflict(StreamConflict{StreamConflict::Kind::kKeyDivergence,
                                        applied.cell, applied.after,
                                        applied.before, item.pfd_index,
                                        num_batches_});
        }
      }
    }
  }
  return copied;
}

Result<DetectionResult> DetectionStream::AppendBatch(const Relation& batch) {
  if (batch.num_columns() != relation_.num_columns()) {
    return Status::InvalidArgument(
        "batch has " + std::to_string(batch.num_columns()) +
        " columns; the stream schema has " +
        std::to_string(relation_.num_columns()));
  }
  for (size_t c = 0; c < batch.num_columns(); ++c) {
    if (batch.schema().column(c).name != relation_.schema().column(c).name) {
      return Status::InvalidArgument(
          "batch column " + std::to_string(c) + " is named \"" +
          batch.schema().column(c).name + "\"; the stream schema expects \"" +
          relation_.schema().column(c).name + "\"");
    }
  }

  batch_repairs_.clear();
  batch_conflicts_.clear();
  Relation cleaned;
  const Relation* rows_in = &batch;
  if (clean_on_ingest_) {
    ANMAT_ASSIGN_OR_RETURN(bool repaired, CleanBatch(batch, &cleaned));
    if (repaired) rows_in = &cleaned;
  }

  const RowId first_row = static_cast<RowId>(relation_.num_rows());
  for (RowId r = 0; r < rows_in->num_rows(); ++r) {
    ANMAT_RETURN_NOT_OK(relation_.AppendRow(rows_in->Row(r)));
  }
  const RowId end_row = static_cast<RowId>(relation_.num_rows());

  // Extend the incremental structures before the state reads them.
  for (size_t c = 0; c < dicts_.size(); ++c) {
    if (dicts_[c] != nullptr) {
      dicts_[c]->Append(rows_in->column(c), first_row);
    }
  }
  for (size_t c = 0; c < indexes_.size(); ++c) {
    if (indexes_[c] != nullptr) indexes_[c]->AppendRows(first_row, end_row);
  }
  ++num_batches_;
  return state_.Absorb(relation_, options_.execution, /*release=*/false);
}

Result<DetectionResult> DetectionStream::AppendRows(
    const std::vector<std::vector<std::string>>& rows) {
  Relation batch(relation_.schema());
  for (const std::vector<std::string>& row : rows) {
    ANMAT_RETURN_NOT_OK(batch.AppendRow(row));
  }
  return AppendBatch(batch);
}

size_t DetectionStream::distinct_values() const {
  size_t total = 0;
  for (const std::unique_ptr<ColumnDictionary>& dict : dicts_) {
    if (dict != nullptr) total += dict->num_values();
  }
  return total;
}

}  // namespace anmat
