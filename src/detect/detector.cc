#include "detect/detector.h"

#include <algorithm>
#include <cassert>
#include <iterator>
#include <map>
#include <memory>
#include <set>

#include "detect/detector_internal.h"
#include "dispatch/dispatch_plan.h"
#include "pattern/matcher.h"

namespace anmat {

// ---------------------------------------------------------------------------
// Internals declared in detector_internal.h
// ---------------------------------------------------------------------------

namespace detect_internal {

ResolvedRow ResolveRow(const TableauRow& row,
                       const std::vector<size_t>& lhs_cols,
                       const std::vector<size_t>& rhs_cols,
                       const std::vector<std::string>& lhs_attrs,
                       const std::vector<std::string>& rhs_attrs,
                       AutomatonCache* automata) {
  ResolvedRow resolved;
  resolved.row = &row;
  resolved.lhs_cols = lhs_cols;
  resolved.rhs_cols = rhs_cols;
  resolved.lhs_attrs = lhs_attrs;
  resolved.rhs_attrs = rhs_attrs;
  for (const TableauCell& cell : row.lhs) {
    resolved.lhs_matchers.push_back(
        cell.is_wildcard()
            ? nullptr
            : std::make_unique<ConstrainedMatcher>(cell.pattern(), automata));
  }
  if (row.IsConstantRow()) {
    for (const TableauCell& cell : row.rhs) {
      std::string constant;
      cell.IsConstant(&constant);
      resolved.rhs_constants.push_back(std::move(constant));
    }
  }
  return resolved;
}

size_t SeedCell(const ResolvedRow& row) {
  for (size_t i = 0; i < row.lhs_cols.size(); ++i) {
    if (row.lhs_matchers[i] != nullptr) return i;
  }
  return row.lhs_cols.size();
}

void SortViolations(std::vector<Violation>* violations) {
  std::sort(violations->begin(), violations->end(),
            [](const Violation& a, const Violation& b) {
              if (a.pfd_index != b.pfd_index) return a.pfd_index < b.pfd_index;
              if (a.tableau_row != b.tableau_row) {
                return a.tableau_row < b.tableau_row;
              }
              return a.cells < b.cells;
            });
}

bool AppendKeyFragment(const ConstrainedMatcher& matcher,
                       std::string_view value, std::string* key) {
  Extraction extraction;
  if (!matcher.ExtractCanonical(value, &extraction)) return false;
  for (const std::string& part : extraction) {
    key->append(part);
    key->push_back('\x1f');
  }
  key->push_back('\x1e');
  return true;
}

bool MatchesLhs(const ResolvedRow& row, std::vector<CellScan>& scans, RowId r,
                size_t skip_cell) {
  for (size_t i = 0; i < row.lhs_cols.size(); ++i) {
    if (i == skip_cell || row.lhs_matchers[i] == nullptr) continue;
    CellScan& scan = scans[i];
    if (!scan.Matches(*row.lhs_matchers[i], scan.dict->value_id(r))) {
      return false;
    }
  }
  return true;
}

bool RecordKey(const Relation& relation, const ResolvedRow& row,
               std::vector<CellScan>& scans, RowId r, std::string* key) {
  key->clear();
  for (size_t i = 0; i < row.lhs_cols.size(); ++i) {
    if (row.lhs_matchers[i] == nullptr) {
      key->append(relation.cell(r, row.lhs_cols[i]));
      key->push_back('\x1f');
      continue;
    }
    CellScan& scan = scans[i];
    const std::string* frag =
        scan.Fragment(*row.lhs_matchers[i], scan.dict->value_id(r));
    if (frag == nullptr) return false;
    key->append(*frag);
  }
  return true;
}

std::string RhsValue(const Relation& relation, const ResolvedRow& row,
                     RowId r) {
  std::string value;
  for (size_t i = 0; i < row.rhs_cols.size(); ++i) {
    value.append(relation.cell(r, row.rhs_cols[i]));
    value.push_back('\x1f');
  }
  return value;
}

bool EmitConstantViolation(const Relation& relation, size_t pfd_index,
                           size_t row_index, const ResolvedRow& row, RowId r,
                           std::vector<Violation>* out) {
  // Every RHS cell must equal its constant; collect mismatches.
  std::vector<size_t> mismatches;
  for (size_t i = 0; i < row.rhs_cols.size(); ++i) {
    if (relation.cell(r, row.rhs_cols[i]) != row.rhs_constants[i]) {
      mismatches.push_back(i);
    }
  }
  if (mismatches.empty()) return false;

  Violation v;
  v.kind = ViolationKind::kConstant;
  v.pfd_index = pfd_index;
  v.tableau_row = row_index;
  for (size_t col : row.lhs_cols) {
    v.cells.push_back(CellRef{r, static_cast<uint32_t>(col)});
  }
  for (size_t i : mismatches) {
    v.cells.push_back(CellRef{r, static_cast<uint32_t>(row.rhs_cols[i])});
  }
  const size_t first = mismatches.front();
  v.suspect = CellRef{r, static_cast<uint32_t>(row.rhs_cols[first])};
  v.suggested_repair = row.rhs_constants[first];
  v.explanation = row.lhs_attrs[0] + " = \"";
  v.explanation += relation.cell(r, row.lhs_cols[0]);
  v.explanation += "\" matches " + row.row->lhs[0].ToString() + " but " +
                   row.rhs_attrs[first] + " = \"";
  v.explanation += relation.cell(r, row.rhs_cols[first]);
  v.explanation += "\" != \"" + row.rhs_constants[first] + "\"";
  out->push_back(std::move(v));
  return true;
}

void EmitPairViolation(const Relation& relation, size_t pfd_index,
                       size_t row_index, const ResolvedRow& row,
                       RowId suspect_row, RowId witness,
                       const std::string& majority_repair,
                       std::vector<Violation>* out) {
  Violation v;
  v.kind = ViolationKind::kVariable;
  v.pfd_index = pfd_index;
  v.tableau_row = row_index;
  for (size_t col : row.lhs_cols) {
    v.cells.push_back(CellRef{suspect_row, static_cast<uint32_t>(col)});
  }
  for (size_t col : row.rhs_cols) {
    v.cells.push_back(CellRef{suspect_row, static_cast<uint32_t>(col)});
  }
  for (size_t col : row.lhs_cols) {
    v.cells.push_back(CellRef{witness, static_cast<uint32_t>(col)});
  }
  for (size_t col : row.rhs_cols) {
    v.cells.push_back(CellRef{witness, static_cast<uint32_t>(col)});
  }
  v.suspect =
      CellRef{suspect_row, static_cast<uint32_t>(row.rhs_cols.front())};
  v.suggested_repair = majority_repair;
  v.explanation =
      "rows " + std::to_string(suspect_row) + " and " +
      std::to_string(witness) + " agree on the constrained part of the LHS " +
      "but disagree on " + row.rhs_attrs.front() + " (\"";
  v.explanation += relation.cell(suspect_row, row.rhs_cols.front());
  v.explanation += "\" vs \"";
  v.explanation += relation.cell(witness, row.rhs_cols.front());
  v.explanation += "\")";
  out->push_back(std::move(v));
}

const std::pair<const std::string, std::vector<RowId>>& MajorityBlock(
    const std::map<std::string, std::vector<RowId>>& by_rhs) {
  const std::pair<const std::string, std::vector<RowId>>* best =
      &*by_rhs.begin();
  for (const auto& entry : by_rhs) {
    if (entry.second.size() > best->second.size()) best = &entry;
  }
  return *best;
}

void ResolveGroup(const Relation& relation, size_t pfd_index,
                  size_t row_index, const ResolvedRow& row,
                  const std::map<std::string, std::vector<RowId>>& by_rhs,
                  size_t size, RowId first_suspect, DetectionResult* result) {
  if (by_rhs.size() <= 1) return;
  // Blocking only pays for pairs inside conflicting blocks.
  result->stats.pairs_checked += size * (size - 1) / 2;

  const auto& majority = MajorityBlock(by_rhs);
  const std::string* majority_key = &majority.first;
  const RowId witness = majority.second.front();
  // Repair suggestion: the witness's first RHS attribute value.
  const std::string majority_repair(
      relation.cell(witness, row.rhs_cols.front()));
  for (const auto& [rhs, ids] : by_rhs) {
    if (rhs == *majority_key) continue;
    for (auto it = std::lower_bound(ids.begin(), ids.end(), first_suspect);
         it != ids.end(); ++it) {
      EmitPairViolation(relation, pfd_index, row_index, row, *it, witness,
                        majority_repair, &result->violations);
    }
  }
}

}  // namespace detect_internal

// ---------------------------------------------------------------------------
// The detection state
// ---------------------------------------------------------------------------

namespace detect_internal {
namespace {

/// One PFD's columns, looked up in the schema once.
struct PfdPlan {
  std::vector<size_t> lhs_cols;
  std::vector<size_t> rhs_cols;
};

/// Validates `pfd` against `schema` and looks up its columns.
Result<PfdPlan> PlanPfd(const Pfd& pfd, const Schema& schema) {
  ANMAT_RETURN_NOT_OK(pfd.Validate(schema));
  PfdPlan plan;
  for (const std::string& a : pfd.lhs_attrs()) {
    ANMAT_ASSIGN_OR_RETURN(size_t idx, schema.IndexOf(a));
    plan.lhs_cols.push_back(idx);
  }
  for (const std::string& a : pfd.rhs_attrs()) {
    ANMAT_ASSIGN_OR_RETURN(size_t idx, schema.IndexOf(a));
    plan.rhs_cols.push_back(idx);
  }
  return plan;
}

bool Reads(const std::vector<size_t>& cols, size_t col) {
  return std::find(cols.begin(), cols.end(), col) != cols.end();
}

/// Whether `item` absorbs rows up to `num_rows` in this run. Only constant
/// and variable rows are detected; a row with a pattern-valued RHS
/// constrains format only, which is the profiler's job.
bool Absorbs(const WorkItem& item, RowId num_rows) {
  return (item.constant || item.variable) && item.state.absorbed < num_rows;
}

/// Brings `group`'s slice up to date after it grew by the members from
/// `first_row` on. A violation depends only on its suspect and the
/// majority block's first member, so a group resolved before under the
/// same majority block keeps its violations and adds those of its new
/// members; a moved majority re-emits the group.
void UpdateGroup(const Relation& relation, WorkItem& item, Group& group,
                 RowId first_row) {
  if (group.by_rhs.size() <= 1) return;  // the members agree
  ItemState& state = item.state;
  const bool was_violating = !group.slice.violations.empty();
  const std::string* majority = &MajorityBlock(group.by_rhs).first;
  const RowId first_suspect =
      was_violating && majority == group.majority ? first_row : 0;
  if (first_suspect == 0) group.slice.violations.clear();
  state.pairs_checked -= group.slice.stats.pairs_checked;
  group.slice.stats.pairs_checked = 0;
  ResolveGroup(relation, item.pfd_index, item.row_index, item.row,
               group.by_rhs, group.members.size(), first_suspect,
               &group.slice);
  state.pairs_checked += group.slice.stats.pairs_checked;
  group.majority = majority;
  if (!was_violating) state.violating.push_back(&group);
}

/// Re-emits `item`'s violations from the live cells after a write to one
/// of its RHS columns: constant rows from their candidates, variable rows
/// by re-splitting every group.
void ReEmit(const Relation& relation, WorkItem& item) {
  ItemState& state = item.state;
  state.violations.clear();
  for (RowId r : state.candidates) {
    EmitConstantViolation(relation, item.pfd_index, item.row_index, item.row,
                          r, &state.violations);
  }
  state.violating.clear();
  state.pairs_checked = 0;
  for (auto& [key, group] : state.groups) {
    group.by_rhs.clear();
    for (RowId r : group.members) {
      group.by_rhs[RhsValue(relation, item.row, r)].push_back(r);
    }
    group.slice = DetectionResult{};
    group.majority = nullptr;
    UpdateGroup(relation, item, group, 0);
  }
}

/// Appends `from` to `to`, moving the violations out when `move`.
void AppendViolations(std::vector<Violation>& from, bool move,
                      std::vector<Violation>* to) {
  if (move) {
    to->insert(to->end(), std::make_move_iterator(from.begin()),
               std::make_move_iterator(from.end()));
  } else {
    to->insert(to->end(), from.begin(), from.end());
  }
}

}  // namespace

Status DetectionState::Open(const Schema& schema, const std::vector<Pfd>& pfds,
                            AutomatonCache* automata, bool dispatch,
                            bool writable) {
  assert(automata != nullptr && "entry points install a cache (WithAutomata)");
  // Validate every PFD before resolving any, so the first error reported
  // is the first PFD's.
  std::vector<PfdPlan> plans;
  plans.reserve(pfds.size());
  for (const Pfd& pfd : pfds) {
    ANMAT_ASSIGN_OR_RETURN(PfdPlan plan, PlanPfd(pfd, schema));
    plans.push_back(std::move(plan));
  }
  for (size_t pi = 0; pi < pfds.size(); ++pi) {
    const Pfd& pfd = pfds[pi];
    for (size_t ri = 0; ri < pfd.tableau().size(); ++ri) {
      const TableauRow& trow = pfd.tableau().row(ri);
      WorkItem item;
      item.pfd_index = pi;
      item.row_index = ri;
      item.constant = trow.IsConstantRow();
      item.variable = trow.IsVariableRow();
      item.row = ResolveRow(trow, plans[pi].lhs_cols, plans[pi].rhs_cols,
                            pfd.lhs_attrs(), pfd.rhs_attrs(), automata);
      item.slots.assign(trow.lhs.size(), 0);
      for (size_t c = 0; c < trow.lhs.size(); ++c) {
        if (item.row.lhs_matchers[c] != nullptr) {
          columns_[item.row.lhs_cols[c]];
        }
      }
      if (item.constant || item.variable) {
        columns_[item.row.lhs_cols[SeedCell(item.row)]].seeds = true;
      }
      items_.push_back(std::move(item));
    }
  }
  automata_ = automata;
  num_pfds_ = pfds.size();
  dispatch_ = dispatch;
  writable_ = writable;
  return Status::OK();
}

void DetectionState::UseColumn(size_t col, const ColumnDictionary* dict,
                               const PatternIndex* index) {
  const auto it = columns_.find(col);
  if (it == columns_.end()) return;  // no pattern cell reads the column
  it->second.external_dict = dict;
  it->second.index = index;
}

void DetectionState::RecordWrite(size_t col) {
  assert(writable_ && "only a writable state keeps what ReEmit reads");
  for (WorkItem& item : items_) {
    if (Reads(item.row.lhs_cols, col)) {
      item.state = ItemState{};
    } else if (Reads(item.row.rhs_cols, col)) {
      item.state.rhs_written = true;
    }
  }
  const auto it = columns_.find(col);
  if (it == columns_.end()) return;
  ColumnState& column = it->second;
  column.stale = true;
  if (column.owned_index != nullptr) {
    column.owned_index.reset();
    column.index = nullptr;
  }
}

void DetectionState::PrepareColumns(const Relation& relation, RowId num_rows,
                                    const ExecutionOptions& execution) {
  // The pattern columns the absorbing items read.
  std::set<size_t> read;
  for (const WorkItem& item : items_) {
    if (!Absorbs(item, num_rows)) continue;
    for (size_t c = 0; c < item.row.lhs_cols.size(); ++c) {
      if (item.row.lhs_matchers[c] != nullptr) {
        read.insert(item.row.lhs_cols[c]);
      }
    }
  }

  // Multi-pattern dispatch: every pattern of a column, compiled into union
  // automata over signature-sorted groups of slots shared through the
  // cache, classifies each distinct value with one scan per group instead
  // of one automaton walk per (pattern, value). Slots the unions do not
  // cover keep the per-pattern path. A stale column (first run, or
  // written) registers all its patterns again, so its union keys never
  // change.
  for (const size_t col : read) {
    ColumnState& column = columns_.at(col);
    if (!column.stale) continue;
    column.stale = false;
    column.classified = 0;
    column.dispatcher.reset();
    if (!dispatch_) continue;
    auto dispatcher = std::make_unique<ColumnDispatcher>();
    for (WorkItem& item : items_) {
      for (size_t c = 0; c < item.row.lhs_cols.size(); ++c) {
        if (item.row.lhs_matchers[c] != nullptr &&
            item.row.lhs_cols[c] == col) {
          item.slots[c] = dispatcher->AddPattern(
              item.row.row->lhs[c].pattern().EmbeddedPattern());
        }
      }
    }
    if (dispatcher->Compile(automata_)) {
      column.dispatcher = std::move(dispatcher);
    }
  }

  // One task per column: its dictionary, its seed index, and the new
  // values' classification. A seed column builds an index unless its
  // dispatcher covers every slot.
  std::vector<std::pair<size_t, ColumnState*>> cols;
  bool external = false;
  for (const size_t col : read) {
    cols.emplace_back(col, &columns_.at(col));
    external = external || cols.back().second->external_dict != nullptr;
  }
  // Caller-grown columns hold built dictionaries and indexes, and classify
  // only the values new since the last run: too little to fan out.
  const ExecutionOptions serial;
  ParallelFor(external ? serial : execution, cols.size(), [&](size_t i) {
    const size_t col = cols[i].first;
    ColumnState& column = *cols[i].second;
    column.dict = column.external_dict != nullptr ? column.external_dict
                                                  : &relation.dictionary(col);
    ColumnDispatcher* dispatcher = column.dispatcher.get();
    if (column.index == nullptr && column.external_dict == nullptr &&
        column.seeds &&
        (dispatcher == nullptr || !dispatcher->fully_covered())) {
      column.owned_index =
          std::make_unique<PatternIndex>(relation, col, automata_);
      column.index = column.owned_index.get();
    }
    const auto num_values = static_cast<uint32_t>(column.dict->num_values());
    if (dispatcher == nullptr || column.classified >= num_values) return;
    dispatcher->ClassifyValues(*column.dict, column.classified);
    column.classified = num_values;
  });
}

void DetectionState::AbsorbItem(const Relation& relation, WorkItem& item,
                                RowId num_rows, std::vector<bool>* covered) {
  ItemState& state = item.state;
  const ResolvedRow& row = item.row;
  const RowId first_row = state.absorbed;
  if (first_row == 0) state.scans.assign(row.lhs_cols.size(), CellScan{});
  for (size_t c = 0; c < row.lhs_cols.size(); ++c) {
    if (row.lhs_matchers[c] == nullptr) continue;
    const ColumnState& column = columns_.at(row.lhs_cols[c]);
    CellScan& scan = state.scans[c];
    scan.dict = column.dict;
    if (first_row == 0 && column.dispatcher != nullptr &&
        column.dispatcher->covers(item.slots[c])) {
      scan.preset_match = column.dispatcher->verdicts(item.slots[c]);
      scan.preset_ids = column.dispatcher->match_ids(item.slots[c]);
    }
  }

  // Candidates: from row 0, the rows matching the seed cell exactly — the
  // dispatcher's matching values fanned out over their postings, else the
  // index lookup — verified on the other cells; later rows come from the
  // seed index's posting tails (a superset), verified on every cell.
  const size_t seed = SeedCell(row);
  const CellScan& seed_scan = state.scans[seed];
  const PatternIndex* index = columns_.at(row.lhs_cols[seed]).index;
  assert(index != nullptr ||
         (first_row == 0 && seed_scan.preset_ids != nullptr));
  std::vector<RowId> seeded;
  size_t verified_seed = seed;
  if (first_row > 0) {
    seeded = index->CandidateSuperset(
        row.row->lhs[seed].pattern().EmbeddedPattern(), first_row);
    verified_seed = static_cast<size_t>(-1);
  } else if (seed_scan.preset_ids != nullptr) {
    for (const uint32_t id : *seed_scan.preset_ids) {
      const std::vector<RowId>& rows = seed_scan.dict->rows(id);
      seeded.insert(seeded.end(), rows.begin(), rows.end());
    }
    std::sort(seeded.begin(), seeded.end());
  } else {
    seeded = index->Lookup(row.row->lhs[seed].pattern());
  }

  std::string key;
  key.reserve(32 * row.lhs_cols.size());
  std::vector<Group*> grown;
  for (const RowId r : seeded) {
    if (!MatchesLhs(row, state.scans, r, verified_seed)) continue;
    ++state.candidate_rows;
    if (covered != nullptr) (*covered)[r] = true;
    if (item.constant) {
      if (writable_) state.candidates.push_back(r);
      EmitConstantViolation(relation, item.pfd_index, item.row_index, row, r,
                            &state.violations);
    } else if (RecordKey(relation, row, state.scans, r, &key)) {
      Group& group = state.groups[key];
      if (group.members.empty() || group.members.back() < first_row) {
        grown.push_back(&group);
      }
      group.members.push_back(r);
      group.by_rhs[RhsValue(relation, row, r)].push_back(r);
    }
  }
  // Only the groups these rows grew can change their violations.
  for (Group* group : grown) UpdateGroup(relation, item, *group, first_row);
  state.absorbed = num_rows;
}

DetectionResult DetectionState::Absorb(const Relation& relation,
                                       const ExecutionOptions& execution,
                                       bool release,
                                       std::vector<bool>* covered) {
  assert(covered == nullptr || execution.EffectiveThreads() == 1);
  const RowId num_rows = static_cast<RowId>(relation.num_rows());
  PrepareColumns(relation, num_rows, execution);

  // One task per work item; task i alone touches item i (its matchers,
  // memos and state). With `release` the task keeps only the item's share
  // of the result.
  ParallelFor(execution, items_.size(), [&](size_t i) {
    WorkItem& item = items_[i];
    ItemState& state = item.state;
    if (state.rhs_written) {
      ReEmit(relation, item);
      state.rhs_written = false;
    }
    if (Absorbs(item, num_rows)) AbsorbItem(relation, item, num_rows, covered);
    if (release) {
      ItemState share;
      share.candidate_rows = state.candidate_rows;
      share.pairs_checked = state.pairs_checked;
      share.violations = std::move(state.violations);
      for (Group* group : state.violating) {
        AppendViolations(group->slice.violations, true, &share.violations);
      }
      state = std::move(share);
    }
  });

  // Merged in item order, then sorted: byte-identical at any thread count.
  DetectionResult result;
  result.stats.rows_scanned = relation.num_rows() * num_pfds_;
  for (WorkItem& item : items_) {
    ItemState& state = item.state;
    result.stats.candidate_rows += state.candidate_rows;
    result.stats.pairs_checked += state.pairs_checked;
    AppendViolations(state.violations, release, &result.violations);
    for (Group* group : state.violating) {
      AppendViolations(group->slice.violations, release, &result.violations);
    }
  }
  SortViolations(&result.violations);
  result.stats.violations = result.violations.size();
  return result;
}

Result<DetectionResult> DetectErrorsKeepingState(
    const Relation& relation, const std::vector<Pfd>& pfds,
    const DetectorOptions& options, DetectionState* kept) {
  DetectionState one_shot;
  DetectionState& state = kept != nullptr ? *kept : one_shot;
  if (!state.opened()) {
    ANMAT_RETURN_NOT_OK(state.Open(relation.schema(), pfds,
                                   options.automata.get(), /*dispatch=*/true,
                                   /*writable=*/kept != nullptr));
  }
  return state.Absorb(relation, options.execution,
                      /*release=*/kept == nullptr);
}

DetectorOptions WithAutomata(const DetectorOptions& options) {
  DetectorOptions out = options;
  if (out.automata == nullptr) {
    out.automata = std::make_shared<AutomatonCache>();
  }
  return out;
}

}  // namespace detect_internal

Result<DetectionResult> DetectErrors(const Relation& relation,
                                     const std::vector<Pfd>& pfds,
                                     const DetectorOptions& options) {
  return detect_internal::DetectErrorsKeepingState(
      relation, pfds, detect_internal::WithAutomata(options), nullptr);
}

Result<DetectionResult> DetectErrors(const Relation& relation, const Pfd& pfd,
                                     const DetectorOptions& options) {
  return DetectErrors(relation, std::vector<Pfd>{pfd}, options);
}

ColumnIndexes BuildColumnIndexes(const Relation& relation,
                                 const std::vector<size_t>& cols,
                                 AutomatonCache* automata,
                                 const ExecutionOptions& execution) {
  std::vector<std::unique_ptr<PatternIndex>> built(cols.size());
  ParallelFor(execution, cols.size(), [&](size_t i) {
    built[i] = std::make_unique<PatternIndex>(relation, cols[i], automata);
  });
  ColumnIndexes indexes;
  for (size_t i = 0; i < cols.size(); ++i) {
    indexes.emplace(cols[i], std::move(built[i]));
  }
  return indexes;
}

Result<CoverageStats> ComputeCoverage(const Pfd& pfd, const Relation& relation,
                                      AutomatonCache* automata,
                                      const ColumnIndexes* indexes) {
  // A serial run without union automata (a union compiled for one
  // candidate PFD would never be probed again): index-seeded candidates
  // and per-value memos.
  const std::vector<Pfd> pfds = {pfd};
  detect_internal::DetectionState state;
  ANMAT_RETURN_NOT_OK(state.Open(relation.schema(), pfds, automata,
                                 /*dispatch=*/false, /*writable=*/false));
  if (indexes != nullptr) {
    for (const auto& [col, index] : *indexes) {
      state.UseColumn(col, nullptr, index.get());
    }
  }
  std::vector<bool> covered(relation.num_rows(), false);
  const DetectionResult result =
      state.Absorb(relation, ExecutionOptions{}, /*release=*/true, &covered);

  std::vector<bool> violating(relation.num_rows(), false);
  for (const Violation& v : result.violations) violating[v.suspect.row] = true;
  CoverageStats stats;
  stats.total_rows = relation.num_rows();
  stats.covered_rows =
      static_cast<size_t>(std::count(covered.begin(), covered.end(), true));
  stats.violating_rows = static_cast<size_t>(
      std::count(violating.begin(), violating.end(), true));
  return stats;
}

}  // namespace anmat
