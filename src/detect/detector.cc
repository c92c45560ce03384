#include "detect/detector.h"

#include <algorithm>
#include <cassert>
#include <map>
#include <memory>
#include <set>

#include "detect/detector_internal.h"
#include "dispatch/dispatch_plan.h"
#include "pattern/matcher.h"

namespace anmat {

// ---------------------------------------------------------------------------
// Shared internals (declared in detector_internal.h; the streaming detector
// in detection_stream.cc drives the same definitions).
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

void ResolveGroups(const Relation& relation, size_t pfd_index,
                   size_t row_index, const ResolvedRow& row,
                   const std::map<std::string, std::vector<RowId>>& groups,
                   DetectionResult* result) {
  for (const auto& [key, rows] : groups) {
    if (rows.size() < 2) continue;
    std::map<std::string, std::vector<RowId>> by_rhs;
    for (RowId r : rows) {
      by_rhs[RhsValue(relation, row, r)].push_back(r);
    }
    ResolveGroup(relation, pfd_index, row_index, row, by_rhs, rows.size(),
                 /*first_suspect=*/0, result);
  }
}

}  // namespace detect_internal

// ---------------------------------------------------------------------------
// One-shot detection
// ---------------------------------------------------------------------------

namespace {

using detect_internal::CellScan;
using detect_internal::ResolvedRow;

/// Per-(work item, LHS cell) handle into a column dispatcher's verdicts.
struct DispatchCell {
  const ColumnDispatcher* dispatcher = nullptr;
  uint32_t slot = 0;
};

/// One run's multi-pattern dispatch tables: a `ColumnDispatcher` per LHS
/// column (union automata shared through the engine cache) plus the
/// (item, cell) -> slot map the scan setup reads. Built once per
/// detection run, then read-only across every task.
struct DetectDispatch {
  std::map<size_t, ColumnDispatcher> by_col;
  std::vector<std::vector<DispatchCell>> cells;  ///< [item][lhs cell]

  /// Column `col`'s patterns all classify through a compiled dispatcher
  /// (its seed lookups never touch a PatternIndex). Partially-covered
  /// columns still need the index for their uncovered slots.
  bool Covers(size_t col) const {
    auto it = by_col.find(col);
    return it != by_col.end() && it->second.compiled() &&
           it->second.fully_covered();
  }
};

/// Shared context of one detection run (serial: one per run shared across
/// PFDs; parallel: one per (PFD, tableau row) task; coverage: one per call).
struct RunContext {
  const Relation* relation;
  AutomatonCache* automata;
  DetectionResult* result;
  // Lazily-built pattern indexes, one per column.
  std::map<size_t, std::unique_ptr<PatternIndex>> indexes;
  // Pre-built indexes shared read-only across parallel tasks (may be null).
  const std::map<size_t, std::unique_ptr<PatternIndex>>* shared_indexes =
      nullptr;
  // Pre-classified dispatch verdicts shared read-only (may be null).
  const DetectDispatch* dispatch = nullptr;
  // Rows matching some detected tableau row's LHS, set per candidate
  // (`ComputeCoverage` only; null in detection runs).
  std::vector<bool>* covered = nullptr;

  const PatternIndex& IndexFor(size_t col) {
    if (shared_indexes != nullptr) {
      if (auto it = shared_indexes->find(col); it != shared_indexes->end()) {
        return *it->second;
      }
    }
    auto it = indexes.find(col);
    if (it == indexes.end()) {
      it = indexes
               .emplace(col, std::make_unique<PatternIndex>(*relation, col,
                                                            automata))
               .first;
    }
    return *it->second;
  }
};

std::vector<CellScan> MakeScans(RunContext& ctx, const ResolvedRow& row,
                                size_t item) {
  std::vector<CellScan> scans(row.lhs_cols.size());
  for (size_t i = 0; i < row.lhs_cols.size(); ++i) {
    if (row.lhs_matchers[i] == nullptr) continue;
    scans[i].dict = &ctx.relation->dictionary(row.lhs_cols[i]);
    if (ctx.dispatch != nullptr) {
      const DispatchCell& dc = ctx.dispatch->cells[item][i];
      if (dc.dispatcher != nullptr && dc.dispatcher->compiled() &&
          dc.dispatcher->covers(dc.slot)) {
        scans[i].preset_match = dc.dispatcher->verdicts(dc.slot);
        scans[i].preset_ids = dc.dispatcher->match_ids(dc.slot);
      }
    }
  }
  return scans;
}

/// Candidate rows matching every (non-wildcard) LHS cell of the row: seeded
/// from the first pattern cell — the dispatcher's verdicts when its slot is
/// covered, else the column's pattern index — and verified on the remaining
/// cells (intersection).
std::vector<RowId> CandidateRows(RunContext& ctx, const ResolvedRow& row,
                                 std::vector<CellScan>& scans) {
  std::vector<RowId> candidates;
  const size_t seed_cell = detect_internal::SeedCell(row);
  const CellScan& seed = scans[seed_cell];
  if (seed.preset_ids != nullptr) {
    // Dispatch verdicts: fan the matching distinct values out over their
    // postings — the exact match set, identical to the index lookup.
    for (const uint32_t id : *seed.preset_ids) {
      const std::vector<RowId>& rows = seed.dict->rows(id);
      candidates.insert(candidates.end(), rows.begin(), rows.end());
    }
    std::sort(candidates.begin(), candidates.end());
  } else {
    candidates = ctx.IndexFor(row.lhs_cols[seed_cell])
                     .Lookup(row.row->lhs[seed_cell].pattern());
  }

  // Verify the remaining LHS cells (per distinct value, memoized).
  std::vector<RowId> verified;
  verified.reserve(candidates.size());
  for (RowId r : candidates) {
    if (detect_internal::MatchesLhs(row, scans, r, seed_cell)) {
      verified.push_back(r);
    }
  }
  if (ctx.covered != nullptr) {
    for (RowId r : verified) (*ctx.covered)[r] = true;
  }
  return verified;
}

void DetectConstantRow(RunContext& ctx, size_t pfd_index, size_t row_index,
                       const ResolvedRow& row, size_t item) {
  std::vector<CellScan> scans = MakeScans(ctx, row, item);
  const std::vector<RowId> candidates = CandidateRows(ctx, row, scans);
  ctx.result->stats.candidate_rows += candidates.size();

  for (RowId r : candidates) {
    detect_internal::EmitConstantViolation(*ctx.relation, pfd_index,
                                           row_index, row, r,
                                           &ctx.result->violations);
  }
}

void DetectVariableRow(RunContext& ctx, size_t pfd_index, size_t row_index,
                       const ResolvedRow& row, size_t item) {
  std::vector<CellScan> scans = MakeScans(ctx, row, item);
  const std::vector<RowId> candidates = CandidateRows(ctx, row, scans);
  ctx.result->stats.candidate_rows += candidates.size();

  std::map<std::string, std::vector<RowId>> groups;
  std::string key;
  // The reused key buffer is sized once for the row; map insertion copies
  // it, so pre-sizing kills the grow-reallocs on every append below.
  key.reserve(32 * row.lhs_cols.size());
  for (RowId r : candidates) {
    if (detect_internal::RecordKey(*ctx.relation, row, scans, r, &key)) {
      groups[key].push_back(r);
    }
  }
  detect_internal::ResolveGroups(*ctx.relation, pfd_index, row_index, row,
                                 groups, ctx.result);
}

/// One PFD resolved against the schema (column indices looked up once).
struct PfdPlan {
  const Pfd* pfd;
  std::vector<size_t> lhs_cols;
  std::vector<size_t> rhs_cols;
};

/// Validates `pfd` against `schema` and looks up its columns.
Result<PfdPlan> PlanPfd(const Pfd& pfd, const Schema& schema) {
  ANMAT_RETURN_NOT_OK(pfd.Validate(schema));
  PfdPlan plan;
  plan.pfd = &pfd;
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

/// Detects one already-resolved tableau row into `ctx.result`. `item` is
/// the work-item index (keys the dispatch cell table).
void DetectResolvedRow(RunContext& ctx, const ResolvedRow& resolved,
                       size_t pfd_index, size_t row_index, size_t item) {
  const TableauRow& trow = *resolved.row;
  if (trow.IsConstantRow()) {
    DetectConstantRow(ctx, pfd_index, row_index, resolved, item);
  } else if (trow.IsVariableRow()) {
    DetectVariableRow(ctx, pfd_index, row_index, resolved, item);
  }
  // Rows that are neither (pattern-valued RHS) are treated as
  // constraints on format only; format checking is the profiler's job.
}

}  // namespace

namespace detect_internal {

Result<DetectionResult> DetectErrorsReusingRows(const Relation& relation,
                                                const std::vector<Pfd>& pfds,
                                                const DetectorOptions& options,
                                                ResolvedRowSet* row_set) {
  // Validate and resolve every PFD up front (also what the parallel path
  // needs: the first validation error must not depend on task timing).
  std::vector<PfdPlan> plans;
  plans.reserve(pfds.size());
  for (const Pfd& pfd : pfds) {
    ANMAT_ASSIGN_OR_RETURN(PfdPlan plan, PlanPfd(pfd, relation.schema()));
    plans.push_back(std::move(plan));
  }

  DetectionResult result;
  result.stats.rows_scanned = relation.num_rows() * pfds.size();

  // Flatten the work list: one unit per (PFD, tableau row).
  struct WorkItem {
    size_t plan;
    size_t row;
  };
  std::vector<WorkItem> items;
  for (size_t pi = 0; pi < plans.size(); ++pi) {
    for (size_t ri = 0; ri < plans[pi].pfd->tableau().size(); ++ri) {
      items.push_back(WorkItem{pi, ri});
    }
  }

  const bool parallel =
      options.execution.EffectiveThreads() > 1 && items.size() > 1;
  AutomatonCache* const automata = options.automata.get();
  assert(automata != nullptr && "entry points install a cache (WithAutomata)");

  // Resolve the tableau rows once per `row_set` lifetime (per call when the
  // caller passed none): the repair fixpoint loop hands the same set back
  // for every pass, so matchers are not rebuilt per pass.
  ResolvedRowSet local_rows;
  ResolvedRowSet& rows = row_set != nullptr ? *row_set : local_rows;
  if (!rows.resolved) {
    rows.rows.reserve(items.size());
    for (const WorkItem& item : items) {
      const PfdPlan& plan = plans[item.plan];
      rows.rows.push_back(
          ResolveRow(plan.pfd->tableau().row(item.row), plan.lhs_cols,
                     plan.rhs_cols, plan.pfd->lhs_attrs(),
                     plan.pfd->rhs_attrs(), automata));
    }
    rows.resolved = true;
  }

  // Multi-pattern dispatch: compile every LHS column's patterns into a few
  // prefix-grouped union automata (shared through the cache) and classify
  // each distinct value with one scan per group, instead of one automaton
  // walk per (pattern, value). Slots the unions do not cover keep the
  // per-pattern path. Values must be re-classified every run — the repair
  // fixpoint mutates cells between passes — but the automata themselves
  // compile once per cache lifetime.
  std::unique_ptr<DetectDispatch> dispatch;
  if (!items.empty()) {
    dispatch = std::make_unique<DetectDispatch>();
    dispatch->cells.resize(items.size());
    for (size_t i = 0; i < items.size(); ++i) {
      const ResolvedRow& row = rows.rows[i];
      dispatch->cells[i].assign(row.lhs_cols.size(), DispatchCell{});
      for (size_t c = 0; c < row.lhs_cols.size(); ++c) {
        if (row.lhs_matchers[c] == nullptr) continue;
        ColumnDispatcher& cd = dispatch->by_col[row.lhs_cols[c]];
        dispatch->cells[i][c].dispatcher = &cd;
        dispatch->cells[i][c].slot =
            cd.AddPattern(row.row->lhs[c].pattern().EmbeddedPattern());
      }
    }
    std::vector<std::pair<size_t, ColumnDispatcher*>> usable;
    for (auto& [col, cd] : dispatch->by_col) {
      if (cd.Compile(automata)) usable.emplace_back(col, &cd);
    }
    if (usable.empty()) {
      dispatch.reset();  // every column fell back to the per-pattern path
    } else {
      // A multi-group column pays one full-dictionary scan per group; a
      // pattern-index prefilter narrows each group's scan to its members'
      // candidate union (a provable superset, so skipped ids keep exact 0
      // verdicts). Single-group columns scan the dictionary once anyway —
      // there the index build would be pure overhead.
      const auto classify = [&](size_t i) {
        const size_t col = usable[i].first;
        ColumnDispatcher* cd = usable[i].second;
        std::unique_ptr<PatternIndex> prefilter;
        DispatchPrefilter candidates;
        if (cd->num_groups() > 1) {
          prefilter = std::make_unique<PatternIndex>(relation, col, automata);
          candidates = [index = prefilter.get()](
                           const std::vector<const Pattern*>& members,
                           uint32_t first_id) {
            return index->CandidateValueIds(members, first_id);
          };
        }
        cd->ClassifyValues(relation.dictionary(col), 0, candidates);
      };
      if (parallel) {
        ParallelFor(options.execution, usable.size(), classify);
      } else {
        for (size_t i = 0; i < usable.size(); ++i) classify(i);
      }
    }
  }

  if (!parallel) {
    RunContext ctx{&relation, automata, &result, {}, nullptr, dispatch.get()};
    for (size_t i = 0; i < items.size(); ++i) {
      DetectResolvedRow(ctx, rows.rows[i], items[i].plan, items[i].row, i);
    }
    SortViolations(&result.violations);
    result.stats.violations = result.violations.size();
    return result;
  }

  // Pre-build the seed-cell indexes the tasks will share (in parallel, one
  // per distinct column; PatternIndex::Lookup on a const index is
  // thread-safe). Dispatch-covered columns seed from preset verdicts and
  // never probe an index — skip their build.
  std::set<size_t> seed_cols;
  for (const ResolvedRow& row : rows.rows) {
    const size_t col = row.lhs_cols[SeedCell(row)];
    if (dispatch == nullptr || !dispatch->Covers(col)) seed_cols.insert(col);
  }
  const std::vector<size_t> cols(seed_cols.begin(), seed_cols.end());
  std::vector<std::unique_ptr<PatternIndex>> built(cols.size());
  ParallelFor(options.execution, cols.size(), [&](size_t i) {
    built[i] = std::make_unique<PatternIndex>(relation, cols[i], automata);
  });
  std::map<size_t, std::unique_ptr<PatternIndex>> shared_indexes;
  for (size_t i = 0; i < cols.size(); ++i) {
    shared_indexes.emplace(cols[i], std::move(built[i]));
  }

  // One task per work item, each with its own result slot; slots are merged
  // in item order, so the outcome is byte-identical to the serial loop.
  // Frozen-backed rows are probed in place; a row holding a lazy fallback
  // matcher is re-resolved privately by its task (lazy matchers memoize
  // under the const interface and stay single-owner). Private rows still
  // read the shared dispatch verdicts: those depend only on the (item,
  // cell) patterns, identical in every resolution of the same work item.
  std::vector<DetectionResult> slots(items.size());
  ParallelFor(options.execution, items.size(), [&](size_t i) {
    RunContext ctx{&relation, automata,        &slots[i],
                   {},        &shared_indexes, dispatch.get()};
    if (rows.rows[i].concurrent_safe()) {
      DetectResolvedRow(ctx, rows.rows[i], items[i].plan, items[i].row, i);
      return;
    }
    const PfdPlan& plan = plans[items[i].plan];
    const ResolvedRow resolved =
        ResolveRow(plan.pfd->tableau().row(items[i].row), plan.lhs_cols,
                   plan.rhs_cols, plan.pfd->lhs_attrs(),
                   plan.pfd->rhs_attrs(), automata);
    DetectResolvedRow(ctx, resolved, items[i].plan, items[i].row, i);
  });

  for (DetectionResult& slot : slots) {
    result.stats.candidate_rows += slot.stats.candidate_rows;
    result.stats.pairs_checked += slot.stats.pairs_checked;
    result.violations.insert(result.violations.end(),
                             std::make_move_iterator(slot.violations.begin()),
                             std::make_move_iterator(slot.violations.end()));
  }
  SortViolations(&result.violations);
  result.stats.violations = result.violations.size();
  return result;
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
  return detect_internal::DetectErrorsReusingRows(
      relation, pfds, detect_internal::WithAutomata(options), nullptr);
}

Result<DetectionResult> DetectErrors(const Relation& relation, const Pfd& pfd,
                                     const DetectorOptions& options) {
  return DetectErrors(relation, std::vector<Pfd>{pfd}, options);
}

Result<CoverageStats> ComputeCoverage(const Pfd& pfd, const Relation& relation,
                                      AutomatonCache* automata) {
  ANMAT_ASSIGN_OR_RETURN(PfdPlan plan, PlanPfd(pfd, relation.schema()));
  std::unique_ptr<AutomatonCache> private_cache;
  if (automata == nullptr) {
    private_cache = std::make_unique<AutomatonCache>();
    automata = private_cache.get();
  }

  // The serial per-pattern path: index-seeded candidates and per-value
  // memos, no union automata (a union compiled for one candidate PFD would
  // never be probed again).
  DetectionResult result;
  std::vector<bool> covered(relation.num_rows(), false);
  RunContext ctx{&relation, automata, &result, {}, nullptr, nullptr,
                 &covered};
  for (size_t ri = 0; ri < pfd.tableau().size(); ++ri) {
    const detect_internal::ResolvedRow row = detect_internal::ResolveRow(
        pfd.tableau().row(ri), plan.lhs_cols, plan.rhs_cols, pfd.lhs_attrs(),
        pfd.rhs_attrs(), automata);
    DetectResolvedRow(ctx, row, /*pfd_index=*/0, ri, /*item=*/0);
  }

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
