#include "repair/repair.h"

#include <algorithm>
#include <set>

#include "detect/detector_internal.h"
#include "detect/suggestion_policy.h"

namespace anmat {

Result<RepairResult> RepairErrors(Relation* relation,
                                  const std::vector<Pfd>& pfds,
                                  const RepairOptions& options) {
  if (relation == nullptr) {
    return Status::InvalidArgument("relation must not be null");
  }
  RepairResult result;
  std::set<CellRef> conflicted;      // across passes: never touch again
  std::set<CellRef> repaired_cells;  // a cell is repaired at most once:
                                     // rule interactions across passes must
                                     // not oscillate a cell back and forth

  // Tableau rows depend on (pfds, schema) only, not on the mutating cell
  // data — resolve their matchers once and reuse them for every pass and
  // the final verification. One cache serves every pass, so each pattern
  // compiles once per repair. A work item's candidates and groups depend
  // only on its LHS columns: every write is recorded, and a pass rebuilds
  // only the items whose LHS columns earlier passes wrote.
  const DetectorOptions detector = detect_internal::WithAutomata(
      options.detector);
  detect_internal::DetectionState state;

  for (size_t pass = 0; pass < options.max_passes; ++pass) {
    ANMAT_ASSIGN_OR_RETURN(
        DetectionResult detection,
        detect_internal::DetectErrorsKeepingState(*relation, pfds, detector,
                                                  &state));
    result.passes = pass + 1;
    result.remaining_violations = detection.violations.size();
    if (detection.violations.empty()) break;

    // Fold suggestions per cell (shared policy: equal merge, disagreement
    // conflicts and drops the cell — see detect/suggestion_policy.h).
    SuggestionFold fold;
    for (const Violation& v : detection.violations) {
      if (v.suggested_repair.empty()) continue;
      if (conflicted.count(v.suspect) > 0) continue;
      if (repaired_cells.count(v.suspect) > 0) {
        // A later pass disagreeing with an applied repair marks the cell
        // conflicted; the first repair stands (reverting would oscillate).
        if (relation->cell(v.suspect.row, v.suspect.column) !=
            v.suggested_repair) {
          if (conflicted.insert(v.suspect).second) {
            result.conflicted_cells.push_back(v.suspect);
          }
        }
        continue;
      }
      if (v.kind == ViolationKind::kVariable &&
          !options.apply_variable_repairs) {
        continue;
      }
      fold.Add(v.suspect, v.suggested_repair, v.pfd_index,
               v.kind == ViolationKind::kVariable);
    }
    for (const CellRef& c : fold.conflicts()) {
      if (conflicted.insert(c).second) {
        result.conflicted_cells.push_back(c);
      }
    }

    const auto& suggestions = fold.Resolve();
    if (suggestions.empty()) break;  // nothing confidently repairable

    size_t applied_this_pass = 0;
    for (const auto& [cell, suggestion] : suggestions) {
      const std::string before(relation->cell(cell.row, cell.column));
      if (before == suggestion.value) continue;
      relation->set_cell(cell.row, cell.column, suggestion.value);
      state.RecordWrite(cell.column);
      repaired_cells.insert(cell);
      result.repairs.push_back(AppliedRepair{cell, before, suggestion.value,
                                             pass, suggestion.pfd_index});
      ++applied_this_pass;
    }
    if (applied_this_pass == 0) break;
  }

  // Final verification pass after the last mutation; kept in the result so
  // callers need not re-detect over the repaired relation.
  ANMAT_ASSIGN_OR_RETURN(
      result.final_detection,
      detect_internal::DetectErrorsKeepingState(*relation, pfds, detector,
                                                &state));
  result.remaining_violations = result.final_detection.violations.size();
  std::sort(result.conflicted_cells.begin(), result.conflicted_cells.end());
  return result;
}

}  // namespace anmat
