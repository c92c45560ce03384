#ifndef ANMAT_REPAIR_REPAIR_H_
#define ANMAT_REPAIR_REPAIR_H_

/// \file repair.h
/// Repair engine on top of PFD detection.
///
/// §3 of the paper attaches a repair semantics to constant violations: "if
/// we assume that the LHS value is correct then the RHS could be repaired
/// by changing it to tp[B]"; variable violations analogously suggest the
/// equivalence group's majority RHS. This module turns those suggestions
/// into an iterative cleaning loop:
///
///   repeat up to `max_passes` times:
///     detect violations → apply confident suggested repairs → re-detect
///     what the applied repairs touched
///
/// A repair is *confident* when the violation's suggestion is a constant
/// rule's RHS (always confident under the paper's LHS-is-correct
/// assumption) or the majority RHS of a variable row's equivalence group
/// (detection only flags a group's minority members, each against a
/// witness of the majority block). Conflicting suggestions for the same
/// cell within one pass are dropped (the cell is left for the user), so
/// the loop never oscillates on a genuinely ambiguous cell. The fixpoint loop terminates
/// because each pass either strictly reduces the number of violating cells
/// or stops.
///
/// The loop does not re-detect from scratch. It keeps one detection state
/// for its whole run and records every column it writes. A (PFD, tableau
/// row)'s candidates and equivalence groups depend only on its LHS
/// columns, its violations also on its RHS columns: a pass rebuilds only
/// the rows with a written column on their LHS (a column that is one
/// rule's RHS and another's LHS), re-emits the violations of the rows with
/// one on their RHS from the live cells, and keeps the rest as they are.
/// Every pass, and the final detection after the last write, equals a
/// fresh `DetectErrors` on the relation as it stands, stats included.
///
/// Execution: `options.detector.execution` runs each pass's detection one
/// task per (PFD, tableau row); the suggestion fold and application steps
/// are deterministic, so parallel output is byte-identical to serial.
/// `anmat::Engine::Repair` (anmat/engine.h) is the usual entry — it
/// installs the engine's shared pool. For streaming workloads,
/// `DetectionStream::set_clean_on_ingest` applies confident constant-rule
/// and cumulative-majority variable-rule repairs per appended batch,
/// through the same suggestion fold and confidence policy as this module
/// (detect/suggestion_policy.h; detect/detection_stream.h).

#include <cstddef>
#include <vector>

#include "detect/detector.h"
#include "pfd/pfd.h"
#include "relation/relation.h"
#include "util/status.h"

namespace anmat {

// `AppliedRepair` (one applied repair, for auditing / undo) lives in
// detect/violation.h so the streaming detector's clean-on-ingest mode can
// report repairs too; it is re-exported here via detect/detector.h.

/// \brief Repair options.
struct RepairOptions {
  DetectorOptions detector;
  size_t max_passes = 4;
  /// When false, only constant-rule repairs are applied (the paper's
  /// explicitly stated case).
  bool apply_variable_repairs = true;
};

/// \brief Outcome of a repair run.
struct RepairResult {
  std::vector<AppliedRepair> repairs;
  size_t passes = 0;
  /// Violations remaining after the final pass (ambiguous or unrepairable).
  size_t remaining_violations = 0;
  /// Cells with conflicting suggestions, left untouched.
  std::vector<CellRef> conflicted_cells;
  /// The detection result over the *repaired* relation — the fixpoint
  /// loop's final verification pass, returned so callers (views, the
  /// repair verb) need not re-detect. `remaining_violations` is its violation count.
  DetectionResult final_detection;
};

/// \brief Iteratively repairs `relation` in place using `pfds`.
Result<RepairResult> RepairErrors(Relation* relation,
                                  const std::vector<Pfd>& pfds,
                                  const RepairOptions& options = {});

}  // namespace anmat

#endif  // ANMAT_REPAIR_REPAIR_H_
