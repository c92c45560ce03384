#ifndef ANMAT_DETECT_DETECTOR_H_
#define ANMAT_DETECT_DETECTOR_H_

/// \file detector.h
/// Error detection with PFDs (§3 of the paper).
///
/// Constant rows: the per-column `PatternIndex` (or, for columns whose
/// patterns all fit a union automaton, the multi-pattern dispatcher's
/// verdicts) yields the tuples with `t[A] ↦ tp[A]`; those with
/// `t[B] ≠ tp[B]` are flagged, suggesting `tp[B]` on the assumption that the
/// LHS is correct.
///
/// Variable rows: blocking on the canonical extraction key groups the
/// matching tuples, and the minority records of each block are flagged
/// against the block majority, so only pairs inside conflicting blocks
/// count as checked. The paper's full-scan and quadratic-pair algorithms
/// are the test oracle in detect/reference_detector.h.

#include <memory>
#include <vector>

#include "detect/pattern_index.h"
#include "detect/violation.h"
#include "pattern/automaton_cache.h"
#include "pfd/pfd.h"
#include "relation/relation.h"
#include "util/status.h"
#include "util/thread_pool.h"

namespace anmat {

/// \brief Detection options. There is one detection path; these only
/// parallelize the run and share compiled automata.
struct DetectorOptions {
  /// Parallel execution. With more than one thread, detection fans out one
  /// task per (PFD, tableau row) — the seed pattern indexes are pre-built
  /// and shared read-only — and merges per-task results in task order, so
  /// the output is byte-identical to a serial run.
  ExecutionOptions execution;
  /// Shared compile-once automaton cache (pattern/automaton_cache.h):
  /// tableau matchers, index verifiers and union automata come out of it
  /// as shared frozen automata, each distinct pattern compiled once per
  /// cache lifetime and probed lock-free by every task and pass. Null
  /// (default) makes `DetectErrors`, `RepairErrors` (all passes) and
  /// `DetectionStream::Open` create a private cache for the call or stream;
  /// results are byte-identical either way. `anmat::Engine` installs its
  /// engine-wide cache here.
  std::shared_ptr<AutomatonCache> automata;
};

/// \brief Result of a detection run.
struct DetectionResult {
  std::vector<Violation> violations;
  DetectionStats stats;
};

/// \brief Detects violations of `pfds` in `relation`.
///
/// `pfd_index` in each violation refers to the position in `pfds`.
/// Violations are reported in deterministic order (by PFD, tableau row,
/// then cells).
Result<DetectionResult> DetectErrors(const Relation& relation,
                                     const std::vector<Pfd>& pfds,
                                     const DetectorOptions& options = {});

/// \brief Single-PFD convenience wrapper.
Result<DetectionResult> DetectErrors(const Relation& relation, const Pfd& pfd,
                                     const DetectorOptions& options = {});

}  // namespace anmat

#endif  // ANMAT_DETECT_DETECTOR_H_
