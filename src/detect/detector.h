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
///
/// One detector serves every caller: `DetectErrors`, each `RepairErrors`
/// pass, each `DetectionStream` batch and `ComputeCoverage` absorb rows
/// through the same detection state (detector_internal.h).

#include <map>
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
  /// Parallel execution. With more than one thread, detection prepares the
  /// LHS columns (dictionary, dispatch verdicts, seed index) one task per
  /// column, then runs one task per (PFD, tableau row) over them read-only,
  /// and merges the results in item order, so the output is byte-identical
  /// to a serial run.
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

/// \brief Participation / violation statistics of one PFD.
///
/// The paper (§4, "Parameter Setting"): *minimum coverage* is the ratio of
/// records participating in the PFD (records matching at least one tableau
/// row's LHS patterns) to the total number of records; since data is dirty,
/// a bounded *ratio of allowed violations* among participating records is
/// tolerated and reported as errors.
struct CoverageStats {
  size_t total_rows = 0;      ///< rows in the relation
  size_t covered_rows = 0;    ///< rows matching some tableau row's LHS
  size_t violating_rows = 0;  ///< distinct suspect rows of the violations

  /// covered / total (0 when the relation is empty).
  double Coverage() const {
    return total_rows == 0
               ? 0.0
               : static_cast<double>(covered_rows) /
                     static_cast<double>(total_rows);
  }
  /// violating / covered (0 when nothing is covered).
  double ViolationRate() const {
    return covered_rows == 0
               ? 0.0
               : static_cast<double>(violating_rows) /
                     static_cast<double>(covered_rows);
  }
};

/// \brief Pattern indexes over some columns of one relation, keyed by
/// column, shared read-only across tasks and calls (`PatternIndex::Lookup`
/// on a const index is thread-safe).
using ColumnIndexes = std::map<size_t, std::unique_ptr<PatternIndex>>;

/// \brief Builds one `PatternIndex` per column of `cols` over `relation`
/// (one task per column under `execution`), verifying through `automata`.
ColumnIndexes BuildColumnIndexes(const Relation& relation,
                                 const std::vector<size_t>& cols,
                                 AutomatonCache* automata,
                                 const ExecutionOptions& execution);

/// \brief Coverage and violation statistics of `pfd` on `relation` — the
/// discovery filter (Figure 2, line 13).
///
/// Runs every tableau row through detection's serial per-pattern path, so
/// "covered" and "violating" mean exactly what `DetectErrors` checks: a row
/// is covered when it is a candidate of some constant or variable tableau
/// row, and violating when it is the suspect of one of its violations.
/// Rows whose RHS is a non-literal pattern are skipped, as in detection.
/// `automata` (required) shares compiled automata across calls.
/// `indexes` (optional) supplies pre-built seed-column indexes over
/// `relation`, so calls that probe one column share a single build;
/// columns it lacks get a private index. Never compiles a union automaton.
Result<CoverageStats> ComputeCoverage(const Pfd& pfd, const Relation& relation,
                                      AutomatonCache* automata,
                                      const ColumnIndexes* indexes = nullptr);

}  // namespace anmat

#endif  // ANMAT_DETECT_DETECTOR_H_
