#ifndef ANMAT_DETECT_REFERENCE_DETECTOR_H_
#define ANMAT_DETECT_REFERENCE_DETECTOR_H_

/// \file reference_detector.h
/// The reference detector: §3's detection algorithms in their plainest
/// form, kept as the specification that production detection
/// (`DetectErrors`, `DetectionStream`) is tested and benchmarked against.
///
///   * Constant rows — a full scan: every row's LHS cells are matched one
///     row at a time, and a matching row whose RHS differs from the
///     constants is flagged.
///   * Variable rows — quadratic pair enumeration: every pair of matching
///     rows compares canonical extraction keys for real, and each
///     comparison counts in `pairs_checked`. Rows with equal keys form an
///     equivalence group; the rows outside a group's majority RHS value are
///     flagged against the majority's first row.
///
/// Each call resolves private, uncached matchers (no `AutomatonCache`, no
/// value dictionary, no pattern index, no multi-pattern dispatch). It
/// shares only the violation builders and the majority rule with
/// production, so its violations — and the `rows_scanned`,
/// `candidate_rows` and `violations` stats — must equal `DetectErrors`'
/// byte for byte. `pairs_checked` differs by design: C(matched, 2) per
/// variable row here, only the pairs inside conflicting blocks there.
///
/// Quadratic in the matching rows of each variable tableau row: for tests
/// and ablation benches, not for production sizes.

#include <vector>

#include "detect/detector.h"
#include "pfd/pfd.h"
#include "relation/relation.h"
#include "util/status.h"

namespace anmat {

/// \brief Detects violations of `pfds` in `relation` with the reference
/// algorithms (see the file comment). Same validation, violation order and
/// `pfd_index` convention as `DetectErrors`.
Result<DetectionResult> ReferenceDetectErrors(const Relation& relation,
                                              const std::vector<Pfd>& pfds);

}  // namespace anmat

#endif  // ANMAT_DETECT_REFERENCE_DETECTOR_H_
