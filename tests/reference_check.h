#ifndef ANMAT_TESTS_REFERENCE_CHECK_H_
#define ANMAT_TESTS_REFERENCE_CHECK_H_

// Test helpers shared by the detection differential tests: a byte-exact
// violation fingerprint and the production-vs-reference-oracle check.

#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "detect/detector.h"
#include "detect/reference_detector.h"

namespace anmat {

/// Every byte of a violation that reaches a caller.
inline std::string ViolationFingerprint(const Violation& v) {
  std::ostringstream out;
  out << static_cast<int>(v.kind) << "|" << v.pfd_index << "|"
      << v.tableau_row << "|";
  for (const CellRef& c : v.cells) out << c.row << ":" << c.column << ",";
  out << "|" << v.suspect.row << ":" << v.suspect.column << "|"
      << v.suggested_repair << "|" << v.explanation;
  return out.str();
}

/// Asserts that `actual` (a production detection result) equals
/// `expected` (a `ReferenceDetectErrors` result): byte-identical
/// violations in the same order, and equal violation, candidate-row and
/// scanned-row counts. `pairs_checked` is not compared — blocking and pair
/// enumeration count different work by design.
inline void ExpectSameAsReference(const DetectionResult& actual,
                                  const DetectionResult& expected,
                                  const std::string& label) {
  ASSERT_EQ(actual.violations.size(), expected.violations.size()) << label;
  for (size_t i = 0; i < actual.violations.size(); ++i) {
    ASSERT_EQ(ViolationFingerprint(actual.violations[i]),
              ViolationFingerprint(expected.violations[i]))
        << label << ", violation " << i;
  }
  EXPECT_EQ(actual.stats.violations, expected.stats.violations) << label;
  EXPECT_EQ(actual.stats.candidate_rows, expected.stats.candidate_rows)
      << label;
  EXPECT_EQ(actual.stats.rows_scanned, expected.stats.rows_scanned) << label;
}

/// Runs `DetectErrors(relation, pfds, options)` and checks it against the
/// reference oracle.
inline void ExpectDetectMatchesReference(const Relation& relation,
                                         const std::vector<Pfd>& pfds,
                                         const DetectorOptions& options,
                                         const std::string& label) {
  const Result<DetectionResult> expected =
      ReferenceDetectErrors(relation, pfds);
  ASSERT_TRUE(expected.ok()) << label << ": " << expected.status().message();
  const Result<DetectionResult> actual = DetectErrors(relation, pfds, options);
  ASSERT_TRUE(actual.ok()) << label << ": " << actual.status().message();
  ExpectSameAsReference(actual.value(), expected.value(), label);
}

}  // namespace anmat

#endif  // ANMAT_TESTS_REFERENCE_CHECK_H_
