// Discovery's coverage check (`ComputeCoverage`, detect/detector.h): the
// paper's worked cases, plus a differential sweep against the reference
// detector and a brute-force LHS match count.

#include <gtest/gtest.h>

#include <set>
#include <string>
#include <vector>

#include "datagen/datasets.h"
#include "detect/detector.h"
#include "detect/reference_detector.h"
#include "pattern/generalizer.h"
#include "pattern/matcher.h"
#include "pattern/pattern_parser.h"
#include "util/random.h"

namespace anmat {
namespace {

TableauCell PatternCell(const char* text) {
  return TableauCell::Of(ParseConstrainedPattern(text).value());
}

Tableau OneRowTableau(const char* lhs, const char* rhs_or_null) {
  Tableau t;
  TableauRow row;
  row.lhs.push_back(PatternCell(lhs));
  row.rhs.push_back(rhs_or_null == nullptr ? TableauCell::Wildcard()
                                           : PatternCell(rhs_or_null));
  t.AddRow(row);
  return t;
}

Relation ZipRelation(const std::vector<std::pair<std::string, std::string>>&
                         rows) {
  RelationBuilder builder(Schema::MakeText({"zip", "city"}).value());
  for (const auto& [zip, city] : rows) {
    EXPECT_TRUE(builder.AddRow({zip, city}).ok());
  }
  return builder.Build();
}

TEST(CoverageTest, FullCoverageNoViolations) {
  AutomatonCache cache;
  Relation rel = ZipRelation({{"90001", "LA"}, {"90002", "LA"}});
  Pfd pfd = Pfd::Simple("Z", "zip", "city", OneRowTableau("(900)!\\D{2}",
                                                          "LA"));
  CoverageStats stats = ComputeCoverage(pfd, rel, &cache).value();
  EXPECT_EQ(stats.total_rows, 2u);
  EXPECT_EQ(stats.covered_rows, 2u);
  EXPECT_EQ(stats.violating_rows, 0u);
  EXPECT_DOUBLE_EQ(stats.Coverage(), 1.0);
  EXPECT_DOUBLE_EQ(stats.ViolationRate(), 0.0);
}

TEST(CoverageTest, PartialCoverage) {
  AutomatonCache cache;
  Relation rel = ZipRelation(
      {{"90001", "LA"}, {"10001", "NY"}, {"90002", "LA"}, {"10002", "NY"}});
  Pfd pfd = Pfd::Simple("Z", "zip", "city", OneRowTableau("(900)!\\D{2}",
                                                          "LA"));
  CoverageStats stats = ComputeCoverage(pfd, rel, &cache).value();
  EXPECT_EQ(stats.covered_rows, 2u);
  EXPECT_DOUBLE_EQ(stats.Coverage(), 0.5);
}

TEST(CoverageTest, ConstantViolationCounted) {
  AutomatonCache cache;
  Relation rel = ZipRelation(
      {{"90001", "LA"}, {"90002", "LA"}, {"90003", "New York"}});
  Pfd pfd = Pfd::Simple("Z", "zip", "city", OneRowTableau("(900)!\\D{2}",
                                                          "LA"));
  CoverageStats stats = ComputeCoverage(pfd, rel, &cache).value();
  EXPECT_EQ(stats.covered_rows, 3u);
  EXPECT_EQ(stats.violating_rows, 1u);
  EXPECT_NEAR(stats.ViolationRate(), 1.0 / 3.0, 1e-9);
}

TEST(CoverageTest, VariablePfdMajorityRule) {
  // Keys "900xx": 2x LA, 1x NY -> 1 violating row. Keys "100xx": all NY.
  AutomatonCache cache;
  Relation rel = ZipRelation({{"90001", "LA"},
                              {"90002", "LA"},
                              {"90003", "NY"},
                              {"10001", "NY"},
                              {"10002", "NY"}});
  Pfd pfd = Pfd::Simple("Z", "zip", "city",
                        OneRowTableau("(\\D{3})!\\D{2}", nullptr));
  CoverageStats stats = ComputeCoverage(pfd, rel, &cache).value();
  EXPECT_EQ(stats.covered_rows, 5u);
  EXPECT_EQ(stats.violating_rows, 1u);
}

TEST(CoverageTest, VariablePfdSingletonGroupsNeverViolate) {
  AutomatonCache cache;
  Relation rel = ZipRelation({{"90001", "LA"}, {"10001", "NY"}});
  Pfd pfd = Pfd::Simple("Z", "zip", "city",
                        OneRowTableau("(\\D{3})!\\D{2}", nullptr));
  CoverageStats stats = ComputeCoverage(pfd, rel, &cache).value();
  EXPECT_EQ(stats.covered_rows, 2u);
  EXPECT_EQ(stats.violating_rows, 0u);
}

TEST(CoverageTest, VariablePfdTieCountsMinoritySide) {
  // 1x LA vs 1x NY under the same key: a genuine conflict; exactly one side
  // (the lexicographically later one) is counted violating.
  AutomatonCache cache;
  Relation rel = ZipRelation({{"90001", "LA"}, {"90002", "NY"}});
  Pfd pfd = Pfd::Simple("Z", "zip", "city",
                        OneRowTableau("(\\D{3})!\\D{2}", nullptr));
  CoverageStats stats = ComputeCoverage(pfd, rel, &cache).value();
  EXPECT_EQ(stats.violating_rows, 1u);
}

TEST(CoverageTest, NonMatchingRowsNotCovered) {
  AutomatonCache cache;
  Relation rel = ZipRelation({{"90001", "LA"}, {"not-a-zip", "LA"}});
  Pfd pfd = Pfd::Simple("Z", "zip", "city",
                        OneRowTableau("(\\D{3})!\\D{2}", nullptr));
  CoverageStats stats = ComputeCoverage(pfd, rel, &cache).value();
  EXPECT_EQ(stats.covered_rows, 1u);
}

TEST(CoverageTest, EmptyRelation) {
  AutomatonCache cache;
  Relation rel = ZipRelation({});
  Pfd pfd = Pfd::Simple("Z", "zip", "city", OneRowTableau("(900)!\\D{2}",
                                                          "LA"));
  CoverageStats stats = ComputeCoverage(pfd, rel, &cache).value();
  EXPECT_EQ(stats.total_rows, 0u);
  EXPECT_DOUBLE_EQ(stats.Coverage(), 0.0);
  EXPECT_DOUBLE_EQ(stats.ViolationRate(), 0.0);
}

TEST(CoverageTest, InvalidPfdRejected) {
  AutomatonCache cache;
  Relation rel = ZipRelation({{"90001", "LA"}});
  Pfd pfd = Pfd::Simple("Z", "nope", "city", OneRowTableau("(9)!\\D", "LA"));
  EXPECT_FALSE(ComputeCoverage(pfd, rel, &cache).ok());
}

TEST(CoverageTest, MultiRowTableauUnionCoverage) {
  AutomatonCache cache;
  Relation rel = ZipRelation(
      {{"90001", "LA"}, {"10001", "NY"}, {"60601", "Chicago"}});
  Tableau t;
  {
    TableauRow row;
    row.lhs.push_back(PatternCell("(900)!\\D{2}"));
    row.rhs.push_back(PatternCell("LA"));
    t.AddRow(row);
  }
  {
    TableauRow row;
    row.lhs.push_back(PatternCell("(100)!\\D{2}"));
    row.rhs.push_back(PatternCell("NY"));
    t.AddRow(row);
  }
  Pfd pfd = Pfd::Simple("Z", "zip", "city", t);
  CoverageStats stats = ComputeCoverage(pfd, rel, &cache).value();
  EXPECT_EQ(stats.covered_rows, 2u);  // Chicago row not covered
  EXPECT_EQ(stats.violating_rows, 0u);
}

TEST(CoverageTest, MultiAttributeLhs) {
  AutomatonCache cache;
  RelationBuilder builder(
      Schema::MakeText({"zip", "state", "city"}).value());
  EXPECT_TRUE(builder.AddRow({"90001", "CA", "LA"}).ok());
  EXPECT_TRUE(builder.AddRow({"90002", "CA", "NY"}).ok());  // violates
  EXPECT_TRUE(builder.AddRow({"90003", "WA", "Seattle"}).ok());  // uncovered
  Relation rel = builder.Build();

  Tableau t;
  TableauRow row;
  row.lhs.push_back(PatternCell("(900)!\\D{2}"));
  row.lhs.push_back(PatternCell("CA"));
  row.rhs.push_back(PatternCell("LA"));
  t.AddRow(row);
  Pfd pfd("T", {"zip", "state"}, {"city"}, t);

  CoverageStats stats = ComputeCoverage(pfd, rel, &cache).value();
  EXPECT_EQ(stats.covered_rows, 2u);   // WA row fails the state cell
  EXPECT_EQ(stats.violating_rows, 1u);
}

TEST(CoverageTest, MultiAttributeVariableGroupsOnCompositeKey) {
  AutomatonCache cache;
  RelationBuilder builder(
      Schema::MakeText({"code", "region", "label"}).value());
  // Key = (first digit of code, whole region). Same composite key must
  // agree on label.
  EXPECT_TRUE(builder.AddRow({"1A", "east", "x"}).ok());
  EXPECT_TRUE(builder.AddRow({"1B", "east", "x"}).ok());
  EXPECT_TRUE(builder.AddRow({"1C", "east", "y"}).ok());  // violates
  EXPECT_TRUE(builder.AddRow({"1D", "west", "z"}).ok());  // different key
  Relation rel = builder.Build();

  Tableau t;
  TableauRow row;
  row.lhs.push_back(PatternCell("(\\D)!\\LU"));
  row.lhs.push_back(TableauCell::Wildcard());
  row.rhs.push_back(TableauCell::Wildcard());
  t.AddRow(row);
  Pfd pfd("T", {"code", "region"}, {"label"}, t);

  CoverageStats stats = ComputeCoverage(pfd, rel, &cache).value();
  EXPECT_EQ(stats.covered_rows, 4u);
  EXPECT_EQ(stats.violating_rows, 1u);
}

TEST(CoverageTest, PaperTable2Scenario) {
  // Table 2: λ3 (900\D{2} → Los Angeles) covers all 4 rows; s4 violates.
  AutomatonCache cache;
  Relation rel = ZipRelation({{"90001", "Los Angeles"},
                              {"90002", "Los Angeles"},
                              {"90003", "Los Angeles"},
                              {"90004", "New York"}});
  Pfd lambda3 = Pfd::Simple("Zip", "zip", "city",
                            OneRowTableau("(900)!\\D{2}", "Los\\ Angeles"));
  CoverageStats stats = ComputeCoverage(lambda3, rel, &cache).value();
  EXPECT_EQ(stats.covered_rows, 4u);
  EXPECT_EQ(stats.violating_rows, 1u);
  EXPECT_DOUBLE_EQ(stats.Coverage(), 1.0);
  EXPECT_DOUBLE_EQ(stats.ViolationRate(), 0.25);
}

TEST(CoverageTest, NonLiteralRhsRowIsSkippedLikeDetection) {
  // A row whose RHS is a pattern (neither a constant nor a wildcard)
  // constrains format only; detection skips it, and so does coverage: it
  // covers no row and flags none. Discovery never mines such rows.
  AutomatonCache cache;
  Relation rel = ZipRelation(
      {{"90001", "LA"}, {"90002", "LA"}, {"90003", "NY"}, {"10001", "NY"}});
  Pfd pattern_rhs = Pfd::Simple(
      "Z", "zip", "city", OneRowTableau("(\\D{3})!\\D{2}", "\\LU{2}"));
  ASSERT_FALSE(pattern_rhs.tableau().row(0).IsConstantRow());
  ASSERT_FALSE(pattern_rhs.tableau().row(0).IsVariableRow());
  CoverageStats stats = ComputeCoverage(pattern_rhs, rel, &cache).value();
  EXPECT_EQ(stats.total_rows, 4u);
  EXPECT_EQ(stats.covered_rows, 0u);
  EXPECT_EQ(stats.violating_rows, 0u);

  // Beside a constant row, only the constant row counts.
  Tableau t = OneRowTableau("(100)!\\D{2}", "NY");
  t.AddRow(pattern_rhs.tableau().row(0));
  stats = ComputeCoverage(Pfd::Simple("Z", "zip", "city", t), rel, &cache)
              .value();
  EXPECT_EQ(stats.covered_rows, 1u);
  EXPECT_EQ(stats.violating_rows, 0u);
}

// ---------------------------------------------------------------------------
// Differential sweep: random PFDs over generated dirty datasets.

/// A constrained pattern drawn from `value`: a constrained head (literal or
/// generalized) and an optional generalized tail, so it matches `value` and
/// often many of its neighbours.
ConstrainedPattern PatternFromValue(Rng& rng, const std::string& value) {
  static const GeneralizationLevel kLevels[] = {
      GeneralizationLevel::kLiteral, GeneralizationLevel::kClassExact,
      GeneralizationLevel::kClassLoose};
  const size_t split = 1 + rng.NextBelow(value.size());
  std::vector<PatternSegment> segments;
  segments.push_back(PatternSegment{
      GeneralizeString(value.substr(0, split), kLevels[rng.NextBelow(2)]),
      true});
  if (split < value.size()) {
    segments.push_back(PatternSegment{
        GeneralizeString(value.substr(split), kLevels[rng.NextBelow(3)]),
        rng.NextBool(0.3)});
  }
  return ConstrainedPattern(std::move(segments));
}

/// A random PFD over `relation`: the last column on the RHS, one or two
/// other columns on the LHS, and 1..3 constant or variable rows whose LHS
/// patterns are drawn from random records (a wildcard now and then).
Pfd RandomPfd(Rng& rng, const Relation& relation) {
  const size_t n_cols = relation.schema().num_columns();
  const size_t rhs_col = n_cols - 1;
  std::vector<size_t> lhs_cols = {rng.NextBelow(rhs_col)};
  if (rhs_col > 1 && rng.NextBool(0.4)) {
    lhs_cols.push_back((lhs_cols[0] + 1) % rhs_col);
  }
  std::vector<std::string> lhs;
  for (size_t c : lhs_cols) lhs.push_back(relation.schema().column(c).name);
  Tableau t;
  const size_t rows = 1 + rng.NextBelow(3);
  for (size_t i = 0; i < rows; ++i) {
    const RowId r = static_cast<RowId>(rng.NextBelow(relation.num_rows()));
    TableauRow row;
    for (size_t j = 0; j < lhs_cols.size(); ++j) {
      const std::string value(relation.cell(r, lhs_cols[j]));
      const bool wildcard = value.empty() || (j > 0 && rng.NextBool(0.3));
      row.lhs.push_back(wildcard ? TableauCell::Wildcard()
                                 : TableauCell::Of(PatternFromValue(rng,
                                                                    value)));
    }
    if (row.lhs[0].is_wildcard()) continue;  // all-wildcard rows are invalid
    const std::string rhs_value(relation.cell(r, rhs_col));
    row.rhs.push_back(rng.NextBool(0.5) ? TableauCell::Wildcard()
                                        : TableauCell::Of(
                                              ConstrainedPattern::Unconstrained(
                                                  LiteralPattern(rhs_value))));
    t.AddRow(row);
  }
  return Pfd("T", std::move(lhs),
             {relation.schema().column(rhs_col).name}, std::move(t));
}

/// Rows whose non-wildcard LHS cells all match some constant or variable
/// tableau row, decided cell by cell with `MatchesConstrained`.
size_t BruteForceCovered(const Pfd& pfd, const Relation& relation) {
  std::vector<size_t> lhs_cols;
  for (const std::string& a : pfd.lhs_attrs()) {
    lhs_cols.push_back(relation.schema().IndexOf(a).value());
  }
  size_t covered = 0;
  for (RowId r = 0; r < relation.num_rows(); ++r) {
    for (const TableauRow& row : pfd.tableau().rows()) {
      if (!row.IsConstantRow() && !row.IsVariableRow()) continue;
      bool matches = true;
      for (size_t i = 0; i < lhs_cols.size() && matches; ++i) {
        matches = row.lhs[i].is_wildcard() ||
                  MatchesConstrained(row.lhs[i].pattern(),
                                     relation.cell(r, lhs_cols[i]));
      }
      if (matches) {
        ++covered;
        break;
      }
    }
  }
  return covered;
}

class CoverageDifferentialTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(CoverageDifferentialTest, MatchesReferenceAndBruteForce) {
  const uint64_t seed = GetParam();
  const std::vector<Dataset> datasets = {
      ZipCityStateDataset(200, seed, 0.08), PhoneStateDataset(200, seed, 0.08),
      EmployeeDataset(200, seed, 0.08), NameGenderDataset(200, seed, 0.08)};
  Rng rng(seed);
  AutomatonCache shared;
  size_t with_violations = 0;
  size_t with_coverage = 0;
  for (const Dataset& d : datasets) {
    for (int i = 0; i < 12; ++i) {
      const Pfd pfd = RandomPfd(rng, d.relation);
      if (pfd.tableau().empty()) continue;
      const std::string label = d.name + ": " + pfd.ToString();

      const DetectionResult reference =
          ReferenceDetectErrors(d.relation, {pfd}).value();
      std::set<RowId> suspects;
      for (const Violation& v : reference.violations) {
        suspects.insert(v.suspect.row);
      }
      const CoverageStats stats =
          ComputeCoverage(pfd, d.relation, &shared).value();
      EXPECT_EQ(stats.total_rows, d.relation.num_rows()) << label;
      EXPECT_EQ(stats.violating_rows, suspects.size()) << label;
      EXPECT_EQ(stats.covered_rows, BruteForceCovered(pfd, d.relation))
          << label;

      // A private cache per call gives the same statistics.
      AutomatonCache private_cache;
      const CoverageStats private_stats =
          ComputeCoverage(pfd, d.relation, &private_cache).value();
      EXPECT_EQ(private_stats.covered_rows, stats.covered_rows) << label;
      EXPECT_EQ(private_stats.violating_rows, stats.violating_rows) << label;

      with_violations += stats.violating_rows > 0 ? 1 : 0;
      with_coverage += stats.covered_rows > 0 ? 1 : 0;
    }
  }
  // The sweep exercises real coverage and real violations.
  EXPECT_GT(with_coverage, 0u);
  EXPECT_GT(with_violations, 0u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, CoverageDifferentialTest,
                         ::testing::Values(31, 32, 33, 34));

}  // namespace
}  // namespace anmat
