#include "detect/detector.h"

#include <gtest/gtest.h>

#include "datagen/datasets.h"
#include "detect/detector_internal.h"
#include "detect/reference_detector.h"
#include "pattern/automaton_cache.h"
#include "pattern/pattern_parser.h"
#include "reference_check.h"

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

TEST(DetectorTest, PaperLambda3DetectsS4City) {
  // Table 2 + λ3: zip 900\D{2} → Los Angeles flags s4 (row 3).
  Dataset d = PaperZipTable();
  Pfd lambda3 = Pfd::Simple("Zip", "zip", "city",
                            OneRowTableau("(900)!\\D{2}", "Los\\ Angeles"));
  DetectionResult result = DetectErrors(d.relation, lambda3).value();
  ASSERT_EQ(result.violations.size(), 1u);
  const Violation& v = result.violations[0];
  EXPECT_EQ(v.kind, ViolationKind::kConstant);
  EXPECT_EQ(v.suspect.row, 3u);
  EXPECT_EQ(v.suspect.column, 1u);
  EXPECT_EQ(v.suggested_repair, "Los Angeles");
  EXPECT_EQ(v.cells.size(), 2u);
}

TEST(DetectorTest, PaperLambda5DetectsS4CityViaVariableRow) {
  // λ5: first 3 digits determine the city — variable PFD, 4-cell violation.
  Dataset d = PaperZipTable();
  Pfd lambda5 = Pfd::Simple("Zip", "zip", "city",
                            OneRowTableau("(\\D{3})!\\D{2}", nullptr));
  DetectionResult result = DetectErrors(d.relation, lambda5).value();
  ASSERT_EQ(result.violations.size(), 1u);
  const Violation& v = result.violations[0];
  EXPECT_EQ(v.kind, ViolationKind::kVariable);
  EXPECT_EQ(v.suspect.row, 3u);
  EXPECT_EQ(v.cells.size(), 4u);
  EXPECT_EQ(v.suggested_repair, "Los Angeles");
}

TEST(DetectorTest, PaperLambda2DetectsR4Gender) {
  // λ2: Susan\ \A* → F flags r4 ("Susan Boyle", M).
  Dataset d = PaperNameTable();
  Pfd lambda2 = Pfd::Simple("Name", "name", "gender",
                            OneRowTableau("(Susan)!\\ \\A*", "F"));
  DetectionResult result = DetectErrors(d.relation, lambda2).value();
  ASSERT_EQ(result.violations.size(), 1u);
  EXPECT_EQ(result.violations[0].suspect.row, 3u);
  EXPECT_EQ(result.violations[0].suggested_repair, "F");
}

TEST(DetectorTest, PaperLambda4DetectsR4ViaPairComparison) {
  // λ4: first name determines gender; r3 vs r4 form the 4-cell violation
  // (r3[name], r3[gender], r4[name], r4[gender]) from the introduction.
  Dataset d = PaperNameTable();
  Pfd lambda4 = Pfd::Simple("Name", "name", "gender",
                            OneRowTableau("(\\LU\\LL*\\ )!\\A*", nullptr));
  DetectionResult result = DetectErrors(d.relation, lambda4).value();
  ASSERT_EQ(result.violations.size(), 1u);
  const Violation& v = result.violations[0];
  EXPECT_EQ(v.cells.size(), 4u);
  // The pair must be rows 2 and 3 (Susan Orlean / Susan Boyle).
  EXPECT_EQ(v.cells[0].row, 3u);
  EXPECT_EQ(v.cells[2].row, 2u);
}

TEST(DetectorTest, CleanDataYieldsNoViolations) {
  RelationBuilder builder(Schema::MakeText({"zip", "city"}).value());
  ASSERT_TRUE(builder.AddRow({"90001", "LA"}).ok());
  ASSERT_TRUE(builder.AddRow({"90002", "LA"}).ok());
  Relation rel = builder.Build();
  Pfd constant = Pfd::Simple("Z", "zip", "city",
                             OneRowTableau("(900)!\\D{2}", "LA"));
  Pfd variable = Pfd::Simple("Z", "zip", "city",
                             OneRowTableau("(\\D{3})!\\D{2}", nullptr));
  EXPECT_TRUE(DetectErrors(rel, constant).value().violations.empty());
  EXPECT_TRUE(DetectErrors(rel, variable).value().violations.empty());
}

TEST(DetectorTest, MatchesReferenceAtAnyThreadCount) {
  // Production (pattern index, blocking, value dictionaries, dispatch) vs
  // the full-scan / quadratic-pair oracle, constant and variable rules,
  // with one and with two pattern cells on the LHS (the second cell is
  // verified per candidate; injected errors make it fail on some rows).
  Dataset d = ZipCityStateDataset(300, 42, 0.05);
  Tableau two_cell_constant;
  TableauRow constant_row;
  constant_row.lhs.push_back(PatternCell("(9)!\\D{4}"));
  constant_row.lhs.push_back(PatternCell("CA"));
  constant_row.rhs.push_back(PatternCell("Los\\ Angeles"));
  two_cell_constant.AddRow(constant_row);
  Tableau two_cell_variable;
  TableauRow variable_row;
  variable_row.lhs.push_back(PatternCell("(\\D{3})!\\D{2}"));
  variable_row.lhs.push_back(PatternCell("(\\LU)!\\LU"));
  variable_row.rhs.push_back(TableauCell::Wildcard());
  two_cell_variable.AddRow(variable_row);
  const std::vector<Pfd> pfds = {
      Pfd::Simple("Z", "zip", "city",
                  OneRowTableau("(900)!\\D{2}", "Los\\ Angeles")),
      Pfd::Simple("Z", "zip", "city",
                  OneRowTableau("(\\D{3})!\\D{2}", nullptr)),
      Pfd("Z", {"zip", "state"}, {"city"}, two_cell_constant),
      Pfd("Z", {"zip", "state"}, {"city"}, two_cell_variable)};
  for (size_t threads : {size_t{1}, size_t{2}, size_t{4}}) {
    DetectorOptions options;
    options.execution.num_threads = threads;
    ExpectDetectMatchesReference(d.relation, pfds, options,
                                 std::to_string(threads) + " threads");
  }
}

TEST(DetectorTest, ReferenceComparesEveryPairBlockingFewer) {
  Dataset d = ZipCityStateDataset(300, 43, 0.05);
  Pfd variable = Pfd::Simple("Z", "zip", "city",
                             OneRowTableau("(\\D{3})!\\D{2}", nullptr));
  auto blocked = DetectErrors(d.relation, variable).value();
  auto reference = ReferenceDetectErrors(d.relation, {variable}).value();
  ExpectSameAsReference(blocked, reference, "blocking");
  ASSERT_FALSE(reference.violations.empty());
  // Every candidate has a canonical extraction under this pattern, so the
  // oracle compares all C(n, 2) candidate pairs; blocking pays only for
  // the pairs inside conflicting blocks.
  const size_t n = reference.stats.candidate_rows;
  EXPECT_EQ(reference.stats.pairs_checked, n * (n - 1) / 2);
  EXPECT_LT(blocked.stats.pairs_checked, reference.stats.pairs_checked);
}

TEST(DetectorTest, ReferenceHandComputedCase) {
  // A constant row with a two-attribute RHS, and a variable row whose LHS
  // pairs a pattern cell with a wildcard (classical-FD) cell.
  RelationBuilder builder(
      Schema::MakeText({"zip", "area", "city", "state"}).value());
  ASSERT_TRUE(builder.AddRow({"90001", "west", "Los Angeles", "CA"}).ok());
  ASSERT_TRUE(builder.AddRow({"90002", "west", "Los Angeles", "CA"}).ok());
  ASSERT_TRUE(builder.AddRow({"90003", "west", "Chicago", "IL"}).ok());
  ASSERT_TRUE(builder.AddRow({"90004", "east", "Boston", "MA"}).ok());
  ASSERT_TRUE(builder.AddRow({"60601", "west", "Chicago", "IL"}).ok());
  ASSERT_TRUE(builder.AddRow({"abc", "west", "X", "Y"}).ok());
  const Relation rel = builder.Build();

  Tableau constant_tableau;
  TableauRow constant_row;
  constant_row.lhs.push_back(PatternCell("(900)!\\D{2}"));
  constant_row.rhs.push_back(PatternCell("Los\\ Angeles"));
  constant_row.rhs.push_back(PatternCell("CA"));
  constant_tableau.AddRow(constant_row);
  Tableau variable_tableau;
  TableauRow variable_row;
  variable_row.lhs.push_back(PatternCell("(\\D{3})!\\D{2}"));
  variable_row.lhs.push_back(TableauCell::Wildcard());
  variable_row.rhs.push_back(TableauCell::Wildcard());
  variable_row.rhs.push_back(TableauCell::Wildcard());
  variable_tableau.AddRow(variable_row);
  const std::vector<Pfd> pfds = {
      Pfd("T", {"zip"}, {"city", "state"}, constant_tableau),
      Pfd("T", {"zip", "area"}, {"city", "state"}, variable_tableau)};

  const DetectionResult result = ReferenceDetectErrors(rel, pfds).value();
  // Rule 0 matches rows 0-3; rows 2 and 3 mismatch both RHS constants.
  // Rule 1 matches rows 0-4 (not "abc") and groups them by (zip prefix,
  // area): {0, 1, 2} on ("900", "west") splits LA/CA x2 vs Chicago/IL, so
  // row 2 is flagged against witness row 0; {3} and {4} are singletons.
  const std::string constant_lhs = constant_row.lhs[0].ToString();
  const std::vector<std::string> expected = {
      "0|0|0|2:0,2:2,2:3,|2:2|Los Angeles|zip = \"90003\" matches " +
          constant_lhs + " but city = \"Chicago\" != \"Los Angeles\"",
      "0|0|0|3:0,3:2,3:3,|3:2|Los Angeles|zip = \"90004\" matches " +
          constant_lhs + " but city = \"Boston\" != \"Los Angeles\"",
      "1|1|0|2:0,2:1,2:2,2:3,0:0,0:1,0:2,0:3,|2:2|Los Angeles|rows 2 and 0 "
      "agree on the constrained part of the LHS but disagree on city "
      "(\"Chicago\" vs \"Los Angeles\")"};
  ASSERT_EQ(result.violations.size(), expected.size());
  for (size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(ViolationFingerprint(result.violations[i]), expected[i]) << i;
  }
  EXPECT_EQ(result.stats.rows_scanned, 12u);   // 6 rows x 2 rules
  EXPECT_EQ(result.stats.candidate_rows, 9u);  // 4 + 5
  EXPECT_EQ(result.stats.pairs_checked, 10u);  // C(5, 2)
  EXPECT_EQ(result.stats.violations, 3u);

  // Production agrees; blocking compares only the conflicting block.
  const DetectionResult production = DetectErrors(rel, pfds).value();
  ExpectSameAsReference(production, result, "hand-computed");
  EXPECT_EQ(production.stats.pairs_checked, 3u);  // C(3, 2)
}

TEST(DetectorTest, KeyFragmentSeparatorPreventsConfusion) {
  using detect_internal::AppendKeyFragment;
  const ConstrainedMatcher two(
      ParseConstrainedPattern("(\\LL+)!-(\\LL+)!").value());
  std::string ab_c;
  std::string a_bc;
  ASSERT_TRUE(AppendKeyFragment(two, "ab-c", &ab_c));
  ASSERT_TRUE(AppendKeyFragment(two, "a-bc", &a_bc));
  EXPECT_EQ(ab_c, "ab\x1f" "c\x1f\x1e");
  EXPECT_NE(ab_c, a_bc);  // {"ab","c"} vs {"a","bc"}

  const ConstrainedMatcher one(ParseConstrainedPattern("(\\LL+)!").value());
  const ConstrainedMatcher maybe_empty(
      ParseConstrainedPattern("(\\LL*)!-(\\LL*)!").value());
  std::string ab;
  std::string ab_empty;
  ASSERT_TRUE(AppendKeyFragment(one, "ab", &ab));
  ASSERT_TRUE(AppendKeyFragment(maybe_empty, "ab-", &ab_empty));
  EXPECT_NE(ab, ab_empty);  // {"ab"} vs {"ab",""}

  std::string untouched = "kept";
  EXPECT_FALSE(AppendKeyFragment(two, "abc", &untouched));
  EXPECT_EQ(untouched, "kept");
}

TEST(DetectorTest, MultiplePfdsIndexedByPosition) {
  Dataset d = PaperZipTable();
  Pfd lambda3 = Pfd::Simple("Zip", "zip", "city",
                            OneRowTableau("(900)!\\D{2}", "Los\\ Angeles"));
  Pfd lambda5 = Pfd::Simple("Zip", "zip", "city",
                            OneRowTableau("(\\D{3})!\\D{2}", nullptr));
  auto result = DetectErrors(d.relation, {lambda3, lambda5}).value();
  ASSERT_EQ(result.violations.size(), 2u);
  EXPECT_EQ(result.violations[0].pfd_index, 0u);
  EXPECT_EQ(result.violations[1].pfd_index, 1u);
}

TEST(DetectorTest, MultiAttributeConstantRow) {
  // (zip ↦ 900xx, state = CA) → city = Los Angeles: two LHS attributes.
  RelationBuilder builder(
      Schema::MakeText({"zip", "state", "city"}).value());
  ASSERT_TRUE(builder.AddRow({"90001", "CA", "Los Angeles"}).ok());
  ASSERT_TRUE(builder.AddRow({"90002", "CA", "New York"}).ok());  // bad
  ASSERT_TRUE(builder.AddRow({"90003", "WA", "Seattle"}).ok());   // no match
  Relation rel = builder.Build();

  Tableau t;
  TableauRow row;
  row.lhs.push_back(PatternCell("(900)!\\D{2}"));
  row.lhs.push_back(PatternCell("CA"));
  row.rhs.push_back(PatternCell("Los\\ Angeles"));
  t.AddRow(row);
  Pfd pfd("T", {"zip", "state"}, {"city"}, t);

  auto result = DetectErrors(rel, pfd).value();
  ASSERT_EQ(result.violations.size(), 1u);
  EXPECT_EQ(result.violations[0].suspect.row, 1u);
  EXPECT_EQ(result.violations[0].suspect.column, 2u);
  EXPECT_EQ(result.violations[0].suggested_repair, "Los Angeles");
  // Cells: 2 LHS + 1 mismatching RHS.
  EXPECT_EQ(result.violations[0].cells.size(), 3u);
}

TEST(DetectorTest, MultiAttributeVariableRow) {
  // (area code, last name) jointly determine the plan column.
  RelationBuilder builder(
      Schema::MakeText({"phone", "name", "plan"}).value());
  ASSERT_TRUE(builder.AddRow({"8501112222", "Smith", "gold"}).ok());
  ASSERT_TRUE(builder.AddRow({"8503334444", "Smith", "gold"}).ok());
  ASSERT_TRUE(builder.AddRow({"8505556666", "Smith", "iron"}).ok());  // bad
  ASSERT_TRUE(builder.AddRow({"8507778888", "Jones", "silver"}).ok());
  Relation rel = builder.Build();

  Tableau t;
  TableauRow row;
  row.lhs.push_back(PatternCell("(\\D{3})!\\D{7}"));
  row.lhs.push_back(TableauCell::Wildcard());  // classical-FD cell on name
  row.rhs.push_back(TableauCell::Wildcard());
  t.AddRow(row);
  Pfd pfd("T", {"phone", "name"}, {"plan"}, t);

  auto result = DetectErrors(rel, pfd).value();
  ASSERT_EQ(result.violations.size(), 1u);
  EXPECT_EQ(result.violations[0].suspect.row, 2u);
  EXPECT_EQ(result.violations[0].suggested_repair, "gold");
}

TEST(DetectorTest, MultiAttributeRhsFlagsEachMismatch) {
  RelationBuilder builder(
      Schema::MakeText({"zip", "city", "state"}).value());
  ASSERT_TRUE(builder.AddRow({"90001", "Los Angeles", "CA"}).ok());
  ASSERT_TRUE(builder.AddRow({"90002", "Chicago", "IL"}).ok());  // both bad
  Relation rel = builder.Build();

  Tableau t;
  TableauRow row;
  row.lhs.push_back(PatternCell("(900)!\\D{2}"));
  row.rhs.push_back(PatternCell("Los\\ Angeles"));
  row.rhs.push_back(PatternCell("CA"));
  t.AddRow(row);
  Pfd pfd("T", {"zip"}, {"city", "state"}, t);

  auto result = DetectErrors(rel, pfd).value();
  ASSERT_EQ(result.violations.size(), 1u);
  // 1 LHS cell + 2 mismatching RHS cells.
  EXPECT_EQ(result.violations[0].cells.size(), 3u);
  EXPECT_EQ(result.violations[0].suggested_repair, "Los Angeles");
}

TEST(DetectorTest, InvalidPfdRejected) {
  Dataset d = PaperZipTable();
  Pfd bad = Pfd::Simple("Zip", "nope", "city",
                        OneRowTableau("(9)!\\D", "LA"));
  EXPECT_FALSE(DetectErrors(d.relation, bad).ok());
}

TEST(DetectorTest, ViolationsDeterministicallyOrdered) {
  Dataset d = ZipCityStateDataset(200, 45, 0.1);
  Pfd variable = Pfd::Simple("Z", "zip", "city",
                             OneRowTableau("(\\D{3})!\\D{2}", nullptr));
  auto a = DetectErrors(d.relation, variable).value();
  auto b = DetectErrors(d.relation, variable).value();
  ASSERT_EQ(a.violations.size(), b.violations.size());
  for (size_t i = 0; i < a.violations.size(); ++i) {
    EXPECT_EQ(a.violations[i].cells, b.violations[i].cells);
  }
}

TEST(DetectorTest, ExplanationsNonEmpty) {
  Dataset d = PaperZipTable();
  Pfd lambda3 = Pfd::Simple("Zip", "zip", "city",
                            OneRowTableau("(900)!\\D{2}", "Los\\ Angeles"));
  auto result = DetectErrors(d.relation, lambda3).value();
  ASSERT_EQ(result.violations.size(), 1u);
  EXPECT_FALSE(result.violations[0].explanation.empty());
}

TEST(DetectorTest, StatsPopulated) {
  Dataset d = ZipCityStateDataset(100, 46, 0.05);
  Pfd variable = Pfd::Simple("Z", "zip", "city",
                             OneRowTableau("(\\D{3})!\\D{2}", nullptr));
  auto result = DetectErrors(d.relation, variable).value();
  EXPECT_EQ(result.stats.rows_scanned, 100u);
  EXPECT_GT(result.stats.candidate_rows, 0u);
  EXPECT_EQ(result.stats.violations, result.violations.size());
}

std::string DetectionFingerprint(const DetectionResult& result) {
  std::string out = "scanned=" + std::to_string(result.stats.rows_scanned) +
                    " candidates=" +
                    std::to_string(result.stats.candidate_rows) +
                    " pairs=" + std::to_string(result.stats.pairs_checked) +
                    " violations=" + std::to_string(result.stats.violations) +
                    "\n";
  for (const Violation& v : result.violations) {
    out += ViolationFingerprint(v) + "\n";
  }
  return out;
}

TEST(DetectorTest, KeptStateMatchesFreshDetectAfterEveryWrite) {
  // The repair loop's seam: a run over a `DetectionState` rebuilds only
  // the items whose LHS columns were written (and recorded) since the last
  // run. After every scripted write its result must equal a fresh detect
  // (stats included) and the reference oracle. Columns: zip is every
  // rule's LHS; city is the zip rules' RHS and the city rule's LHS; region
  // is only a wildcard LHS cell; state is only ever an RHS.
  const Dataset base = ZipCityStateDataset(300, 47, 0.05);
  RelationBuilder builder(
      Schema::MakeText({"zip", "city", "state", "region"}).value());
  for (RowId r = 0; r < base.relation.num_rows(); ++r) {
    const std::string state(base.relation.cell(r, 2));
    const bool west = state == "CA" || state == "WA" || state == "CO";
    ASSERT_TRUE(builder
                    .AddRow({std::string(base.relation.cell(r, 0)),
                             std::string(base.relation.cell(r, 1)), state,
                             west ? "West" : "East"})
                    .ok());
  }
  const Relation initial = builder.Build();

  Tableau zip_region;
  TableauRow zip_region_row;
  zip_region_row.lhs.push_back(PatternCell("(\\D{2})!\\D{3}"));
  zip_region_row.lhs.push_back(TableauCell::Wildcard());
  zip_region_row.rhs.push_back(TableauCell::Wildcard());
  zip_region.AddRow(zip_region_row);
  const std::vector<Pfd> pfds = {
      Pfd::Simple("Z", "zip", "city",
                  OneRowTableau("(900)!\\D{2}", "Los\\ Angeles")),
      Pfd::Simple("Z", "zip", "city",
                  OneRowTableau("(\\D{3})!\\D{2}", nullptr)),
      Pfd::Simple("C", "city", "state",
                  OneRowTableau("(\\LU\\LL*)!\\A*", nullptr)),
      Pfd("Z", {"zip", "region"}, {"state"}, zip_region)};

  struct Write {
    const char* what;
    RowId row;
    size_t col;
    const char* value;
  };
  const Write script[] = {
      {"RHS-only state", 5, 2, "ZZ"},
      {"city: a zip rule's RHS and the city rule's LHS", 7, 1,
       "San Francisco"},
      {"city to a value the city rule's pattern rejects", 9, 1,
       "los angeles"},
      {"wildcard-only region", 11, 3, "North"},
      {"zip: single- and multi-column LHS", 13, 0, "90077"},
      {"zip to a value no zip pattern matches", 15, 0, "9x0"},
  };

  struct Config {
    std::string label;
    size_t threads;
    size_t max_frozen_states;  // 0: the default cache
  };
  const Config configs[] = {{"1 thread", 1, 0},
                            {"2 threads", 2, 0},
                            {"4 threads", 4, 0},
                            {"forced fallback, 4 threads", 4, 3}};
  for (const Config& config : configs) {
    DetectorOptions options;
    options.execution.num_threads = config.threads;
    options.automata = config.max_frozen_states == 0
                           ? std::make_shared<AutomatonCache>()
                           : std::make_shared<AutomatonCache>(
                                 config.max_frozen_states);
    Relation relation = initial;
    detect_internal::DetectionState state;
    std::string previous;
    const auto check = [&](const std::string& step, bool changed) {
      const std::string label = config.label + ", " + step;
      const Result<DetectionResult> kept =
          detect_internal::DetectErrorsKeepingState(relation, pfds, options,
                                                    &state);
      ASSERT_TRUE(kept.ok()) << label;
      const DetectionResult fresh =
          DetectErrors(relation, pfds, options).value();
      EXPECT_EQ(DetectionFingerprint(kept.value()),
                DetectionFingerprint(fresh))
          << label;
      ExpectSameAsReference(kept.value(),
                            ReferenceDetectErrors(relation, pfds).value(),
                            label);
      // Every scripted write must change what detection reports, or the
      // step would pass on stale state.
      EXPECT_EQ(DetectionFingerprint(fresh) != previous, changed) << label;
      previous = DetectionFingerprint(fresh);
    };
    check("first run", true);
    check("rerun without writes", false);
    for (const Write& w : script) {
      relation.set_cell(w.row, w.col, w.value);
      state.RecordWrite(w.col);
      check(w.what, true);
    }
    if (config.max_frozen_states != 0) {
      EXPECT_GT(options.automata->fallbacks(), 0u) << config.label;
    }
  }
}

}  // namespace
}  // namespace anmat
