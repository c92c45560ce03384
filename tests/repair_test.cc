#include "repair/repair.h"

#include <set>

#include <gtest/gtest.h>

#include "datagen/datasets.h"
#include "discovery/discovery.h"
#include "pattern/pattern_parser.h"

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

TEST(RepairTest, ConstantRuleRepairsPaperZipTable) {
  Dataset d = PaperZipTable();
  Pfd lambda3 = Pfd::Simple("Zip", "zip", "city",
                            OneRowTableau("(900)!\\D{2}", "Los\\ Angeles"));
  RepairResult result = RepairErrors(&d.relation, {lambda3}).value();
  ASSERT_EQ(result.repairs.size(), 1u);
  EXPECT_EQ(result.repairs[0].cell, (CellRef{3, 1}));
  EXPECT_EQ(result.repairs[0].before, "New York");
  EXPECT_EQ(result.repairs[0].after, "Los Angeles");
  EXPECT_EQ(d.relation.cell(3, 1), "Los Angeles");
  EXPECT_EQ(result.remaining_violations, 0u);
}

TEST(RepairTest, VariableRuleRepairsViaMajority) {
  Dataset d = PaperZipTable();
  Pfd lambda5 = Pfd::Simple("Zip", "zip", "city",
                            OneRowTableau("(\\D{3})!\\D{2}", nullptr));
  RepairResult result = RepairErrors(&d.relation, {lambda5}).value();
  ASSERT_EQ(result.repairs.size(), 1u);
  EXPECT_EQ(d.relation.cell(3, 1), "Los Angeles");
  EXPECT_EQ(result.remaining_violations, 0u);
}

TEST(RepairTest, VariableRepairsCanBeDisabled) {
  Dataset d = PaperZipTable();
  Pfd lambda5 = Pfd::Simple("Zip", "zip", "city",
                            OneRowTableau("(\\D{3})!\\D{2}", nullptr));
  RepairOptions opts;
  opts.apply_variable_repairs = false;
  RepairResult result = RepairErrors(&d.relation, {lambda5}, opts).value();
  EXPECT_TRUE(result.repairs.empty());
  EXPECT_EQ(d.relation.cell(3, 1), "New York");  // untouched
  EXPECT_EQ(result.remaining_violations, 1u);
}

TEST(RepairTest, ConflictingSuggestionsLeaveCellAlone) {
  // Two constant rules disagree about the same RHS cell.
  RelationBuilder builder(Schema::MakeText({"zip", "city"}).value());
  ASSERT_TRUE(builder.AddRow({"90001", "Somewhere"}).ok());
  Relation rel = builder.Build();
  Pfd rule_a = Pfd::Simple("Z", "zip", "city",
                           OneRowTableau("(900)!\\D{2}", "Los\\ Angeles"));
  Pfd rule_b = Pfd::Simple("Z", "zip", "city",
                           OneRowTableau("(9)!\\D{4}", "Pasadena"));
  RepairResult result = RepairErrors(&rel, {rule_a, rule_b}).value();
  EXPECT_TRUE(result.repairs.empty());
  ASSERT_EQ(result.conflicted_cells.size(), 1u);
  EXPECT_EQ(result.conflicted_cells[0], (CellRef{0, 1}));
  EXPECT_EQ(rel.cell(0, 1), "Somewhere");
  EXPECT_EQ(result.remaining_violations, 2u);
}

TEST(RepairTest, CleanRelationNeedsNoPasses) {
  RelationBuilder builder(Schema::MakeText({"zip", "city"}).value());
  ASSERT_TRUE(builder.AddRow({"90001", "LA"}).ok());
  ASSERT_TRUE(builder.AddRow({"90002", "LA"}).ok());
  Relation rel = builder.Build();
  Pfd rule = Pfd::Simple("Z", "zip", "city", OneRowTableau("(900)!\\D{2}",
                                                           "LA"));
  RepairResult result = RepairErrors(&rel, {rule}).value();
  EXPECT_TRUE(result.repairs.empty());
  EXPECT_EQ(result.passes, 1u);
  EXPECT_EQ(result.remaining_violations, 0u);
}

TEST(RepairTest, MaxPassesRespected) {
  Dataset d = ZipCityStateDataset(300, 201, 0.05);
  DiscoveryOptions opts;
  opts.min_coverage = 0.3;
  opts.allowed_violation_ratio = 0.1;
  DiscoveryResult discovered = DiscoverPfds(d.relation, opts).value();
  std::vector<Pfd> rules;
  for (const DiscoveredPfd& p : discovered.pfds) rules.push_back(p.pfd);
  ASSERT_FALSE(rules.empty());

  RepairOptions ropts;
  ropts.max_passes = 1;
  RepairResult result = RepairErrors(&d.relation, rules, ropts).value();
  EXPECT_LE(result.passes, 1u);
}

TEST(RepairTest, EndToEndRestoresInjectedValues) {
  Dataset d = ZipCityStateDataset(800, 202, 0.03);
  ASSERT_FALSE(d.ground_truth.empty());
  DiscoveryOptions opts;
  opts.min_coverage = 0.3;
  opts.allowed_violation_ratio = 0.1;
  DiscoveryResult discovered = DiscoverPfds(d.relation, opts).value();
  std::vector<Pfd> rules;
  for (const DiscoveredPfd& p : discovered.pfds) rules.push_back(p.pfd);
  ASSERT_FALSE(rules.empty());

  RepairResult result = RepairErrors(&d.relation, rules).value();
  EXPECT_FALSE(result.repairs.empty());

  // Most corrupted cells must be restored to their original values.
  size_t restored = 0;
  for (const InjectedError& e : d.ground_truth) {
    if (d.relation.cell(e.cell.row, e.cell.column) == e.original) ++restored;
  }
  EXPECT_GT(static_cast<double>(restored) /
                static_cast<double>(d.ground_truth.size()),
            0.85);
}

TEST(RepairTest, RepeatedRunsConvergeToFixpoint) {
  // Repair is not strictly idempotent when rules interact (a repair under
  // one rule can expose a second rule's disagreement, which the in-run
  // conflict guard blocks but a fresh run may apply). The guaranteed
  // contract is convergence: repeated runs reach a fixpoint quickly and
  // never increase the violation count.
  Dataset d = ZipCityStateDataset(500, 203, 0.04);
  DiscoveryOptions opts;
  opts.min_coverage = 0.3;
  opts.allowed_violation_ratio = 0.1;
  DiscoveryResult discovered = DiscoverPfds(d.relation, opts).value();
  std::vector<Pfd> rules;
  for (const DiscoveredPfd& p : discovered.pfds) rules.push_back(p.pfd);
  ASSERT_FALSE(rules.empty());

  size_t prev_violations = DetectErrors(d.relation, rules).value()
                               .violations.size();
  bool reached_fixpoint = false;
  for (int run = 0; run < 5; ++run) {
    RepairResult result = RepairErrors(&d.relation, rules).value();
    EXPECT_LE(result.remaining_violations, prev_violations);
    prev_violations = result.remaining_violations;
    if (result.repairs.empty()) {
      reached_fixpoint = true;
      break;
    }
  }
  EXPECT_TRUE(reached_fixpoint);
}

TEST(RepairTest, MixedRulesNeverIncreaseViolations) {
  Dataset d = ZipCityStateDataset(500, 204, 0.04);
  DiscoveryOptions opts;
  opts.min_coverage = 0.3;
  opts.allowed_violation_ratio = 0.1;
  DiscoveryResult discovered = DiscoverPfds(d.relation, opts).value();
  std::vector<Pfd> rules;
  for (const DiscoveredPfd& p : discovered.pfds) rules.push_back(p.pfd);
  ASSERT_FALSE(rules.empty());

  auto before = DetectErrors(d.relation, rules).value();
  RepairResult result = RepairErrors(&d.relation, rules).value();
  EXPECT_LE(result.remaining_violations, before.violations.size());
  // Each cell is repaired at most once per run (no oscillation).
  std::set<CellRef> seen;
  for (const AppliedRepair& r : result.repairs) {
    EXPECT_TRUE(seen.insert(r.cell).second)
        << "cell repaired twice in one run";
  }
}

TEST(RepairTest, FinalDetectionDescribesRepairedRelation) {
  Dataset d = ZipCityStateDataset(400, 77, 0.05);
  DiscoveryOptions options;
  options.min_coverage = 0.4;
  const DiscoveryResult discovery = DiscoverPfds(d.relation, options).value();
  std::vector<Pfd> rules;
  for (const DiscoveredPfd& p : discovery.pfds) rules.push_back(p.pfd);
  ASSERT_FALSE(rules.empty());
  const RepairResult result = RepairErrors(&d.relation, rules).value();
  ASSERT_FALSE(result.repairs.empty());
  // The returned verification pass is a detection over the repaired
  // relation, so callers need not re-detect.
  const DetectionResult fresh = DetectErrors(d.relation, rules).value();
  ASSERT_EQ(result.final_detection.violations.size(),
            fresh.violations.size());
  EXPECT_EQ(result.remaining_violations, fresh.violations.size());
  for (size_t i = 0; i < fresh.violations.size(); ++i) {
    EXPECT_EQ(result.final_detection.violations[i].suspect,
              fresh.violations[i].suspect);
  }
}

TEST(RepairTest, NullRelationRejected) {
  Pfd rule = Pfd::Simple("Z", "zip", "city", OneRowTableau("(9)!\\D", "LA"));
  EXPECT_FALSE(RepairErrors(nullptr, {rule}).ok());
}

TEST(RepairTest, RepairsAreAudited) {
  Dataset d = PaperZipTable();
  Pfd lambda3 = Pfd::Simple("Zip", "zip", "city",
                            OneRowTableau("(900)!\\D{2}", "Los\\ Angeles"));
  RepairResult result = RepairErrors(&d.relation, {lambda3}).value();
  ASSERT_EQ(result.repairs.size(), 1u);
  EXPECT_EQ(result.repairs[0].pfd_index, 0u);
  EXPECT_EQ(result.repairs[0].pass, 0u);
}

}  // namespace
}  // namespace anmat
