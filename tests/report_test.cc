#include "anmat/report.h"

#include <gtest/gtest.h>

#include "datagen/datasets.h"
#include "detect/detector.h"
#include "discovery/discovery.h"
#include "discovery/profiler.h"
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

TEST(ProfilingViewTest, EmptyProfiles) {
  const std::string view = RenderProfilingView({});
  EXPECT_NE(view.find("Profiling"), std::string::npos);
}

TEST(ProfilingViewTest, ColumnsAndDominantPatterns) {
  Dataset d = PaperZipTable();
  std::vector<ColumnProfile> profiles = ProfileRelation(d.relation);
  const std::string view = RenderProfilingView(profiles);
  EXPECT_NE(view.find("| zip"), std::string::npos);
  EXPECT_NE(view.find("| city"), std::string::npos);
  EXPECT_NE(view.find("dominant patterns"), std::string::npos);
  EXPECT_NE(view.find("\\D{5}::0, 4"), std::string::npos);
}

TEST(Table3StyleTest, OneRowPerTableauRow) {
  Dataset d = PaperZipTable();
  Pfd lambda3 = Pfd::Simple("Zip", "zip", "city",
                            OneRowTableau("(900)!\\D{2}", "Los\\ Angeles"));
  Pfd lambda5 = Pfd::Simple("Zip", "zip", "city",
                            OneRowTableau("(\\D{3})!\\D{2}", nullptr));
  std::vector<Pfd> rules = {lambda3, lambda5};
  auto detection = DetectErrors(d.relation, rules).value();
  const std::string table = RenderTable3Style(d.relation, rules, detection);
  // Both rules appear with their example errors ("90004 | New York").
  EXPECT_NE(table.find("zip -> city"), std::string::npos);
  EXPECT_NE(table.find("(900)!\\D{2}"), std::string::npos);
  EXPECT_NE(table.find("90004 | New York"), std::string::npos);
}

TEST(ViolationsViewTest, CapsRows) {
  Dataset d = ZipCityStateDataset(500, 301, 0.1);
  Pfd rule = Pfd::Simple("Z", "zip", "city",
                         OneRowTableau("(\\D{3})!\\D{2}", nullptr));
  std::vector<Pfd> rules = {rule};
  auto detection = DetectErrors(d.relation, rules).value();
  ASSERT_GT(detection.violations.size(), 5u);
  const std::string view =
      RenderViolationsView(d.relation, rules, detection, 5);
  EXPECT_NE(view.find("more violations"), std::string::npos);
}

TEST(ViolationsViewTest, StatsLinePresent) {
  Dataset d = PaperZipTable();
  Pfd rule = Pfd::Simple("Zip", "zip", "city",
                         OneRowTableau("(900)!\\D{2}", "Los\\ Angeles"));
  std::vector<Pfd> rules = {rule};
  auto detection = DetectErrors(d.relation, rules).value();
  const std::string view = RenderViolationsView(d.relation, rules, detection);
  EXPECT_NE(view.find("row-checks"), std::string::npos);
  EXPECT_NE(view.find("index candidates"), std::string::npos);
}

TEST(ScorecardTest, ZeroDenominators) {
  PrecisionRecall pr;
  const std::string card = RenderScorecard("empty", pr);
  EXPECT_NE(card.find("precision=0.000"), std::string::npos);
  EXPECT_NE(card.find("f1=0.000"), std::string::npos);
}

/// Discovery on `relation` as table `name` with minimum coverage `gamma`
/// and `violations` the allowed violation ratio.
std::vector<DiscoveredPfd> Discover(const Relation& relation,
                                    const std::string& name, double gamma,
                                    double violations) {
  DiscoveryOptions options;
  options.table_name = name;
  options.min_coverage = gamma;
  options.allowed_violation_ratio = violations;
  return DiscoverPfds(relation, options).value().pfds;
}

TEST(ReportTest, ProfilingViewShowsPatternPositionFrequency) {
  Dataset d = ZipCityStateDataset(100, 56, 0.0);
  const std::string view = RenderProfilingView(ProfileRelation(d.relation));
  EXPECT_NE(view.find("Profiling"), std::string::npos);
  EXPECT_NE(view.find("zip"), std::string::npos);
  // Figure 3/4 entry format "pattern::position, frequency".
  EXPECT_NE(view.find("\\D{5}::0, "), std::string::npos);
}

TEST(ReportTest, DiscoveredViewShowsTableauAndCoverage) {
  Dataset d = ZipCityStateDataset(200, 57, 0.0);
  const std::string view =
      RenderDiscoveredPfdsView(Discover(d.relation, "Zip", 0.5, 0.1));
  EXPECT_NE(view.find("Discovered PFDs"), std::string::npos);
  EXPECT_NE(view.find("coverage="), std::string::npos);
}

TEST(ReportTest, EmptyDiscoveredView) {
  EXPECT_NE(RenderDiscoveredPfdsView({}).find("(none)"), std::string::npos);
}

TEST(ReportTest, ViolationsViewShowsRecordsAndRepairs) {
  Dataset d = PaperZipTable();
  std::vector<Pfd> rules;
  for (const DiscoveredPfd& p : Discover(d.relation, "Zip", 0.5, 0.3)) {
    rules.push_back(p.pfd);
  }
  const DetectionResult detection = DetectErrors(d.relation, rules).value();
  const std::string view = RenderViolationsView(d.relation, rules, detection);
  EXPECT_NE(view.find("Violations"), std::string::npos);
  EXPECT_NE(view.find("New York"), std::string::npos);
}

TEST(ReportTest, ScorecardFormat) {
  PrecisionRecall pr;
  pr.true_positives = 8;
  pr.false_positives = 2;
  pr.false_negatives = 2;
  const std::string card = RenderScorecard("pfd", pr);
  EXPECT_NE(card.find("precision=0.800"), std::string::npos);
  EXPECT_NE(card.find("recall=0.800"), std::string::npos);
}

}  // namespace
}  // namespace anmat
