// Failure-injection / robustness tests: the parsers and the discovery
// pipeline must degrade gracefully (error Status, never crash, never
// corrupt state) on adversarial and randomly-mangled inputs.

#include <gtest/gtest.h>

#include <cstdio>
#include <string>

#include "csv/csv_reader.h"
#include "csv_reference.h"
#include "datagen/datasets.h"
#include "detect/detector.h"
#include "discovery/discovery.h"
#include "pattern/generalizer.h"
#include "pattern/matcher.h"
#include "pattern/pattern_parser.h"
#include "store/rule_store.h"
#include "util/json.h"
#include "util/random.h"

namespace anmat {
namespace {

// ---------------------------------------------------------------------------
// Random-input fuzz smoke tests (seeded, deterministic).

class FuzzParsers : public ::testing::TestWithParam<uint64_t> {};

TEST_P(FuzzParsers, PatternParserNeverCrashes) {
  Rng rng(GetParam());
  static constexpr std::string_view kChars =
      "\\ADLUS(){}!&*+?0123456789abcXYZ ,.-";
  for (int i = 0; i < 300; ++i) {
    const std::string input =
        rng.NextString(1 + rng.NextBelow(24), kChars);
    auto pattern = ParsePattern(input);
    auto constrained = ParseConstrainedPattern(input);
    // On success, the result must round-trip and be matchable.
    if (pattern.ok()) {
      auto reparsed = ParsePattern(pattern.value().ToString());
      ASSERT_TRUE(reparsed.ok()) << input;
      EXPECT_EQ(pattern.value(), reparsed.value()) << input;
      PatternMatcher matcher(pattern.value());
      (void)matcher.Matches("probe 123");
    }
    if (constrained.ok()) {
      ConstrainedMatcher matcher(constrained.value());
      (void)matcher.Matches("probe 123");
    }
  }
}

TEST_P(FuzzParsers, JsonParserNeverCrashes) {
  Rng rng(GetParam());
  static constexpr std::string_view kChars = "{}[]\",:0123456789.eE+-truefalsn\\ ";
  for (int i = 0; i < 300; ++i) {
    const std::string input = rng.NextString(rng.NextBelow(48), kChars);
    auto parsed = ParseJson(input);
    if (parsed.ok()) {
      // Valid documents round-trip through Dump().
      auto reparsed = ParseJson(parsed.value().Dump());
      ASSERT_TRUE(reparsed.ok()) << input;
    }
  }
}

TEST_P(FuzzParsers, CsvReadersAgreeWithReference) {
  // Short random buffers drive the SIMD scanner's tail handling and every
  // quoted path; both readers must store the oracle's schema and cells or
  // fail where it does, and fail identically to each other.
  Rng rng(GetParam());
  static constexpr std::string_view kChars = "a,\"\n\r;x1 ";
  const std::string path = ::testing::TempDir() + "/anmat_fuzz_csv_" +
                           std::to_string(GetParam()) + ".csv";
  for (int i = 0; i < 300; ++i) {
    const std::string input = rng.NextString(rng.NextBelow(64), kChars);
    WriteBytes(path, input);
    for (const bool header : {true, false}) {
      CsvOptions options;
      options.has_header = header;
      auto from_string = ReadCsvString(input, options);
      auto from_file = ReadCsvFile(path, options);
      ExpectMatchesReference(input, options, from_string, "ReadCsvString");
      ExpectMatchesReference(input, options, from_file, "ReadCsvFile");
      EXPECT_EQ(from_string.status(), from_file.status()) << input;
    }
  }
  std::remove(path.c_str());
}

TEST_P(FuzzParsers, RuleSetParserNeverCrashes) {
  Rng rng(GetParam());
  // Start from a valid rule file and corrupt random bytes.
  Tableau t;
  TableauRow row;
  row.lhs.push_back(
      TableauCell::Of(ParseConstrainedPattern("(\\D{3})!\\D{2}").value()));
  row.rhs.push_back(TableauCell::Wildcard());
  t.AddRow(row);
  const std::string valid =
      SerializeRuleSet({Pfd::Simple("Z", "zip", "city", t)});
  for (int i = 0; i < 200; ++i) {
    std::string corrupted = valid;
    const size_t n_mutations = 1 + rng.NextBelow(4);
    for (size_t m = 0; m < n_mutations; ++m) {
      corrupted[rng.NextBelow(corrupted.size())] =
          static_cast<char>(32 + rng.NextBelow(95));
    }
    auto parsed = ParseRuleSet(corrupted);
    if (parsed.ok()) {
      // Whatever survived must re-serialize without crashing.
      (void)SerializeRuleSet(parsed.value());
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FuzzParsers,
                         ::testing::Values(11, 22, 33, 44));

// ---------------------------------------------------------------------------
// Hostile but structured inputs.

TEST(RobustnessTest, PathologicalPatternsStayFast) {
  // Long literal runs, big bounded counts, many elements.
  auto p1 = ParsePattern("\\A{64}\\D{64}\\LL{64}");
  ASSERT_TRUE(p1.ok());
  PatternMatcher m1(p1.value());
  EXPECT_FALSE(m1.Matches(std::string(200, 'x')));

  std::string many;
  for (int i = 0; i < 100; ++i) many += "\\D*";
  auto p2 = ParsePattern(many);
  ASSERT_TRUE(p2.ok());
  PatternMatcher m2(p2.value());
  EXPECT_TRUE(m2.Matches(std::string(64, '7')));
}

TEST(RobustnessTest, LongCellsDoNotBreakDiscovery) {
  RelationBuilder builder(Schema::MakeText({"a", "b"}).value());
  const std::string long_cell(5000, 'x');
  ASSERT_TRUE(builder.AddRow({long_cell, "v"}).ok());
  ASSERT_TRUE(builder.AddRow({long_cell + "y", "v"}).ok());
  ASSERT_TRUE(builder.AddRow({"short", "w"}).ok());
  Relation rel = builder.Build();
  DiscoveryOptions opts;
  opts.min_coverage = 0.1;
  auto result = DiscoverPfds(rel, opts);
  EXPECT_TRUE(result.ok());
}

TEST(RobustnessTest, EmptyAndNullHeavyColumns) {
  RelationBuilder builder(Schema::MakeText({"a", "b"}).value());
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(builder.AddRow({"", ""}).ok());
  }
  ASSERT_TRUE(builder.AddRow({"x1", "y"}).ok());
  Relation rel = builder.Build();
  auto result = DiscoverPfds(rel, {});
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result.value().pfds.empty());
}

TEST(RobustnessTest, SingleRowRelation) {
  RelationBuilder builder(Schema::MakeText({"a", "b"}).value());
  ASSERT_TRUE(builder.AddRow({"90001", "LA"}).ok());
  Relation rel = builder.Build();
  auto result = DiscoverPfds(rel, {});
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result.value().pfds.empty());
}

TEST(RobustnessTest, NonAsciiBytesTreatedAsSymbols) {
  // UTF-8 multibyte sequences pass through as symbol characters.
  RelationBuilder builder(Schema::MakeText({"name", "tag"}).value());
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(builder.AddRow({"Zo\xc3\xab Smith", "t"}).ok());
  }
  Relation rel = builder.Build();
  auto result = DiscoverPfds(rel, {});
  EXPECT_TRUE(result.ok());
  // And matching a signature of such a value works.
  Pattern sig = GeneralizeString("Zo\xc3\xab", GeneralizationLevel::kClassExact);
  EXPECT_TRUE(PatternMatcher(sig).Matches("Zo\xc3\xab"));
}

TEST(RobustnessTest, DetectionWithZeroRules) {
  Dataset d = PaperZipTable();
  auto result = DetectErrors(d.relation, std::vector<Pfd>{});
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result.value().violations.empty());
}

}  // namespace
}  // namespace anmat
