#include "detect/pattern_index.h"

#include <gtest/gtest.h>

#include "pattern/matcher.h"
#include "pattern/pattern_parser.h"

namespace anmat {
namespace {

Relation MixedColumn() {
  RelationBuilder builder(Schema::MakeText({"v"}).value());
  const std::vector<std::string> values = {
      "90001",        // 0
      "90002",        // 1
      "60601",        // 2
      "John Charles", // 3
      "John Bosco",   // 4
      "Susan Boyle",  // 5
      "F-9-107",      // 6
      "8505467600",   // 7
  };
  for (const std::string& v : values) {
    EXPECT_TRUE(builder.AddRow({v}).ok());
  }
  return builder.Build();
}

std::vector<RowId> ScanReference(const Relation& rel, const Pattern& p) {
  PatternMatcher m(p);
  std::vector<RowId> out;
  for (RowId r = 0; r < rel.num_rows(); ++r) {
    if (m.Matches(rel.cell(r, 0))) out.push_back(r);
  }
  return out;
}

TEST(PatternIndexTest, AgreesWithScanOnVariousPatterns) {
  Relation rel = MixedColumn();
  PatternIndex index(rel, 0);
  for (const char* text :
       {"\\D{5}", "900\\D{2}", "\\D{10}", "John\\ \\A*", "\\LU\\LL*\\ \\A*",
        "\\LU-\\D-\\D{3}", "\\A*", "zzz", "\\D*"}) {
    Pattern p = ParsePattern(text).value();
    EXPECT_EQ(index.Lookup(p), ScanReference(rel, p)) << text;
  }
}

TEST(PatternIndexTest, ConstrainedLookupUsesEmbeddedPattern) {
  Relation rel = MixedColumn();
  PatternIndex index(rel, 0);
  ConstrainedPattern q = ParseConstrainedPattern("(900)!\\D{2}").value();
  std::vector<RowId> rows = index.Lookup(q);
  EXPECT_EQ(rows, (std::vector<RowId>{0, 1}));
}

TEST(PatternIndexTest, TokenAnchorNarrowsCandidates) {
  Relation rel = MixedColumn();
  PatternIndex index(rel, 0);
  Pattern p = ParsePattern("John\\ \\A*").value();
  std::vector<RowId> rows = index.Lookup(p);
  EXPECT_EQ(rows, (std::vector<RowId>{3, 4}));
  // The anchor "John" should prefilter to exactly the 2 John rows.
  EXPECT_LE(index.last_candidates(), 2u);
}

TEST(PatternIndexTest, AnchorInsideLongerTokenStillFindsRows) {
  // "HumanResource" is a mandatory literal run of the pattern but not a
  // whole token of the matching values; the one value whose token it is
  // (a typo) does not match. The token posting list must not bound the
  // candidates, nor must "Donald" for values whose token is "Donald,".
  RelationBuilder builder(Schema::MakeText({"v"}).value());
  for (const char* v : {"HumanResources", "HumanResource", "HumanResources",
                        "Donald, E.", "Donald"}) {
    EXPECT_TRUE(builder.AddRow({v}).ok());
  }
  Relation rel = builder.Build();
  PatternIndex index(rel, 0);
  for (const char* text :
       {"HumanResource\\LL+", "Donald,\\ \\A*", "Donald", "\\LU\\LL+"}) {
    Pattern p = ParsePattern(text).value();
    EXPECT_EQ(index.Lookup(p), ScanReference(rel, p)) << text;
  }
  EXPECT_EQ(index.Lookup(ParsePattern("HumanResource\\LL+").value()),
            (std::vector<RowId>{0, 2}));
}

TEST(PatternIndexTest, SignaturePrefilterLimitsCandidates) {
  Relation rel = MixedColumn();
  PatternIndex index(rel, 0);
  Pattern p = ParsePattern("\\D{5}").value();
  std::vector<RowId> rows = index.Lookup(p);
  EXPECT_EQ(rows, (std::vector<RowId>{0, 1, 2}));
  // Length-incompatible signatures (10-digit phone, names) are filtered
  // before verification.
  EXPECT_LT(index.last_candidates(), rel.num_rows());
}

TEST(PatternIndexTest, StatsExposed) {
  Relation rel = MixedColumn();
  PatternIndex index(rel, 0);
  EXPECT_GT(index.num_signatures(), 0u);
  EXPECT_GT(index.num_tokens(), 0u);
  EXPECT_EQ(index.column(), 0u);
}

TEST(PatternIndexTest, EmptyRelation) {
  Relation rel(Schema::MakeText({"v"}).value());
  PatternIndex index(rel, 0);
  EXPECT_TRUE(index.Lookup(ParsePattern("\\D").value()).empty());
}

TEST(PatternIndexTest, DuplicateValuesAllReturned) {
  RelationBuilder builder(Schema::MakeText({"v"}).value());
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(builder.AddRow({"90001"}).ok());
  }
  Relation rel = builder.Build();
  PatternIndex index(rel, 0);
  EXPECT_EQ(index.Lookup(ParsePattern("\\D{5}").value()).size(), 5u);
}

// -- Incremental build (the streaming path) --------------------------------

TEST(PatternIndexTest, IncrementalBuildMatchesBulk) {
  Relation rel = MixedColumn();
  const PatternIndex bulk(rel, 0);

  // Grow a dictionary and index in uneven chunks over the same column.
  ColumnDictionary dict;
  PatternIndex incremental(rel, 0, &dict);
  const std::vector<std::string_view>& cells = rel.column(0);
  const size_t cuts[] = {0, 3, 4, cells.size()};
  for (size_t i = 0; i + 1 < std::size(cuts); ++i) {
    dict.Append({cells.begin() + cuts[i], cells.begin() + cuts[i + 1]},
                static_cast<RowId>(cuts[i]));
    incremental.AppendRows(static_cast<RowId>(cuts[i]),
                           static_cast<RowId>(cuts[i + 1]));
  }

  EXPECT_EQ(incremental.num_signatures(), bulk.num_signatures());
  EXPECT_EQ(incremental.num_tokens(), bulk.num_tokens());
  for (const char* text :
       {"\\D{5}", "John\\ \\A*", "\\A+\\ \\A+", "\\LU-\\D-\\D{3}",
        "900\\D{2}", "\\D{10}", "\\A+"}) {
    auto parsed = ParsePattern(text);
    ASSERT_TRUE(parsed.ok()) << text;
    EXPECT_EQ(incremental.Lookup(parsed.value()), bulk.Lookup(parsed.value()))
        << text;
  }
}

TEST(PatternIndexTest, CandidateSupersetTailRestriction) {
  Relation rel = MixedColumn();
  const PatternIndex bulk(rel, 0);
  const Pattern p = ParsePattern("\\D{5}").value();
  const std::vector<RowId> all = bulk.CandidateSuperset(p, 0);
  const std::vector<RowId> tail = bulk.CandidateSuperset(p, 2);
  // The tail is exactly the >= min_row suffix of the full candidate list.
  std::vector<RowId> expected;
  for (RowId r : all) {
    if (r >= 2) expected.push_back(r);
  }
  EXPECT_EQ(tail, expected);
}

}  // namespace
}  // namespace anmat
