#include "discovery/inverted_list.h"

#include <gtest/gtest.h>

#include <map>
#include <set>
#include <tuple>
#include <utility>

#include "datagen/datasets.h"
#include "discovery/decision.h"
#include "util/string_util.h"
#include "util/tokenizer.h"

namespace anmat {
namespace {

Relation TwoColumns(
    const std::vector<std::pair<std::string, std::string>>& rows) {
  RelationBuilder builder(Schema::MakeText({"a", "b"}).value());
  for (const auto& [a, b] : rows) EXPECT_TRUE(builder.AddRow({a, b}).ok());
  return builder.Build();
}

Relation NameGenderRelation() {
  return TwoColumns({{"John Charles", "M"},
                     {"John Bosco", "M"},
                     {"Susan Orlean", "F"},
                     {"Susan Boyle", "M"}});  // the dirty row
}

const KeyEntry* Find(const KeyList& list, const std::string& text,
                     uint32_t position) {
  for (const KeyEntry& e : list) {
    if (e.text == text && e.position == position) return &e;
  }
  return nullptr;
}

TEST(InvertedListTest, TokenModePopulatesKeys) {
  Relation rel = NameGenderRelation();
  const KeyList list = BuildKeyList(rel.dictionary(0), TokenMode::kTokens, 0);
  // Keys: John@0 (x2), Susan@0 (x2), Charles@1, Bosco@1, Orlean@1, Boyle@1.
  EXPECT_EQ(list.size(), 6u);
  const KeyEntry* john = Find(list, "John", 0);
  ASSERT_NE(john, nullptr);
  ASSERT_EQ(john->postings.size(), 2u);
  EXPECT_EQ(john->postings[0].value_id, 0u);
  EXPECT_EQ(john->postings[1].value_id, 1u);
  EXPECT_EQ(john->rows, 2u);
}

TEST(InvertedListTest, PositionsDistinguishKeys) {
  Relation rel = TwoColumns({{"x y", "1"}, {"y x", "2"}});
  const KeyList list = BuildKeyList(rel.dictionary(0), TokenMode::kTokens, 0);
  // "x"@0 and "x"@1 are distinct keys.
  EXPECT_EQ(list.size(), 4u);
  EXPECT_NE(Find(list, "x", 0), nullptr);
  EXPECT_NE(Find(list, "x", 1), nullptr);
}

TEST(InvertedListTest, PostingsCarryCharacterOffsets) {
  Relation rel = TwoColumns({{"Holloway, Donald E.", "M"}});
  const KeyList list = BuildKeyList(rel.dictionary(0), TokenMode::kTokens, 0);
  const KeyEntry* donald = Find(list, "Donald", 1);
  ASSERT_NE(donald, nullptr);
  EXPECT_EQ(donald->postings[0].offset, 10u);
}

TEST(InvertedListTest, NGramMode) {
  Relation rel = TwoColumns({{"90001", "LA"}, {"90002", "LA"}});
  const KeyList list = BuildKeyList(rel.dictionary(0), TokenMode::kNGrams, 3);
  const KeyEntry* e = Find(list, "900", 0);
  ASSERT_NE(e, nullptr);
  EXPECT_EQ(e->postings.size(), 2u);
  const KeyEntry* tail = Find(list, "001", 2);
  ASSERT_NE(tail, nullptr);
  EXPECT_EQ(tail->postings[0].offset, 2u);
}

TEST(InvertedListTest, PrefixMode) {
  Relation rel = TwoColumns({{"90001", "LA"}});
  const KeyList list = BuildKeyList(rel.dictionary(0), TokenMode::kPrefix, 3);
  EXPECT_EQ(list.size(), 3u);  // "9", "90", "900"
  EXPECT_NE(Find(list, "90", 0), nullptr);
}

TEST(InvertedListTest, DuplicateValuesPostOnceAndCountTheirRows) {
  Relation rel = TwoColumns(
      {{"John Charles", "M"}, {"John Bosco", "M"}, {"John Charles", "M"}});
  const KeyList list = BuildKeyList(rel.dictionary(0), TokenMode::kTokens, 0);
  const KeyEntry* john = Find(list, "John", 0);
  ASSERT_NE(john, nullptr);
  EXPECT_EQ(john->postings.size(), 2u);  // two distinct values
  EXPECT_EQ(john->rows, 3u);             // standing for three rows
}

TEST(InvertedListTest, EmptyCellsSkipped) {
  Relation rel = TwoColumns({{"", "x"}, {"k", ""}, {"k", "v"}});
  const KeyList list = BuildKeyList(rel.dictionary(0), TokenMode::kTokens, 0);
  ASSERT_EQ(list.size(), 1u);  // the blank LHS has no key
  EXPECT_EQ(list[0].postings.size(), 1u);
  // The blank RHS of row 1 is counted but marked; only row 2 votes.
  const PairCounts counts(rel, 0, 1);
  const uint32_t k = list[0].postings[0].value_id;
  ASSERT_EQ(counts.of(k).size(), 2u);
  size_t voting = 0;
  for (const PairCounts::Pair& p : counts.of(k)) {
    if (!counts.rhs_blank(p.rhs_id)) voting += p.rows;
  }
  EXPECT_EQ(voting, 1u);
  const uint32_t blank = rel.dictionary(0).value_id(0);
  EXPECT_TRUE(counts.of(blank).empty());
  DecisionOptions opts;
  opts.min_support = 1;
  EXPECT_EQ(DecideConstantEntry(list[0].postings, counts, opts).support, 1u);
}

TEST(InvertedListTest, OverLongValuesSkipped) {
  Relation rel = TwoColumns({{"abcdef", "x"}, {"abc", "y"}});
  const KeyList list =
      BuildKeyList(rel.dictionary(0), TokenMode::kNGrams, 2, 4);
  for (const KeyEntry& e : list) {
    for (const Posting& p : e.postings) EXPECT_EQ(p.value_id, 1u);
  }
  EXPECT_EQ(list.size(), 2u);  // "ab", "bc" of "abc"
}

TEST(InvertedListTest, OrderIsFirstOccurrenceAndDeterministic) {
  Relation rel = NameGenderRelation();
  const KeyList list = BuildKeyList(rel.dictionary(0), TokenMode::kTokens, 0);
  const std::vector<std::pair<std::string, uint32_t>> want = {
      {"John", 0},  {"Charles", 1}, {"Bosco", 1},
      {"Susan", 0}, {"Orlean", 1},  {"Boyle", 1}};
  ASSERT_EQ(list.size(), want.size());
  for (size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(list[i].text, want[i].first);
    EXPECT_EQ(list[i].position, want[i].second);
  }
  const KeyList again =
      BuildKeyList(rel.dictionary(0), TokenMode::kTokens, 0);
  for (size_t i = 0; i < list.size(); ++i) {
    EXPECT_EQ(again[i].text, list[i].text);
  }
}

TEST(InvertedListTest, SignatureListGroupsWholeValues) {
  Relation rel = TwoColumns(
      {{"90001", "LA"}, {"AB-12", "x"}, {"90002", "LA"}, {"90001", "LA"}});
  std::vector<Pattern> patterns;
  const KeyList list = BuildSignatureList(rel.dictionary(0), 0, &patterns);
  ASSERT_EQ(list.size(), 2u);
  ASSERT_EQ(patterns.size(), 2u);
  // Ascending text: `\D{5}` sorts before `\LU{2}-\D{2}`.
  EXPECT_EQ(list[0].text, "\\D{5}");
  EXPECT_EQ(patterns[0].ToString(), "\\D{5}");
  EXPECT_EQ(list[0].postings.size(), 2u);
  EXPECT_EQ(list[0].rows, 3u);
  EXPECT_EQ(list[1].text, patterns[1].ToString());
}

TEST(PairCountsTest, CountsRowsPerValuePair) {
  Relation rel = TwoColumns(
      {{"a", "x"}, {"a", "y"}, {"b", "x"}, {"a", "x"}, {"a", "x"}});
  const PairCounts counts(rel, 0, 1);
  const auto a = counts.of(0);
  ASSERT_EQ(a.size(), 2u);
  EXPECT_EQ(a[0].rhs_id, 0u);  // "x"
  EXPECT_EQ(a[0].rows, 3u);
  EXPECT_EQ(a[1].rhs_id, 1u);  // "y"
  EXPECT_EQ(a[1].rows, 1u);
  ASSERT_EQ(counts.of(1).size(), 1u);
}

// ---- Row-at-a-time oracle ---------------------------------------------------
//
// The key lists must hold, for every key, exactly the rows and offsets a
// row-at-a-time pass over the column finds: one (row, offset) per row whose
// non-blank, not over-long cell carries the key.

using OracleList =
    std::map<std::pair<std::string, uint32_t>,
             std::set<std::pair<RowId, uint32_t>>>;

OracleList RowAtATimeOracle(const Relation& rel, size_t col, TokenMode mode,
                            size_t gram_len, size_t max_value_length) {
  OracleList out;
  for (RowId r = 0; r < rel.num_rows(); ++r) {
    const std::string_view cell = rel.cell(r, col);
    if (TrimView(cell).empty()) continue;
    if (max_value_length > 0 && cell.size() > max_value_length) continue;
    const std::vector<Token> keys =
        mode == TokenMode::kTokens   ? Tokenize(cell)
        : mode == TokenMode::kNGrams ? NGrams(cell, gram_len)
                                     : PrefixGrams(cell, gram_len);
    for (const Token& t : keys) out[{t.text, t.position}].insert({r, t.offset});
  }
  return out;
}

OracleList Expand(const KeyList& list, const ColumnDictionary& dict) {
  OracleList out;
  for (const KeyEntry& e : list) {
    auto& rows = out[{e.text, e.position}];
    size_t n = 0;
    for (const Posting& p : e.postings) {
      for (const RowId r : dict.rows(p.value_id)) rows.insert({r, p.offset});
      n += dict.rows(p.value_id).size();
    }
    EXPECT_EQ(e.rows, n) << e.text;
  }
  return out;
}

TEST(InvertedListOracleTest, KeyListsEqualRowAtATimeLists) {
  const std::vector<std::pair<std::string, Dataset>> datasets = {
      {"phone", PhoneStateDataset(300, 3, 0.05)},
      {"name", NameGenderDataset(300, 4, 0.05)},
      {"zip", ZipCityStateDataset(300, 5, 0.05)},
      {"employee", EmployeeDataset(300, 6, 0.05)},
      {"compound", CompoundDataset(300, 7, 0.05)},
      {"web", WebAccountDataset(60, 1, 0.05)},
      {"paper_name", PaperNameTable()},
      {"paper_zip", PaperZipTable()}};
  const std::vector<std::tuple<TokenMode, size_t, size_t>> modes = {
      {TokenMode::kTokens, 0, 0},   {TokenMode::kTokens, 0, 12},
      {TokenMode::kNGrams, 2, 0},   {TokenMode::kNGrams, 3, 256},
      {TokenMode::kNGrams, 4, 256}, {TokenMode::kPrefix, 4, 0}};
  for (const auto& [label, data] : datasets) {
    const Relation& rel = data.relation;
    for (size_t col = 0; col < rel.num_columns(); ++col) {
      for (const auto& [mode, len, max_len] : modes) {
        SCOPED_TRACE(label + " column " + std::to_string(col) + " gram " +
                     std::to_string(len) + " max " + std::to_string(max_len));
        const KeyList list =
            BuildKeyList(rel.dictionary(col), mode, len, max_len);
        EXPECT_EQ(Expand(list, rel.dictionary(col)),
                  RowAtATimeOracle(rel, col, mode, len, max_len));
      }
    }
  }
}

// ---- The decision function -------------------------------------------------

/// Postings of every distinct value of column 0, in id order.
std::vector<Posting> AllValues(const Relation& rel) {
  std::vector<Posting> postings;
  for (uint32_t id = 0; id < rel.dictionary(0).num_values(); ++id) {
    postings.push_back(Posting{id, 0});
  }
  return postings;
}

TEST(DecisionTest, AcceptsCleanEntry) {
  Relation rel = TwoColumns({{"a", "M"}, {"b", "M"}, {"c", "M"}});
  DecisionOptions opts;
  opts.min_support = 2;
  opts.allowed_violation_ratio = 0.0;
  Decision d = DecideConstantEntry(AllValues(rel), PairCounts(rel, 0, 1), opts);
  EXPECT_TRUE(d.accept);
  EXPECT_EQ(d.dominant_rhs, "M");
  EXPECT_EQ(d.support, 3u);
  EXPECT_EQ(d.agreeing, 3u);
}

TEST(DecisionTest, RejectsLowSupport) {
  Relation rel = TwoColumns({{"a", "M"}});
  DecisionOptions opts;
  opts.min_support = 2;
  Decision d = DecideConstantEntry(AllValues(rel), PairCounts(rel, 0, 1), opts);
  EXPECT_FALSE(d.accept);
}

TEST(DecisionTest, ToleratesBoundedViolations) {
  std::vector<std::pair<std::string, std::string>> rows;
  for (int r = 0; r < 9; ++r) rows.emplace_back("k" + std::to_string(r), "F");
  rows.emplace_back("k9", "M");
  Relation rel = TwoColumns(rows);
  DecisionOptions opts;
  opts.allowed_violation_ratio = 0.1;
  Decision d = DecideConstantEntry(AllValues(rel), PairCounts(rel, 0, 1), opts);
  EXPECT_TRUE(d.accept);
  EXPECT_EQ(d.dominant_rhs, "F");
  EXPECT_DOUBLE_EQ(d.violation_ratio, 0.1);
}

TEST(DecisionTest, VotesCountTheRowsBehindAValue) {
  // Two postings standing for ten rows: nine F behind "a", one M behind "b".
  std::vector<std::pair<std::string, std::string>> rows(9, {"a", "F"});
  rows.emplace_back("b", "M");
  Relation rel = TwoColumns(rows);
  DecisionOptions opts;
  opts.allowed_violation_ratio = 0.1;
  Decision d = DecideConstantEntry(AllValues(rel), PairCounts(rel, 0, 1), opts);
  EXPECT_TRUE(d.accept);
  EXPECT_EQ(d.support, 10u);
  EXPECT_EQ(d.agreeing, 9u);
}

TEST(DecisionTest, RejectsExcessViolations) {
  Relation rel = TwoColumns({{"a", "F"}, {"b", "F"}, {"c", "M"}});
  DecisionOptions opts;
  opts.allowed_violation_ratio = 0.1;
  Decision d = DecideConstantEntry(AllValues(rel), PairCounts(rel, 0, 1), opts);
  EXPECT_FALSE(d.accept);
}

TEST(DecisionTest, RejectsWeakDominance) {
  // 50/50 split: dominant share 0.5 < the demanded 0.6.
  Relation rel = TwoColumns({{"a", "A"}, {"b", "A"}, {"c", "B"}, {"d", "B"}});
  DecisionOptions opts;
  opts.allowed_violation_ratio = 0.6;  // permissive violations
  opts.min_dominance = 0.6;            // but demand real dominance
  Decision d = DecideConstantEntry(AllValues(rel), PairCounts(rel, 0, 1), opts);
  EXPECT_FALSE(d.accept);
}

TEST(DecisionTest, DuplicateRowsCountOnce) {
  // The same value posting the key twice is one vote per row.
  Relation rel = TwoColumns({{"a", "M"}, {"b", "M"}});
  const std::vector<Posting> postings = {{0, 0}, {0, 2}, {1, 0}};
  DecisionOptions opts;
  opts.min_support = 2;
  Decision d = DecideConstantEntry(postings, PairCounts(rel, 0, 1), opts);
  EXPECT_TRUE(d.accept);
  EXPECT_EQ(d.support, 2u);
}

TEST(DecisionTest, DominantTieBreaksLexicographically) {
  // "B" gets the smaller RHS id; the tie still goes to the smaller string.
  Relation rel = TwoColumns({{"x", "B"}, {"y", "A"}});
  DecisionOptions opts;
  opts.allowed_violation_ratio = 0.5;
  opts.min_dominance = 0.5;
  Decision d = DecideConstantEntry(AllValues(rel), PairCounts(rel, 0, 1), opts);
  EXPECT_EQ(d.dominant_rhs, "A");
}

TEST(DecisionTest, BlankRhsDoesNotVote) {
  Relation rel = TwoColumns({{"a", "M"}, {"b", " "}, {"c", ""}, {"d", "M"}});
  DecisionOptions opts;
  opts.allowed_violation_ratio = 0.0;
  Decision d = DecideConstantEntry(AllValues(rel), PairCounts(rel, 0, 1), opts);
  EXPECT_TRUE(d.accept);
  EXPECT_EQ(d.support, 2u);
}

}  // namespace
}  // namespace anmat
