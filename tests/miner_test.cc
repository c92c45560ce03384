#include "discovery/constant_miner.h"
#include "discovery/variable_miner.h"

#include <gtest/gtest.h>

#include <map>
#include <unordered_map>

#include "datagen/datasets.h"
#include "pattern/generalizer.h"
#include "pattern/matcher.h"
#include "util/string_util.h"
#include "util/tokenizer.h"

namespace anmat {
namespace {

Relation NameGenderRelation() {
  RelationBuilder builder(Schema::MakeText({"name", "gender"}).value());
  const std::vector<std::pair<std::string, std::string>> rows = {
      {"John Charles", "M"}, {"John Bosco", "M"},   {"John Adams", "M"},
      {"Susan Orlean", "F"}, {"Susan Boyle", "F"},  {"Susan Kim", "F"},
      {"Mary Smith", "F"},   {"Mary Jones", "F"},
  };
  for (const auto& [n, g] : rows) {
    EXPECT_TRUE(builder.AddRow({n, g}).ok());
  }
  return builder.Build();
}

Relation ZipCityRelation() {
  RelationBuilder builder(Schema::MakeText({"zip", "city"}).value());
  // 909xx (Pasadena) makes the 2-digit prefix "90" ambiguous, so mining
  // must key on full 3-digit prefixes — the paper's λ3 shape.
  const std::vector<std::pair<std::string, std::string>> rows = {
      {"90001", "Los Angeles"}, {"90002", "Los Angeles"},
      {"90003", "Los Angeles"}, {"90901", "Pasadena"},
      {"90902", "Pasadena"},    {"60601", "Chicago"},
      {"60602", "Chicago"},     {"60603", "Chicago"},
      {"10001", "New York"},    {"10002", "New York"},
  };
  for (const auto& [z, c] : rows) {
    EXPECT_TRUE(builder.AddRow({z, c}).ok());
  }
  return builder.Build();
}

TEST(ConstantMinerTest, MinesFirstNameRules) {
  Relation rel = NameGenderRelation();
  ConstantMinerOptions opts;
  opts.decision.min_support = 2;
  opts.decision.allowed_violation_ratio = 0.0;
  std::vector<MinedRow> rows =
      MineConstantRows(rel, 0, 1, TokenMode::kTokens, opts).value();
  ASSERT_FALSE(rows.empty());

  // A rule keyed on "John" must exist and determine M.
  bool found_john = false;
  for (const MinedRow& m : rows) {
    if (m.key_text == "John") {
      found_john = true;
      EXPECT_EQ(m.key_position, 0u);
      EXPECT_EQ(m.support, 3u);
      std::string rhs;
      EXPECT_TRUE(m.row.rhs[0].IsConstant(&rhs));
      EXPECT_EQ(rhs, "M");
      // The mined LHS pattern must match the John rows and not Susan rows.
      ConstrainedMatcher cm(m.row.lhs[0].pattern());
      EXPECT_TRUE(cm.Matches("John Charles"));
      EXPECT_FALSE(cm.Matches("Susan Boyle"));
    }
  }
  EXPECT_TRUE(found_john);
}

TEST(ConstantMinerTest, MinesZipPrefixRules) {
  Relation rel = ZipCityRelation();
  ConstantMinerOptions opts;
  opts.decision.min_support = 3;
  opts.decision.allowed_violation_ratio = 0.0;
  std::vector<MinedRow> rows =
      MineConstantRows(rel, 0, 1, TokenMode::kNGrams, opts).value();
  ASSERT_FALSE(rows.empty());

  bool found_900 = false;
  for (const MinedRow& m : rows) {
    if (m.key_text == "900" && m.key_position == 0) {
      found_900 = true;
      std::string rhs;
      EXPECT_TRUE(m.row.rhs[0].IsConstant(&rhs));
      EXPECT_EQ(rhs, "Los Angeles");
      ConstrainedMatcher cm(m.row.lhs[0].pattern());
      EXPECT_TRUE(cm.Matches("90001"));
      EXPECT_TRUE(cm.Matches("90099"));  // generalizes the suffix
      EXPECT_FALSE(cm.Matches("60601"));
    }
  }
  EXPECT_TRUE(found_900);
}

TEST(ConstantMinerTest, RedundantRowsPruned) {
  Relation rel = ZipCityRelation();
  ConstantMinerOptions opts;
  opts.decision.min_support = 2;
  std::vector<MinedRow> rows =
      MineConstantRows(rel, 0, 1, TokenMode::kNGrams, opts).value();
  // No kept row's LHS may be contained in an earlier row's LHS with the
  // same RHS (e.g. "9000"@0 -> LA is implied by "900"@0 -> LA).
  for (const MinedRow& m : rows) {
    if (m.key_text == "900") {
      for (const MinedRow& other : rows) {
        EXPECT_NE(other.key_text, "9000");
      }
    }
  }
}

TEST(ConstantMinerTest, ViolationToleranceAllowsDirtyData) {
  Relation rel = NameGenderRelation();
  // Dirty the data: one John marked F.
  rel.set_cell(2, 1, "F");
  ConstantMinerOptions strict;
  strict.decision.allowed_violation_ratio = 0.0;
  std::vector<MinedRow> none =
      MineConstantRows(rel, 0, 1, TokenMode::kTokens, strict).value();
  for (const MinedRow& m : none) EXPECT_NE(m.key_text, "John");

  ConstantMinerOptions tolerant;
  tolerant.decision.allowed_violation_ratio = 0.4;
  std::vector<MinedRow> some =
      MineConstantRows(rel, 0, 1, TokenMode::kTokens, tolerant).value();
  bool found_john = false;
  for (const MinedRow& m : some) {
    if (m.key_text == "John") {
      found_john = true;
      EXPECT_NEAR(m.violation_ratio, 1.0 / 3.0, 1e-9);
    }
  }
  EXPECT_TRUE(found_john);
}

TEST(ConstantMinerTest, SignatureRulesCaptureShapeDependencies) {
  // The class label depends on the *shape* (digit count) of the id, not on
  // any literal n-gram — only signature rules can express this.
  RelationBuilder builder(Schema::MakeText({"id", "era"}).value());
  const std::vector<std::pair<std::string, std::string>> rows = {
      {"CHEMBL12", "legacy"},  {"CHEMBL34", "legacy"},
      {"CHEMBL56", "legacy"},  {"CHEMBL1234", "modern"},
      {"CHEMBL5678", "modern"}, {"CHEMBL9012", "modern"},
  };
  for (const auto& [i, e] : rows) ASSERT_TRUE(builder.AddRow({i, e}).ok());
  Relation rel = builder.Build();

  ConstantMinerOptions opts;
  opts.decision.min_support = 2;
  opts.decision.allowed_violation_ratio = 0.0;
  std::vector<MinedRow> mined =
      MineConstantRows(rel, 0, 1, TokenMode::kNGrams, opts).value();
  bool short_sig = false;
  bool long_sig = false;
  for (const MinedRow& m : mined) {
    std::string rhs;
    m.row.rhs[0].IsConstant(&rhs);
    if (m.key_text == "\\LU{6}\\D{2}" && rhs == "legacy") short_sig = true;
    if (m.key_text == "\\LU{6}\\D{4}" && rhs == "modern") long_sig = true;
  }
  EXPECT_TRUE(short_sig);
  EXPECT_TRUE(long_sig);

  // With signatures disabled, no rule can separate the eras.
  opts.mine_signatures = false;
  std::vector<MinedRow> without =
      MineConstantRows(rel, 0, 1, TokenMode::kNGrams, opts).value();
  for (const MinedRow& m : without) {
    std::string rhs;
    m.row.rhs[0].IsConstant(&rhs);
    EXPECT_NE(m.key_text, "\\LU{6}\\D{2}");
  }
}

TEST(ConstantMinerTest, SignatureRuleMatchesOnlyItsShape) {
  // Mixed eras make every shared literal n-gram ("CH"@0, "EMBL"@2, ...)
  // ambiguous, so the signature rules survive pruning.
  RelationBuilder builder(Schema::MakeText({"id", "era"}).value());
  ASSERT_TRUE(builder.AddRow({"CHEMBL12", "legacy"}).ok());
  ASSERT_TRUE(builder.AddRow({"CHEMBL98", "legacy"}).ok());
  ASSERT_TRUE(builder.AddRow({"CHEMBL1234", "modern"}).ok());
  ASSERT_TRUE(builder.AddRow({"CHEMBL5678", "modern"}).ok());
  Relation rel = builder.Build();
  ConstantMinerOptions opts;
  opts.decision.min_support = 2;
  std::vector<MinedRow> mined =
      MineConstantRows(rel, 0, 1, TokenMode::kNGrams, opts).value();
  const MinedRow* sig_rule = nullptr;
  for (const MinedRow& m : mined) {
    if (m.key_text == "\\LU{6}\\D{2}") sig_rule = &m;
  }
  ASSERT_NE(sig_rule, nullptr);
  ConstrainedMatcher cm(sig_rule->row.lhs[0].pattern());
  EXPECT_TRUE(cm.Matches("CHEMBL77"));     // same shape, unseen content
  EXPECT_FALSE(cm.Matches("CHEMBL777"));   // different digit count
  EXPECT_FALSE(cm.Matches("chembl77"));    // different letter case
}

TEST(ConstantMinerTest, InvalidColumnsRejected) {
  Relation rel = ZipCityRelation();
  EXPECT_FALSE(MineConstantRows(rel, 0, 0, TokenMode::kTokens, {}).ok());
  EXPECT_FALSE(MineConstantRows(rel, 0, 9, TokenMode::kTokens, {}).ok());
}

TEST(ConstantMinerTest, MaxRowsCap) {
  Relation rel = ZipCityRelation();
  ConstantMinerOptions opts;
  opts.decision.min_support = 2;
  opts.max_rows = 2;
  std::vector<MinedRow> rows =
      MineConstantRows(rel, 0, 1, TokenMode::kNGrams, opts).value();
  EXPECT_LE(rows.size(), 2u);
}

TEST(ConstantMinerTest, MaxCandidatesBoundsPruningWork) {
  Relation rel = ZipCityRelation();
  ConstantMinerOptions opts;
  opts.decision.min_support = 2;
  opts.max_candidates = 1;
  std::vector<MinedRow> rows =
      MineConstantRows(rel, 0, 1, TokenMode::kNGrams, opts).value();
  EXPECT_LE(rows.size(), 1u);  // only the top-ranked candidate survives
}

TEST(ConstantMinerTest, MonsterPatternsSkipContainmentButDedupe) {
  // Two identical monster cells produce identical signature rules; the
  // equality fallback must still deduplicate them without running full
  // containment.
  RelationBuilder builder(Schema::MakeText({"blob", "tag"}).value());
  const std::string big(2000, 'x');
  ASSERT_TRUE(builder.AddRow({big, "t"}).ok());
  ASSERT_TRUE(builder.AddRow({big, "t"}).ok());
  Relation rel = builder.Build();
  ConstantMinerOptions opts;
  opts.decision.min_support = 2;
  auto rows = MineConstantRows(rel, 0, 1, TokenMode::kNGrams, opts);
  ASSERT_TRUE(rows.ok());
  // Whatever survives, no two kept rows may be exactly equal.
  for (size_t i = 0; i < rows.value().size(); ++i) {
    for (size_t j = i + 1; j < rows.value().size(); ++j) {
      EXPECT_FALSE(rows.value()[i].row == rows.value()[j].row);
    }
  }
}

TEST(ConstantMinerTest, PrefixModeRejected) {
  Relation rel = ZipCityRelation();
  EXPECT_FALSE(MineConstantRows(rel, 0, 1, TokenMode::kPrefix, {}).ok());
}

TEST(ConstantMinerTest, SharedKeyListsServeEveryRhsColumn) {
  // One column's key lists, built once, mine the same rows for each RHS as
  // a run that builds its own.
  const Dataset data = ZipCityStateDataset(600, 11, 0.02);
  const Relation& rel = data.relation;
  const ConstantMinerOptions opts;
  ColumnKeyLists lists(TokenMode::kNGrams, opts);
  for (size_t slot = 0; slot < lists.num_slots(); ++slot) {
    lists.BuildSlot(rel.dictionary(0), slot, opts);
  }
  for (size_t rhs = 1; rhs < rel.num_columns(); ++rhs) {
    const std::vector<MinedRow> own =
        MineConstantRows(rel, 0, rhs, TokenMode::kNGrams, opts).value();
    const std::vector<MinedRow> shared =
        MineConstantRows(lists, PairCounts(rel, 0, rhs), opts).value();
    ASSERT_EQ(own.size(), shared.size());
    for (size_t i = 0; i < own.size(); ++i) {
      EXPECT_TRUE(own[i].row == shared[i].row);
      EXPECT_EQ(own[i].support, shared[i].support);
    }
  }
}

// ---- Context generalization: row order vs distinct values -------------------
//
// The miners generalize contexts and variable keys by folding `Lgg` over
// the values of the rows an entry covers, in row order. They now visit each
// distinct value once and pass the row-order sequence of value ids to
// `GeneralizeSequence`. Folding the distinct values alone, in first-
// occurrence order, would be cheaper still, but it is not the same fold:
// `Lgg` does not ignore a repeat once other values were folded in between.
// This test pins both facts on every datagen generator.

struct FoldCheck {
  size_t checks = 0;
  size_t sequence_mismatches = 0;
  size_t distinct_mismatches = 0;
};

/// Folds `pieces` (one per row, row order) three ways and compares them.
void CheckFolds(const std::vector<std::string>& pieces, FoldCheck* out) {
  ++out->checks;
  const Pattern by_rows = GeneralizeValues(pieces);
  std::vector<std::string_view> distinct;
  std::vector<uint32_t> sequence;
  std::unordered_map<std::string_view, uint32_t> id_of;
  for (const std::string& p : pieces) {
    auto [it, inserted] =
        id_of.try_emplace(p, static_cast<uint32_t>(distinct.size()));
    if (inserted) distinct.push_back(p);
    sequence.push_back(it->second);
  }
  if (!(GeneralizeSequence(distinct, sequence) == by_rows)) {
    ++out->sequence_mismatches;
  }
  std::vector<std::string> firsts(distinct.begin(), distinct.end());
  if (!(GeneralizeValues(firsts) == by_rows)) ++out->distinct_mismatches;
}

void CheckColumnFolds(const Relation& rel, size_t col, FoldCheck* out) {
  const auto& cells = rel.column(col);
  auto usable = [](std::string_view v) {
    return !TrimView(v).empty() && v.size() <= 256;
  };
  // Constant-miner contexts: the prefix and suffix of every key.
  for (const size_t gram : {0, 2, 3, 4}) {
    std::map<std::pair<std::string, uint32_t>,
             std::pair<std::vector<std::string>, std::vector<std::string>>>
        contexts;
    for (RowId r = 0; r < cells.size(); ++r) {
      const std::string_view v = cells[r];
      if (!usable(v)) continue;
      for (const Token& t : gram == 0 ? Tokenize(v) : NGrams(v, gram)) {
        auto& [prefixes, suffixes] = contexts[{t.text, t.position}];
        prefixes.emplace_back(v.substr(0, t.offset));
        suffixes.emplace_back(v.substr(t.offset + t.text.size()));
      }
    }
    for (const auto& [key, pieces] : contexts) {
      if (pieces.first.size() < 2) continue;
      CheckFolds(pieces.first, out);
      CheckFolds(pieces.second, out);
    }
  }
  // Variable-miner keys and contexts: token 0/1/last, prefix/suffix 1..5.
  for (const int index : {0, 1, -1}) {
    std::vector<std::string> keys, prefixes, suffixes;
    for (RowId r = 0; r < cells.size(); ++r) {
      const std::string_view v = cells[r];
      if (!usable(v)) continue;
      const std::vector<Token> tokens = Tokenize(v);
      if (tokens.size() < 2) continue;
      const size_t i = index < 0 ? tokens.size() - 1 : index;
      if (i >= tokens.size()) continue;
      keys.push_back(tokens[i].text);
      prefixes.emplace_back(v.substr(0, tokens[i].offset));
      suffixes.emplace_back(v.substr(tokens[i].offset + tokens[i].text.size()));
    }
    if (keys.empty()) continue;
    CheckFolds(keys, out);
    CheckFolds(prefixes, out);
    CheckFolds(suffixes, out);
  }
  for (size_t k = 1; k <= 5; ++k) {
    std::vector<std::string> heads, tails;
    for (RowId r = 0; r < cells.size(); ++r) {
      const std::string_view v = cells[r];
      if (!usable(v) || v.size() <= k) continue;
      heads.emplace_back(v.substr(0, k));
      tails.emplace_back(v.substr(k));
    }
    if (heads.empty()) continue;
    CheckFolds(heads, out);
    CheckFolds(tails, out);
  }
}

TEST(ContextFoldTest, SequenceFoldEqualsRowFoldOnEveryGenerator) {
  const std::vector<Dataset> datasets = {
      PhoneStateDataset(2000, 1, 0.02),  NameGenderDataset(2000, 1, 0.02),
      ZipCityStateDataset(2000, 1, 0.02), EmployeeDataset(2000, 1, 0.02),
      CompoundDataset(2000, 1, 0.02),    WebAccountDataset(200, 1, 0.02),
      PaperNameTable(),                  PaperZipTable()};
  FoldCheck check;
  for (const Dataset& data : datasets) {
    for (size_t col = 0; col < data.relation.num_columns(); ++col) {
      CheckColumnFolds(data.relation, col, &check);
    }
  }
  EXPECT_GT(check.checks, 10000u);
  EXPECT_EQ(check.sequence_mismatches, 0u);
  // If this ever reads 0, `Lgg` ignores repeats on this data and the miners
  // could fold the distinct values alone.
  EXPECT_GT(check.distinct_mismatches, 0u);
}

TEST(VariableMinerTest, MinesZipPrefixDependency) {
  Relation rel = ZipCityRelation();
  VariableMinerOptions opts;
  opts.allowed_violation_ratio = 0.0;
  std::vector<MinedVariableRow> rows =
      MineVariableRows(rel, 0, 1, TokenMode::kNGrams, opts).value();
  ASSERT_FALSE(rows.empty());
  // Prefixes 1 and 2 are non-functional ("90001" vs "90901"), so the most
  // general passing candidate is the 3-digit prefix — the paper's λ5.
  EXPECT_EQ(rows[0].description, "prefix 3");
  EXPECT_TRUE(rows[0].row.rhs[0].is_wildcard());
}

TEST(VariableMinerTest, PrefixLengthSelectsFunctionalKey) {
  // Force a conflict at prefix 1 and 2: two regions share "90" but differ
  // at position 3.
  RelationBuilder builder(Schema::MakeText({"zip", "city"}).value());
  const std::vector<std::pair<std::string, std::string>> rows = {
      {"90001", "Los Angeles"}, {"90002", "Los Angeles"},
      {"90901", "Pasadena"},    {"90902", "Pasadena"},
  };
  for (const auto& [z, c] : rows) ASSERT_TRUE(builder.AddRow({z, c}).ok());
  Relation rel = builder.Build();

  VariableMinerOptions opts;
  opts.allowed_violation_ratio = 0.0;
  opts.min_multi_groups = 2;
  std::vector<MinedVariableRow> mined =
      MineVariableRows(rel, 0, 1, TokenMode::kNGrams, opts).value();
  ASSERT_FALSE(mined.empty());
  EXPECT_EQ(mined[0].description, "prefix 3");
}

TEST(VariableMinerTest, MinesFirstTokenDependency) {
  Relation rel = NameGenderRelation();
  VariableMinerOptions opts;
  opts.allowed_violation_ratio = 0.0;
  std::vector<MinedVariableRow> rows =
      MineVariableRows(rel, 0, 1, TokenMode::kTokens, opts).value();
  ASSERT_FALSE(rows.empty());
  EXPECT_EQ(rows[0].description, "token 0");
  // Its LHS pattern should extract the first name.
  ConstrainedMatcher cm(rows[0].row.lhs[0].pattern());
  EXPECT_TRUE(cm.Equivalent("John Charles", "John Bosco"));
  EXPECT_FALSE(cm.Equivalent("John Charles", "Susan Kim"));
}

TEST(VariableMinerTest, RejectsNonFunctionalDependency) {
  // Last names do not determine gender; token-1 candidate must fail.
  RelationBuilder builder(Schema::MakeText({"name", "gender"}).value());
  const std::vector<std::pair<std::string, std::string>> rows = {
      {"John Smith", "M"}, {"Susan Smith", "F"},
      {"Mary Jones", "F"}, {"David Jones", "M"},
  };
  for (const auto& [n, g] : rows) ASSERT_TRUE(builder.AddRow({n, g}).ok());
  Relation rel = builder.Build();

  VariableMinerOptions opts;
  opts.allowed_violation_ratio = 0.0;
  std::vector<MinedVariableRow> mined =
      MineVariableRows(rel, 0, 1, TokenMode::kTokens, opts).value();
  for (const MinedVariableRow& m : mined) {
    EXPECT_NE(m.description, "token 1");
    EXPECT_NE(m.description, "last token");
  }
}

TEST(VariableMinerTest, VacuousDependenciesRejected) {
  // All keys unique: no groups of size >= 2 -> nothing tested -> reject.
  RelationBuilder builder(Schema::MakeText({"zip", "city"}).value());
  ASSERT_TRUE(builder.AddRow({"10000", "A"}).ok());
  ASSERT_TRUE(builder.AddRow({"23456", "B"}).ok());
  ASSERT_TRUE(builder.AddRow({"98765", "C"}).ok());
  Relation rel = builder.Build();
  VariableMinerOptions opts;
  std::vector<MinedVariableRow> mined =
      MineVariableRows(rel, 0, 1, TokenMode::kNGrams, opts).value();
  EXPECT_TRUE(mined.empty());
}

TEST(VariableMinerTest, CoverageThresholdFilters) {
  Relation rel = ZipCityRelation();
  VariableMinerOptions opts;
  opts.min_key_coverage = 1.01;  // impossible
  std::vector<MinedVariableRow> mined =
      MineVariableRows(rel, 0, 1, TokenMode::kNGrams, opts).value();
  EXPECT_TRUE(mined.empty());
}

TEST(VariableMinerTest, InvalidColumnsRejected) {
  Relation rel = ZipCityRelation();
  EXPECT_FALSE(MineVariableRows(rel, 1, 1, TokenMode::kTokens, {}).ok());
  EXPECT_FALSE(MineVariableRows(rel, 5, 1, TokenMode::kTokens, {}).ok());
}

}  // namespace
}  // namespace anmat
