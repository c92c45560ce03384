#include "relation/relation.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <set>
#include <thread>
#include <utility>
#include <vector>

#include "relation/value.h"

namespace anmat {
namespace {

TEST(ValueTypeTest, InferScalars) {
  EXPECT_EQ(InferValueType(""), ValueType::kNull);
  EXPECT_EQ(InferValueType("   "), ValueType::kNull);
  EXPECT_EQ(InferValueType("42"), ValueType::kInteger);
  EXPECT_EQ(InferValueType("-7"), ValueType::kInteger);
  EXPECT_EQ(InferValueType("3.14"), ValueType::kFloat);
  EXPECT_EQ(InferValueType("1e5"), ValueType::kFloat);
  EXPECT_EQ(InferValueType("hello"), ValueType::kText);
  EXPECT_EQ(InferValueType("12ab"), ValueType::kText);
}

TEST(ValueTypeTest, Unify) {
  EXPECT_EQ(UnifyValueTypes(ValueType::kNull, ValueType::kInteger),
            ValueType::kInteger);
  EXPECT_EQ(UnifyValueTypes(ValueType::kInteger, ValueType::kNull),
            ValueType::kInteger);
  EXPECT_EQ(UnifyValueTypes(ValueType::kInteger, ValueType::kFloat),
            ValueType::kFloat);
  EXPECT_EQ(UnifyValueTypes(ValueType::kFloat, ValueType::kInteger),
            ValueType::kFloat);
  EXPECT_EQ(UnifyValueTypes(ValueType::kInteger, ValueType::kText),
            ValueType::kText);
  EXPECT_EQ(UnifyValueTypes(ValueType::kText, ValueType::kText),
            ValueType::kText);
}

TEST(ValueTypeTest, Names) {
  EXPECT_STREQ(ValueTypeToString(ValueType::kNull), "null");
  EXPECT_STREQ(ValueTypeToString(ValueType::kInteger), "integer");
  EXPECT_STREQ(ValueTypeToString(ValueType::kFloat), "float");
  EXPECT_STREQ(ValueTypeToString(ValueType::kText), "text");
}

TEST(SchemaTest, MakeRejectsDuplicates) {
  auto r = Schema::MakeText({"a", "b", "a"});
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kAlreadyExists);
}

TEST(SchemaTest, MakeRejectsEmptyNames) {
  auto r = Schema::MakeText({"a", ""});
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
}

TEST(SchemaTest, IndexOfAndContains) {
  Schema s = Schema::MakeText({"zip", "city"}).value();
  EXPECT_EQ(s.num_columns(), 2u);
  EXPECT_EQ(s.IndexOf("zip").value(), 0u);
  EXPECT_EQ(s.IndexOf("city").value(), 1u);
  EXPECT_FALSE(s.IndexOf("state").ok());
  EXPECT_TRUE(s.Contains("zip"));
  EXPECT_FALSE(s.Contains("state"));
}

TEST(SchemaTest, ToStringAndEquality) {
  Schema a = Schema::MakeText({"x", "y"}).value();
  Schema b = Schema::MakeText({"x", "y"}).value();
  Schema c = Schema::MakeText({"x", "z"}).value();
  EXPECT_EQ(a.ToString(), "x:text, y:text");
  EXPECT_TRUE(a == b);
  EXPECT_FALSE(a == c);
  b.SetColumnType(0, ValueType::kInteger);
  EXPECT_FALSE(a == b);
}

Relation MakeZipRelation() {
  RelationBuilder builder(Schema::MakeText({"zip", "city"}).value());
  EXPECT_TRUE(builder.AddRow({"90001", "Los Angeles"}).ok());
  EXPECT_TRUE(builder.AddRow({"90002", "Los Angeles"}).ok());
  EXPECT_TRUE(builder.AddRow({"10001", "New York"}).ok());
  return builder.Build();
}

TEST(RelationTest, AppendAndAccess) {
  Relation rel = MakeZipRelation();
  EXPECT_EQ(rel.num_rows(), 3u);
  EXPECT_EQ(rel.num_columns(), 2u);
  EXPECT_EQ(rel.cell(0, 0), "90001");
  EXPECT_EQ(rel.cell(2, 1), "New York");
  EXPECT_EQ(rel.Row(1), (std::vector<std::string>{"90002", "Los Angeles"}));
}

TEST(RelationTest, AppendRowWrongWidthFails) {
  Relation rel(Schema::MakeText({"a", "b"}).value());
  EXPECT_FALSE(rel.AppendRow({"only-one"}).ok());
  EXPECT_FALSE(rel.AppendRow({"1", "2", "3"}).ok());
  EXPECT_EQ(rel.num_rows(), 0u);
}

TEST(RelationTest, SetCell) {
  Relation rel = MakeZipRelation();
  rel.set_cell(0, 1, "LA");
  EXPECT_EQ(rel.cell(0, 1), "LA");
}

TEST(RelationTest, DetachedCopyInternsIntoItsOwnArena) {
  const Relation source = MakeZipRelation();
  const size_t shared_bytes = source.arena().bytes_used();
  Relation copy = source;
  copy.DetachArena();
  copy.set_cell(0, 1, "Los Angeles, CA");
  EXPECT_EQ(copy.cell(0, 1), "Los Angeles, CA");
  // Cells the copy still shares stay readable through the kept arena.
  EXPECT_EQ(copy.cell(2, 1), "New York");
  EXPECT_EQ(source.cell(0, 1), "Los Angeles");
  EXPECT_EQ(source.arena().bytes_used(), shared_bytes);
}

TEST(RelationTest, VersionIsFreshAfterEveryMutationCopyMoveAndAssignment) {
  std::set<uint64_t> seen;
  const auto unseen = [&](const Relation& r) {
    return seen.insert(r.version()).second;
  };
  Relation rel(Schema::MakeText({"zip", "city"}).value());
  EXPECT_TRUE(unseen(rel));
  ASSERT_TRUE(rel.AppendRow({"90001", "Los Angeles"}).ok());
  EXPECT_TRUE(unseen(rel));
  ASSERT_TRUE(rel.AppendRowViews({"10001", "New York"}).ok());
  EXPECT_TRUE(unseen(rel));
  rel.set_cell(0, 1, "LA");
  EXPECT_TRUE(unseen(rel));
  rel.InferColumnTypes();
  EXPECT_TRUE(unseen(rel));

  // Reading, and copying from it, leave the source's stamp as it was.
  const uint64_t stamp = rel.version();
  EXPECT_EQ(rel.cell(1, 0), "10001");
  EXPECT_EQ(rel.dictionary(1).num_values(), 2u);
  Relation slice = rel.Slice(0, 1).value();
  Relation copy = rel;
  Relation assigned;
  EXPECT_TRUE(unseen(assigned));
  assigned = rel;
  EXPECT_EQ(rel.version(), stamp);
  EXPECT_TRUE(unseen(slice));
  EXPECT_TRUE(unseen(copy));
  EXPECT_TRUE(unseen(assigned));

  // A move restamps both sides.
  Relation moved(std::move(copy));
  EXPECT_TRUE(unseen(moved));
  EXPECT_TRUE(unseen(copy));
  Relation move_assigned;
  EXPECT_TRUE(unseen(move_assigned));
  move_assigned = std::move(moved);
  EXPECT_TRUE(unseen(move_assigned));
  EXPECT_TRUE(unseen(moved));
  EXPECT_EQ(rel.version(), stamp);
}

TEST(RelationTest, VersionsAreUniqueAcrossThreads) {
  constexpr size_t kThreads = 4;
  constexpr size_t kRelations = 500;
  std::vector<std::vector<uint64_t>> stamps(kThreads);
  std::vector<std::thread> threads;
  for (size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&stamps, t] {
      for (size_t i = 0; i < kRelations; ++i) {
        stamps[t].push_back(Relation().version());
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  std::set<uint64_t> all;
  for (const std::vector<uint64_t>& s : stamps) all.insert(s.begin(), s.end());
  EXPECT_EQ(all.size(), kThreads * kRelations);
}

TEST(RelationTest, ColumnByName) {
  Relation rel = MakeZipRelation();
  auto col = rel.ColumnByName("city");
  ASSERT_TRUE(col.ok());
  EXPECT_EQ(col.value()->size(), 3u);
  EXPECT_EQ((*col.value())[2], "New York");
  EXPECT_FALSE(rel.ColumnByName("nope").ok());
}

TEST(RelationTest, InferColumnTypes) {
  RelationBuilder builder(Schema::MakeText({"n", "t"}).value());
  ASSERT_TRUE(builder.AddRow({"1", "x"}).ok());
  ASSERT_TRUE(builder.AddRow({"2.5", "y"}).ok());
  Relation rel = builder.Build();  // Build() infers types
  EXPECT_EQ(rel.schema().column(0).type, ValueType::kFloat);
  EXPECT_EQ(rel.schema().column(1).type, ValueType::kText);
}

TEST(RelationTest, InferColumnTypesAllNull) {
  RelationBuilder builder(Schema::MakeText({"e"}).value());
  ASSERT_TRUE(builder.AddRow({""}).ok());
  Relation rel = builder.Build();
  EXPECT_EQ(rel.schema().column(0).type, ValueType::kNull);
}

TEST(RelationTest, Slice) {
  Relation rel = MakeZipRelation();
  auto slice = rel.Slice(1, 3);
  ASSERT_TRUE(slice.ok());
  EXPECT_EQ(slice.value().num_rows(), 2u);
  EXPECT_EQ(slice.value().cell(0, 0), "90002");
  EXPECT_EQ(slice.value().cell(1, 1), "New York");
}

TEST(RelationTest, SliceEmptyAndInvalid) {
  Relation rel = MakeZipRelation();
  EXPECT_EQ(rel.Slice(1, 1).value().num_rows(), 0u);
  EXPECT_FALSE(rel.Slice(2, 1).ok());
  EXPECT_FALSE(rel.Slice(0, 4).ok());
}

TEST(RelationTest, ToStringTruncates) {
  Relation rel = MakeZipRelation();
  std::string out = rel.ToString(2);
  EXPECT_NE(out.find("90001"), std::string::npos);
  EXPECT_EQ(out.find("10001"), std::string::npos);
  EXPECT_NE(out.find("1 more rows"), std::string::npos);
}

TEST(RelationTest, EmptyRelationHasNoColumnsOrRows) {
  Relation rel;
  EXPECT_EQ(rel.num_rows(), 0u);
  EXPECT_EQ(rel.num_columns(), 0u);
}

// -- Incremental dictionaries (the streaming path) -------------------------

void ExpectDictionariesEqual(const ColumnDictionary& a,
                             const ColumnDictionary& b) {
  ASSERT_EQ(a.num_values(), b.num_values());
  ASSERT_EQ(a.num_rows(), b.num_rows());
  for (uint32_t id = 0; id < a.num_values(); ++id) {
    EXPECT_EQ(a.value(id), b.value(id)) << "id " << id;
    EXPECT_EQ(a.rows(id), b.rows(id)) << "id " << id;
  }
  for (RowId r = 0; r < a.num_rows(); ++r) {
    EXPECT_EQ(a.value_id(r), b.value_id(r)) << "row " << r;
  }
}

TEST(ColumnDictionaryTest, AppendMatchesBulkBuild) {
  const std::vector<std::string_view> cells = {"LA", "NY", "LA", "SF", "NY",
                                               "LA", "",   "SF", "LA", "NY"};
  const ColumnDictionary bulk(cells);

  // Append in three uneven chunks.
  ColumnDictionary incremental;
  incremental.Append({cells.begin(), cells.begin() + 3}, 0);
  incremental.Append({cells.begin() + 3, cells.begin() + 4}, 3);
  incremental.Append({cells.begin() + 4, cells.end()}, 4);
  ExpectDictionariesEqual(incremental, bulk);
}

TEST(ColumnDictionaryTest, AppendAfterBulkBuildMatchesConcatenated) {
  const std::vector<std::string_view> first = {"a", "b", "a", "c"};
  const std::vector<std::string_view> second = {"c", "d", "a", "d"};
  std::vector<std::string_view> all = first;
  all.insert(all.end(), second.begin(), second.end());

  ColumnDictionary grown(first);
  grown.Append(second, static_cast<RowId>(first.size()));
  ExpectDictionariesEqual(grown, ColumnDictionary(all));
}

TEST(ColumnDictionaryTest, AppendEmptyBatchIsANoOp) {
  ColumnDictionary dict(std::vector<std::string_view>{"x", "y"});
  dict.Append({}, 2);
  EXPECT_EQ(dict.num_values(), 2u);
  EXPECT_EQ(dict.num_rows(), 2u);
}

}  // namespace
}  // namespace anmat
