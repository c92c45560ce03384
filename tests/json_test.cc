#include "util/json.h"

#include <gtest/gtest.h>

namespace anmat {
namespace {

TEST(JsonValueTest, TypePredicates) {
  EXPECT_TRUE(JsonValue::Null().is_null());
  EXPECT_TRUE(JsonValue::Bool(true).is_bool());
  EXPECT_TRUE(JsonValue::Number(1.5).is_number());
  EXPECT_TRUE(JsonValue::String("x").is_string());
  EXPECT_TRUE(JsonValue::Array().is_array());
  EXPECT_TRUE(JsonValue::Object().is_object());
}

TEST(JsonValueTest, ObjectSetGetAndOverwrite) {
  JsonValue obj = JsonValue::Object();
  obj.Set("a", JsonValue::Int(1));
  obj.Set("b", JsonValue::String("two"));
  obj.Set("a", JsonValue::Int(3));  // overwrite
  ASSERT_NE(obj.Get("a"), nullptr);
  EXPECT_EQ(obj.Get("a")->as_int(), 3);
  EXPECT_EQ(obj.Get("b")->as_string(), "two");
  EXPECT_EQ(obj.Get("missing"), nullptr);
  EXPECT_EQ(obj.members().size(), 2u);  // overwrite does not duplicate
}

TEST(JsonValueTest, TypedGetters) {
  JsonValue obj = JsonValue::Object();
  obj.Set("s", JsonValue::String("str"));
  obj.Set("i", JsonValue::Int(42));
  obj.Set("d", JsonValue::Number(2.5));
  obj.Set("b", JsonValue::Bool(true));
  EXPECT_EQ(obj.GetString("s").value(), "str");
  EXPECT_EQ(obj.GetInt("i").value(), 42);
  EXPECT_DOUBLE_EQ(obj.GetDouble("d").value(), 2.5);
  EXPECT_TRUE(obj.GetBool("b").value());
  EXPECT_EQ(obj.GetString("i").status().code(), StatusCode::kParseError);
  EXPECT_EQ(obj.GetString("absent").status().code(), StatusCode::kNotFound);
}

TEST(JsonValueTest, IntegerReadsRejectFractionsAndOutOfRange) {
  const JsonValue doc =
      ParseJson("{\"frac\":2.7,\"huge\":1e300,\"two63\":9223372036854775807,"
                "\"min\":-9223372036854775808,\"two53\":9007199254740992,"
                "\"neg\":-3,\"whole\":4.0}")
          .value();
  for (const char* key : {"frac", "huge", "two63"}) {
    const Result<int64_t> read = doc.GetInt(key);
    ASSERT_FALSE(read.ok()) << key;
    EXPECT_EQ(read.status().code(), StatusCode::kParseError) << key;
    EXPECT_NE(read.status().message().find(key), std::string::npos) << key;
  }
  EXPECT_EQ(doc.GetInt("min").value(), INT64_MIN);
  EXPECT_EQ(doc.GetInt("two53").value(), int64_t{1} << 53);
  EXPECT_EQ(doc.GetInt("neg").value(), -3);
  EXPECT_EQ(doc.GetInt("whole").value(), 4);
  EXPECT_FALSE(JsonValue::String("1").CheckedInt("s").ok());
}

TEST(JsonDumpTest, Scalars) {
  EXPECT_EQ(JsonValue::Null().Dump(), "null");
  EXPECT_EQ(JsonValue::Bool(true).Dump(), "true");
  EXPECT_EQ(JsonValue::Bool(false).Dump(), "false");
  EXPECT_EQ(JsonValue::Int(42).Dump(), "42");
  EXPECT_EQ(JsonValue::Int(-7).Dump(), "-7");
  EXPECT_EQ(JsonValue::String("hi").Dump(), "\"hi\"");
}

TEST(JsonDumpTest, EscapesStrings) {
  EXPECT_EQ(JsonValue::String("a\"b").Dump(), "\"a\\\"b\"");
  EXPECT_EQ(JsonValue::String("a\nb").Dump(), "\"a\\nb\"");
  EXPECT_EQ(JsonValue::String("a\\b").Dump(), "\"a\\\\b\"");
}

TEST(JsonDumpTest, NestedCompact) {
  JsonValue obj = JsonValue::Object();
  JsonValue arr = JsonValue::Array();
  arr.push_back(JsonValue::Int(1));
  arr.push_back(JsonValue::Int(2));
  obj.Set("xs", std::move(arr));
  EXPECT_EQ(obj.Dump(), "{\"xs\":[1,2]}");
}

TEST(JsonDumpTest, EmptyContainers) {
  EXPECT_EQ(JsonValue::Array().Dump(), "[]");
  EXPECT_EQ(JsonValue::Object().Dump(), "{}");
}

TEST(JsonParseTest, Scalars) {
  EXPECT_TRUE(ParseJson("null").value().is_null());
  EXPECT_TRUE(ParseJson("true").value().as_bool());
  EXPECT_FALSE(ParseJson("false").value().as_bool());
  EXPECT_EQ(ParseJson("42").value().as_int(), 42);
  EXPECT_DOUBLE_EQ(ParseJson("-2.5e2").value().as_number(), -250.0);
  EXPECT_EQ(ParseJson("\"hi\"").value().as_string(), "hi");
}

TEST(JsonParseTest, WhitespaceTolerant) {
  auto r = ParseJson("  { \"a\" : [ 1 , 2 ] }  ");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value().Get("a")->size(), 2u);
}

TEST(JsonParseTest, StringEscapes) {
  EXPECT_EQ(ParseJson(R"("a\nb")").value().as_string(), "a\nb");
  EXPECT_EQ(ParseJson(R"("a\"b")").value().as_string(), "a\"b");
  EXPECT_EQ(ParseJson(R"("a\\b")").value().as_string(), "a\\b");
  EXPECT_EQ(ParseJson(R"("a\/b")").value().as_string(), "a/b");
  EXPECT_EQ(ParseJson(R"("A")").value().as_string(), "A");
  // 2-byte and 3-byte UTF-8 from \u escapes.
  EXPECT_EQ(ParseJson(R"("é")").value().as_string(), "\xc3\xa9");
  EXPECT_EQ(ParseJson(R"("€")").value().as_string(), "\xe2\x82\xac");
}

TEST(JsonParseTest, Errors) {
  EXPECT_FALSE(ParseJson("").ok());
  EXPECT_FALSE(ParseJson("{").ok());
  EXPECT_FALSE(ParseJson("[1,").ok());
  EXPECT_FALSE(ParseJson("\"unterminated").ok());
  EXPECT_FALSE(ParseJson("tru").ok());
  EXPECT_FALSE(ParseJson("1 2").ok());  // trailing garbage
  EXPECT_FALSE(ParseJson("{\"a\" 1}").ok());
  EXPECT_FALSE(ParseJson("{'a': 1}").ok());
  EXPECT_FALSE(ParseJson(R"("\u00zz")").ok());
  EXPECT_FALSE(ParseJson("[1 1]").ok());
}

TEST(JsonParseTest, DeepNestingRejected) {
  std::string deep(200, '[');
  deep += std::string(200, ']');
  EXPECT_FALSE(ParseJson(deep).ok());
}

TEST(JsonRoundTripTest, CompactAndPretty) {
  const std::string doc =
      R"({"name":"anmat","rules":[{"lhs":"zip","n":3,"ok":true},null]})";
  auto parsed = ParseJson(doc);
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed.value().Dump(), doc);
  // Pretty output re-parses to the same compact form.
  auto reparsed = ParseJson(parsed.value().DumpPretty());
  ASSERT_TRUE(reparsed.ok());
  EXPECT_EQ(reparsed.value().Dump(), doc);
}

TEST(JsonRoundTripTest, ObjectOrderPreserved) {
  auto parsed = ParseJson(R"({"z":1,"a":2,"m":3})");
  ASSERT_TRUE(parsed.ok());
  const auto& members = parsed.value().members();
  ASSERT_EQ(members.size(), 3u);
  EXPECT_EQ(members[0].first, "z");
  EXPECT_EQ(members[1].first, "a");
  EXPECT_EQ(members[2].first, "m");
}

TEST(JsonParseTest, SurrogatePairsDecodeToAstralUtf8) {
  // U+1F600 GRINNING FACE as the \uD83D\uDE00 surrogate pair -> the 4-byte
  // UTF-8 sequence F0 9F 98 80.
  EXPECT_EQ(ParseJson("\"\\uD83D\\uDE00\"").value().as_string(),
            "\xf0\x9f\x98\x80");
  // U+10348 GOTHIC LETTER HWAIR.
  EXPECT_EQ(ParseJson("\"\\uD800\\uDF48\"").value().as_string(),
            "\xf0\x90\x8d\x88");
  // Lowercase hex digits work too.
  EXPECT_EQ(ParseJson("\"\\ud83d\\ude00\"").value().as_string(),
            "\xf0\x9f\x98\x80");
  // Surrounded by ordinary characters.
  EXPECT_EQ(ParseJson("\"a\\uD83D\\uDE00b\"").value().as_string(),
            "a\xf0\x9f\x98\x80"
            "b");
}

TEST(JsonParseTest, LoneAndUnpairedSurrogatesRejected) {
  EXPECT_FALSE(ParseJson("\"\\uD83D\"").ok());         // lone high
  EXPECT_FALSE(ParseJson("\"\\uDE00\"").ok());         // lone low
  EXPECT_FALSE(ParseJson("\"\\uD83D\\u0041\"").ok());  // high + non-low
  EXPECT_FALSE(ParseJson("\"\\uD83Dx\"").ok());        // high + raw char
  EXPECT_FALSE(ParseJson("\"\\uDE00\\uD83D\"").ok());  // reversed pair
  EXPECT_FALSE(ParseJson("\"\\uD83D\\u00\"").ok());    // truncated low
}

TEST(JsonRoundTripTest, AstralStringsRoundTrip) {
  // Raw astral-plane UTF-8 dumps as-is and re-parses to the same bytes.
  JsonValue v =
      JsonValue::String("source \xf0\x9f\x98\x80 \xf0\x90\x8d\x88.csv");
  auto back = ParseJson(v.Dump());
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back->as_string(), v.as_string());
  // Escaped source: parse -> dump -> parse is stable.
  auto parsed = ParseJson("\"\\uD83D\\uDE00\"");
  ASSERT_TRUE(parsed.ok());
  auto again = ParseJson(parsed->Dump());
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(again->as_string(), parsed->as_string());
}

}  // namespace
}  // namespace anmat
