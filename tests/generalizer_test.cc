#include "pattern/generalizer.h"

#include <gtest/gtest.h>

#include "pattern/matcher.h"
#include "pattern/containment.h"
#include "pattern/pattern_parser.h"

namespace anmat {
namespace {

std::string Sig(const char* s,
                GeneralizationLevel level = GeneralizationLevel::kClassExact) {
  return GeneralizeString(s, level).ToString();
}

TEST(GeneralizeStringTest, LiteralLevel) {
  EXPECT_EQ(Sig("A-1", GeneralizationLevel::kLiteral), "A-1");
  EXPECT_EQ(Sig("aab", GeneralizationLevel::kLiteral), "a{2}b");
}

TEST(GeneralizeStringTest, ClassExactZip) {
  EXPECT_EQ(Sig("90001"), "\\D{5}");
  EXPECT_EQ(Sig("12"), "\\D{2}");
  EXPECT_EQ(Sig("7"), "\\D");
}

TEST(GeneralizeStringTest, ClassExactName) {
  EXPECT_EQ(Sig("John"), "\\LU\\LL{3}");
  EXPECT_EQ(Sig("John Charles"), "\\LU\\LL{3}\\ \\LU\\LL{6}");
}

TEST(GeneralizeStringTest, SymbolsStayLiteral) {
  EXPECT_EQ(Sig("F-9-107"), "\\LU-\\D-\\D{3}");
  EXPECT_EQ(Sig("Holloway, Donald E."), "\\LU\\LL{7},\\ \\LU\\LL{5}\\ \\LU.");
}

TEST(GeneralizeStringTest, ClassLoose) {
  EXPECT_EQ(Sig("90001", GeneralizationLevel::kClassLoose), "\\D+");
  EXPECT_EQ(Sig("John", GeneralizationLevel::kClassLoose), "\\LU+\\LL+");
}

TEST(GeneralizeStringTest, EmptyString) {
  EXPECT_EQ(Sig(""), "");
  EXPECT_TRUE(GeneralizeString("", GeneralizationLevel::kClassExact).empty());
}

TEST(GeneralizeStringTest, SignatureMatchesOriginal) {
  for (const char* s : {"90001", "John Charles", "F-9-107", "CHEMBL25",
                        "Holloway, Donald E.", "60603-6263"}) {
    Pattern sig = GeneralizeString(s, GeneralizationLevel::kClassExact);
    EXPECT_TRUE(PatternMatcher(sig).Matches(s)) << s << " vs " << sig.ToString();
    Pattern loose = GeneralizeString(s, GeneralizationLevel::kClassLoose);
    EXPECT_TRUE(PatternMatcher(loose).Matches(s)) << s;
  }
}

TEST(LggTest, IdenticalPatternsUnchanged) {
  Pattern a = ParsePattern("\\D{5}").value();
  EXPECT_EQ(Lgg(a, a).ToString(), "\\D{5}");
}

TEST(LggTest, CountWidening) {
  Pattern a = ParsePattern("\\D{3}").value();
  Pattern b = ParsePattern("\\D{5}").value();
  EXPECT_EQ(Lgg(a, b).ToString(), "\\D{3,5}");
}

TEST(LggTest, ClassJoin) {
  Pattern a = ParsePattern("\\LU{3}").value();
  Pattern b = ParsePattern("\\LL{3}").value();
  Pattern j = Lgg(a, b);
  ASSERT_EQ(j.elements().size(), 1u);
  EXPECT_EQ(j.elements()[0].cls, SymbolClass::kAny);
}

TEST(LggTest, SharedLiteralsKept) {
  // "John Adams" vs "John Brown" should keep "John " literal-ish... at the
  // element level: J o h n (space) then class runs. LGG of the literal
  // patterns keeps equal literals.
  Pattern a = ParsePattern("John").value();
  Pattern b = ParsePattern("John").value();
  EXPECT_EQ(Lgg(a, b).ToString(), "John");
}

TEST(LggTest, GapsBecomeOptional) {
  Pattern a = ParsePattern("ab").value();
  Pattern b = ParsePattern("b").value();
  Pattern j = Lgg(a, b);
  // "a" aligned against a gap: becomes a{0,1}; both inputs must match.
  PatternMatcher m(j);
  EXPECT_TRUE(m.Matches("ab"));
  EXPECT_TRUE(m.Matches("b"));
}

TEST(LggTest, ResultContainsBothInputs) {
  const std::vector<std::pair<const char*, const char*>> cases = {
      {"\\D{3}", "\\D{5}"},
      {"\\LU\\LL{3}", "\\LU\\LL{7}"},
      {"\\LU\\LL{3},\\ \\LU\\LL{5}", "\\LU\\LL{6},\\ \\LU\\LL{4}"},
      {"abc", "abd"},
      {"\\D{5}", "\\D{5}-\\D{4}"},
  };
  for (const auto& [x, y] : cases) {
    Pattern a = ParsePattern(x).value();
    Pattern b = ParsePattern(y).value();
    Pattern j = Lgg(a, b);
    EXPECT_TRUE(PatternContains(j, a)) << x << " ⊆ lgg(" << x << "," << y
                                       << ") = " << j.ToString();
    EXPECT_TRUE(PatternContains(j, b)) << y << " ⊆ lgg(" << x << "," << y
                                       << ") = " << j.ToString();
  }
}

TEST(GeneralizeValuesTest, ZipColumn) {
  Pattern p = GeneralizeValues({"90001", "90002", "10001", "60601"});
  EXPECT_EQ(p.ToString(), "\\D{5}");
}

TEST(GeneralizeValuesTest, MixedLengthZips) {
  Pattern p = GeneralizeValues({"90001", "60603-6263"});
  PatternMatcher m(p);
  EXPECT_TRUE(m.Matches("90001"));
  EXPECT_TRUE(m.Matches("60603-6263"));
}

TEST(GeneralizeValuesTest, NamesShareShape) {
  Pattern p = GeneralizeValues({"John Charles", "Susan Boyle", "Al Jo"});
  PatternMatcher m(p);
  EXPECT_TRUE(m.Matches("John Charles"));
  EXPECT_TRUE(m.Matches("Susan Boyle"));
  EXPECT_TRUE(m.Matches("Al Jo"));
}

TEST(GeneralizeValuesTest, EmptyInput) {
  EXPECT_TRUE(GeneralizeValues({}).empty());
}

TEST(GeneralizeValuesTest, SingleValue) {
  EXPECT_EQ(GeneralizeValues({"90001"}).ToString(), "\\D{5}");
}

TEST(GeneralizeSequenceTest, EmptySequence) {
  EXPECT_TRUE(GeneralizeSequence({"90001"}, {}).empty());
}

TEST(GeneralizeSequenceTest, FollowsTheRowFoldNotTheDistinctFold) {
  // A repeat of "Ab" after other values changes the fold: the row-order
  // sequence and its distinct values generalize differently.
  const std::vector<std::string> rows = {"Ab", "12", "a1", "Ab"};
  EXPECT_EQ(GeneralizeValues(rows).ToString(), "\\LU{0,1}\\A{1,3}");
  EXPECT_EQ(GeneralizeValues({"Ab", "12", "a1"}).ToString(), "\\A{1,3}");
  const std::vector<std::string_view> values = {"Ab", "12", "a1"};
  EXPECT_EQ(GeneralizeSequence(values, {0, 1, 2, 0}), GeneralizeValues(rows));
}

TEST(GeneralizeSequenceTest, EqualsTheExpandedFold) {
  const std::vector<std::string_view> values = {
      "90001", "AB-12", "x", "", "John Smith", "60603-6263", "a1", "Ab", "12"};
  uint32_t state = 7;
  for (int trial = 0; trial < 200; ++trial) {
    std::vector<uint32_t> sequence;
    std::vector<std::string> expanded;
    const size_t length = 1 + trial % 12;
    for (size_t i = 0; i < length; ++i) {
      state = state * 1103515245u + 12345u;
      const uint32_t v = (state >> 16) % values.size();
      sequence.push_back(v);
      expanded.emplace_back(values[v]);
    }
    EXPECT_EQ(GeneralizeSequence(values, sequence), GeneralizeValues(expanded))
        << "trial " << trial;
  }
}

TEST(FlattenToAnyRunsTest, KeepsSymbolAnchors) {
  // \LU\LL{7},\ \LU\LL{5}\ \LU. -> \A+,\ \A+\ \A+. — wait, '.' is a symbol
  // literal so it stays; spaces stay.
  Pattern sig = GeneralizeString("Holloway, Donald E.",
                                 GeneralizationLevel::kClassExact);
  Pattern flat = FlattenToAnyRuns(sig);
  EXPECT_EQ(flat.ToString(), "\\A+,\\ \\A+\\ \\A+.");
  EXPECT_TRUE(PatternMatcher(flat).Matches("Holloway, Donald E."));
  EXPECT_TRUE(PatternMatcher(flat).Matches("Jones, Stacey R."));
  EXPECT_FALSE(PatternMatcher(flat).Matches("NoComma Here"));
}

TEST(FlattenToAnyRunsTest, PureAlnumBecomesOneRun) {
  Pattern sig = GeneralizeString("CHEMBL25", GeneralizationLevel::kClassExact);
  EXPECT_EQ(FlattenToAnyRuns(sig).ToString(), "\\A+");
}

TEST(FlattenToAnyRunsTest, EmptyStaysEmpty) {
  EXPECT_TRUE(FlattenToAnyRuns(Pattern()).empty());
}

TEST(FlattenToAnyRunsTest, ContainsOriginal) {
  for (const char* s : {"F-9-107", "60603-6263", "Holloway, Donald E."}) {
    Pattern sig = GeneralizeString(s, GeneralizationLevel::kClassExact);
    Pattern flat = FlattenToAnyRuns(sig);
    EXPECT_TRUE(PatternContains(flat, sig)) << s;
  }
}

}  // namespace
}  // namespace anmat
