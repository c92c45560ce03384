#include "pattern/generalization_tree.h"

#include <gtest/gtest.h>

namespace anmat {
namespace {

TEST(ClassOfCharTest, AllFourClasses) {
  EXPECT_EQ(ClassOfChar('A'), SymbolClass::kUpper);
  EXPECT_EQ(ClassOfChar('Z'), SymbolClass::kUpper);
  EXPECT_EQ(ClassOfChar('a'), SymbolClass::kLower);
  EXPECT_EQ(ClassOfChar('z'), SymbolClass::kLower);
  EXPECT_EQ(ClassOfChar('0'), SymbolClass::kDigit);
  EXPECT_EQ(ClassOfChar('9'), SymbolClass::kDigit);
  EXPECT_EQ(ClassOfChar(' '), SymbolClass::kSymbol);
  EXPECT_EQ(ClassOfChar(','), SymbolClass::kSymbol);
  EXPECT_EQ(ClassOfChar('-'), SymbolClass::kSymbol);
}

TEST(ClassMatchesCharTest, PositiveAndNegative) {
  EXPECT_TRUE(ClassMatchesChar(SymbolClass::kUpper, 'Q'));
  EXPECT_FALSE(ClassMatchesChar(SymbolClass::kUpper, 'q'));
  EXPECT_TRUE(ClassMatchesChar(SymbolClass::kLower, 'q'));
  EXPECT_FALSE(ClassMatchesChar(SymbolClass::kLower, '7'));
  EXPECT_TRUE(ClassMatchesChar(SymbolClass::kDigit, '7'));
  EXPECT_FALSE(ClassMatchesChar(SymbolClass::kDigit, '#'));
  EXPECT_TRUE(ClassMatchesChar(SymbolClass::kSymbol, '#'));
  EXPECT_FALSE(ClassMatchesChar(SymbolClass::kSymbol, 'A'));
}

TEST(ClassMatchesCharTest, AnyMatchesEverything) {
  for (char c : {'A', 'z', '5', ' ', '#', '.'}) {
    EXPECT_TRUE(ClassMatchesChar(SymbolClass::kAny, c)) << c;
  }
}

TEST(ClassMatchesCharTest, LiteralNeverMatchesViaClass) {
  EXPECT_FALSE(ClassMatchesChar(SymbolClass::kLiteral, 'a'));
}

TEST(ClassContainsTest, TreeStructure) {
  // \A contains every class including itself.
  for (SymbolClass cls :
       {SymbolClass::kUpper, SymbolClass::kLower, SymbolClass::kDigit,
        SymbolClass::kSymbol, SymbolClass::kAny, SymbolClass::kLiteral}) {
    EXPECT_TRUE(ClassContains(SymbolClass::kAny, cls));
  }
  // Reflexivity.
  EXPECT_TRUE(ClassContains(SymbolClass::kUpper, SymbolClass::kUpper));
  // Siblings do not contain each other.
  EXPECT_FALSE(ClassContains(SymbolClass::kUpper, SymbolClass::kLower));
  EXPECT_FALSE(ClassContains(SymbolClass::kDigit, SymbolClass::kSymbol));
  // Children do not contain the root.
  EXPECT_FALSE(ClassContains(SymbolClass::kLower, SymbolClass::kAny));
}

TEST(JoinClassesTest, LcaSemantics) {
  EXPECT_EQ(JoinClasses(SymbolClass::kUpper, SymbolClass::kUpper),
            SymbolClass::kUpper);
  EXPECT_EQ(JoinClasses(SymbolClass::kUpper, SymbolClass::kLower),
            SymbolClass::kAny);
  EXPECT_EQ(JoinClasses(SymbolClass::kDigit, SymbolClass::kSymbol),
            SymbolClass::kAny);
  EXPECT_EQ(JoinClasses(SymbolClass::kAny, SymbolClass::kDigit),
            SymbolClass::kAny);
}

TEST(SymbolClassTokenTest, PaperSpellings) {
  EXPECT_STREQ(SymbolClassToken(SymbolClass::kAny), "\\A");
  EXPECT_STREQ(SymbolClassToken(SymbolClass::kUpper), "\\LU");
  EXPECT_STREQ(SymbolClassToken(SymbolClass::kLower), "\\LL");
  EXPECT_STREQ(SymbolClassToken(SymbolClass::kDigit), "\\D");
  EXPECT_STREQ(SymbolClassToken(SymbolClass::kSymbol), "\\S");
}

TEST(RenderTreeTest, MentionsAllClasses) {
  const std::string tree = RenderGeneralizationTree();
  EXPECT_NE(tree.find("\\A"), std::string::npos);
  EXPECT_NE(tree.find("\\LU"), std::string::npos);
  EXPECT_NE(tree.find("\\LL"), std::string::npos);
  EXPECT_NE(tree.find("\\D"), std::string::npos);
  EXPECT_NE(tree.find("\\S"), std::string::npos);
}

}  // namespace
}  // namespace anmat
