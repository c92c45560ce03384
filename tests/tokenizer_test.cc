#include "util/tokenizer.h"

#include <gtest/gtest.h>

namespace anmat {
namespace {

TEST(TokenizeTest, SimpleWords) {
  std::vector<Token> tokens = Tokenize("John Charles");
  ASSERT_EQ(tokens.size(), 2u);
  EXPECT_EQ(tokens[0].text, "John");
  EXPECT_EQ(tokens[0].position, 0u);
  EXPECT_EQ(tokens[0].offset, 0u);
  EXPECT_EQ(tokens[1].text, "Charles");
  EXPECT_EQ(tokens[1].position, 1u);
  EXPECT_EQ(tokens[1].offset, 5u);
}

TEST(TokenizeTest, KeepsPunctuationByDefault) {
  // "Holloway, Donald E." tokenizes keeping the comma and period attached.
  std::vector<Token> tokens = Tokenize("Holloway, Donald E.");
  ASSERT_EQ(tokens.size(), 3u);
  EXPECT_EQ(tokens[0].text, "Holloway,");
  EXPECT_EQ(tokens[1].text, "Donald");
  EXPECT_EQ(tokens[2].text, "E.");
}

TEST(TokenizeTest, StripPunctuationMode) {
  std::vector<Token> tokens = Tokenize("Holloway, Donald E.", false);
  ASSERT_EQ(tokens.size(), 3u);
  EXPECT_EQ(tokens[0].text, "Holloway");
  EXPECT_EQ(tokens[2].text, "E");
}

TEST(TokenizeTest, StripPunctuationDropsPureSymbols) {
  std::vector<Token> tokens = Tokenize("a - b", false);
  ASSERT_EQ(tokens.size(), 2u);
  EXPECT_EQ(tokens[0].text, "a");
  EXPECT_EQ(tokens[1].text, "b");
}

TEST(TokenizeTest, LeadingTrailingAndRepeatedWhitespace) {
  std::vector<Token> tokens = Tokenize("  a\t\tb  ");
  ASSERT_EQ(tokens.size(), 2u);
  EXPECT_EQ(tokens[0].text, "a");
  EXPECT_EQ(tokens[0].offset, 2u);
  EXPECT_EQ(tokens[1].text, "b");
  EXPECT_EQ(tokens[1].position, 1u);
}

TEST(TokenizeTest, EmptyAndWhitespaceOnly) {
  EXPECT_TRUE(Tokenize("").empty());
  EXPECT_TRUE(Tokenize("   ").empty());
}

TEST(TokenizeTest, OffsetsIndexIntoOriginal) {
  const std::string value = "Jones, Stacey R.";
  for (const Token& t : Tokenize(value)) {
    EXPECT_EQ(value.substr(t.offset, t.text.size()), t.text);
  }
}

TEST(NGramsTest, AllPositions) {
  std::vector<Token> grams = NGrams("90001", 3);
  ASSERT_EQ(grams.size(), 3u);
  EXPECT_EQ(grams[0].text, "900");
  EXPECT_EQ(grams[0].position, 0u);
  EXPECT_EQ(grams[1].text, "000");
  EXPECT_EQ(grams[1].position, 1u);
  EXPECT_EQ(grams[2].text, "001");
  EXPECT_EQ(grams[2].position, 2u);
}

TEST(NGramsTest, WholeStringGram) {
  std::vector<Token> grams = NGrams("abc", 3);
  ASSERT_EQ(grams.size(), 1u);
  EXPECT_EQ(grams[0].text, "abc");
}

TEST(NGramsTest, TooShortOrZero) {
  EXPECT_TRUE(NGrams("ab", 3).empty());
  EXPECT_TRUE(NGrams("", 1).empty());
  EXPECT_TRUE(NGrams("abc", 0).empty());
}

TEST(PrefixGramsTest, AllPrefixes) {
  std::vector<Token> grams = PrefixGrams("90001", 3);
  ASSERT_EQ(grams.size(), 3u);
  EXPECT_EQ(grams[0].text, "9");
  EXPECT_EQ(grams[1].text, "90");
  EXPECT_EQ(grams[2].text, "900");
  for (const Token& g : grams) {
    EXPECT_EQ(g.position, 0u);
    EXPECT_EQ(g.offset, 0u);
  }
}

TEST(PrefixGramsTest, CappedByLength) {
  EXPECT_EQ(PrefixGrams("ab", 5).size(), 2u);
  EXPECT_TRUE(PrefixGrams("", 5).empty());
}

TEST(IsSingleTokenTest, Basic) {
  EXPECT_TRUE(IsSingleToken("90001"));
  EXPECT_TRUE(IsSingleToken("CHEMBL25"));
  EXPECT_TRUE(IsSingleToken("  padded  "));
  EXPECT_FALSE(IsSingleToken("two words"));
  EXPECT_FALSE(IsSingleToken(""));
  EXPECT_FALSE(IsSingleToken("  "));
}

}  // namespace
}  // namespace anmat
