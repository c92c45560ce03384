#include "pattern/containment.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "pattern/nfa.h"
#include "pattern/pattern_parser.h"
#include "util/random.h"

namespace anmat {
namespace {

bool Contains(const char* general, const char* specific) {
  return PatternContains(ParsePattern(general).value(),
                         ParsePattern(specific).value());
}

TEST(ContainmentTest, PaperExample1) {
  // P1 = \D{5} ⊆ P2 = \D*.
  EXPECT_TRUE(Contains("\\D*", "\\D{5}"));
  EXPECT_FALSE(Contains("\\D{5}", "\\D*"));
}

TEST(ContainmentTest, Reflexive) {
  for (const char* p : {"\\D{5}", "abc", "\\LU\\LL*", "\\A*"}) {
    EXPECT_TRUE(Contains(p, p)) << p;
  }
}

TEST(ContainmentTest, AnyStarIsTop) {
  for (const char* p :
       {"\\D{5}", "abc", "\\LU\\LL*\\ \\A*", "900\\D{2}", "\\S+"}) {
    EXPECT_TRUE(Contains("\\A*", p)) << p;
    EXPECT_FALSE(Contains(p, "\\A*")) << p;
  }
}

TEST(ContainmentTest, ClassHierarchy) {
  EXPECT_TRUE(Contains("\\A", "\\D"));
  EXPECT_TRUE(Contains("\\A", "\\LU"));
  EXPECT_TRUE(Contains("\\A", "x"));
  EXPECT_FALSE(Contains("\\D", "\\A"));
  EXPECT_FALSE(Contains("\\D", "\\LL"));
  EXPECT_TRUE(Contains("\\D", "7"));
  EXPECT_FALSE(Contains("\\D", "a"));
  EXPECT_TRUE(Contains("\\LL", "a"));
  EXPECT_FALSE(Contains("\\LL", "A"));
}

TEST(ContainmentTest, CountRanges) {
  EXPECT_TRUE(Contains("\\D{2,5}", "\\D{3}"));
  EXPECT_TRUE(Contains("\\D{2,5}", "\\D{3,4}"));
  EXPECT_FALSE(Contains("\\D{2,5}", "\\D{1,3}"));
  EXPECT_FALSE(Contains("\\D{2,5}", "\\D{6}"));
  EXPECT_TRUE(Contains("\\D+", "\\D{17}"));
  EXPECT_TRUE(Contains("\\D*", "\\D+"));
  EXPECT_FALSE(Contains("\\D+", "\\D*"));  // ε distinguishes them
}

TEST(ContainmentTest, LiteralVsClass) {
  EXPECT_TRUE(Contains("\\D{3}", "900"));
  EXPECT_FALSE(Contains("900", "\\D{3}"));
  EXPECT_TRUE(Contains("\\LU\\LL{3}", "John"));
  EXPECT_FALSE(Contains("\\LU\\LL{3}", "JOHN"));
}

TEST(ContainmentTest, PaperZipPatterns) {
  // 900\D{2} ⊆ \D{5} ⊆ \D* ⊆ \A*.
  EXPECT_TRUE(Contains("\\D{5}", "900\\D{2}"));
  EXPECT_TRUE(Contains("\\D*", "900\\D{2}"));
  EXPECT_FALSE(Contains("900\\D{2}", "\\D{5}"));
  // Different prefixes are incomparable.
  EXPECT_FALSE(Contains("900\\D{2}", "606\\D{2}"));
  EXPECT_FALSE(Contains("606\\D{2}", "900\\D{2}"));
}

TEST(ContainmentTest, StructurallyDifferentButEquivalent) {
  // \D\D{2} and \D{3} denote the same language.
  EXPECT_TRUE(Contains("\\D\\D{2}", "\\D{3}"));
  EXPECT_TRUE(Contains("\\D{3}", "\\D\\D{2}"));
  EXPECT_TRUE(PatternEquivalent(ParsePattern("\\D\\D{2}").value(),
                                ParsePattern("\\D{3}").value()));
}

TEST(ContainmentTest, SplitStarEquivalence) {
  // \A*\A* ≡ \A*.
  EXPECT_TRUE(PatternEquivalent(ParsePattern("\\A*\\A*").value(),
                                ParsePattern("\\A*").value()));
  // \D*\LL* is NOT equivalent to \A*: "a1" matches neither... check one way.
  EXPECT_TRUE(Contains("\\A*", "\\D*\\LL*"));
  EXPECT_FALSE(Contains("\\D*\\LL*", "\\A*"));
}

TEST(ContainmentTest, SymbolClassExcludesAlnum) {
  EXPECT_TRUE(Contains("\\S", "-"));
  EXPECT_TRUE(Contains("\\S", "\\ "));  // escaped space literal
  EXPECT_FALSE(Contains("\\S", "a"));
  EXPECT_FALSE(Contains("\\S", "\\D"));
}

TEST(ContainmentTest, ConjunctionOnTheLeft) {
  // (\A{5} & \D*) ⊆ \D{5} — and vice versa.
  Pattern conj = ParsePattern("\\A{5}&\\D*").value();
  Pattern d5 = ParsePattern("\\D{5}").value();
  EXPECT_TRUE(PatternContains(d5, conj));
  EXPECT_TRUE(PatternContains(conj, d5));
  EXPECT_TRUE(PatternEquivalent(conj, d5));
}

TEST(ContainmentTest, ConjunctionOnTheRight) {
  // \D{5} ⊆ (\A* & \D*)? Yes: both conjuncts contain \D{5}.
  Pattern conj = ParsePattern("\\A*&\\D*").value();
  EXPECT_TRUE(PatternContains(conj, ParsePattern("\\D{5}").value()));
  // But \A{5} ⊄ (\A* & \D*): "abcde" fails \D*.
  EXPECT_FALSE(PatternContains(conj, ParsePattern("\\A{5}").value()));
}

TEST(ContainmentTest, MixedStructure) {
  // \LU\LL*\ \A* contains John\ \A*.
  EXPECT_TRUE(Contains("\\LU\\LL*\\ \\A*", "John\\ \\A*"));
  EXPECT_FALSE(Contains("John\\ \\A*", "\\LU\\LL*\\ \\A*"));
  // Phone: 850\D{7} ⊆ \D{10}.
  EXPECT_TRUE(Contains("\\D{10}", "850\\D{7}"));
}

// ---- Brute-force oracle ----------------------------------------------------
//
// Containment is decided against exhaustive enumeration: every string up to
// length k over an alphabet holding every literal of both patterns, two
// unnamed bytes per class, and two `\S` bytes outside printable ASCII
// ('\t' and 0xE9). Patterns tell bytes apart only by class and by literal
// identity, so a shortest counterexample, if one exists within length k,
// appears over this alphabet.

void AddLiterals(const Pattern& p, std::string* out) {
  for (const PatternElement& e : p.elements()) {
    if (e.cls == SymbolClass::kLiteral &&
        out->find(e.literal) == std::string::npos) {
      out->push_back(e.literal);
    }
  }
  for (const Pattern& c : p.conjuncts()) AddLiterals(c, out);
}

std::string OracleAlphabet(const Pattern& a, const Pattern& b) {
  std::string literals;
  AddLiterals(a, &literals);
  AddLiterals(b, &literals);
  std::string alphabet = literals;
  for (const char* pool : {"QZXJ", "qzxj", "7301", "~!@#"}) {
    int added = 0;
    for (const char* c = pool; *c != '\0' && added < 2; ++c) {
      if (literals.find(*c) == std::string::npos) {
        alphabet.push_back(*c);
        ++added;
      }
    }
  }
  for (const char c : {'\t', '\xE9'}) {
    if (alphabet.find(c) == std::string::npos) alphabet.push_back(c);
  }
  return alphabet;
}

/// Membership of every string up to length `k` over `alphabet` in `p` and
/// in `q`, as found by the NFA reference matcher.
struct OracleVerdict {
  bool p_in_q = true;  ///< no enumerated string is in p but not in q
  bool q_in_p = true;
  std::string p_witness;  ///< a string in p but not in q (when !p_in_q)
  std::string q_witness;
};

OracleVerdict RunOracle(const Pattern& p, const Pattern& q, size_t k) {
  const std::string alphabet = OracleAlphabet(p, q);
  OracleVerdict verdict;
  std::vector<size_t> digits;
  for (size_t len = 0; len <= k; ++len) {
    digits.assign(len, 0);
    std::string s(len, alphabet[0]);
    while (true) {
      const bool in_p = NfaMatchesWithConjuncts(p, s);
      const bool in_q = NfaMatchesWithConjuncts(q, s);
      if (in_p && !in_q && verdict.p_in_q) {
        verdict.p_in_q = false;
        verdict.p_witness = s;
      }
      if (in_q && !in_p && verdict.q_in_p) {
        verdict.q_in_p = false;
        verdict.q_witness = s;
      }
      size_t i = 0;
      while (i < len && ++digits[i] == alphabet.size()) {
        digits[i] = 0;
        s[i] = alphabet[0];
        ++i;
      }
      if (i == len) break;
      s[i] = alphabet[digits[i]];
    }
  }
  return verdict;
}

/// Literal pool: letters, digits and separators that collide with the
/// oracle's class bytes, plus the UTF-8 lead and continuation bytes of the
/// web table's non-ASCII digits (U+0660 = D9 A0, U+FF11 = EF BC 91).
constexpr char kLiteralPool[] = "aZ5- \xD9\xA0\xEF\xBC\x91";

Pattern RandomPattern(Rng& rng, bool bounded, int depth) {
  std::vector<PatternElement> elements;
  const size_t n = 1 + rng.NextBelow(3);
  for (size_t i = 0; i < n; ++i) {
    PatternElement e;
    if (rng.NextBool(0.5)) {
      e = PatternElement::Literal(
          kLiteralPool[rng.NextBelow(sizeof(kLiteralPool) - 1)]);
    } else {
      static constexpr SymbolClass kClasses[] = {
          SymbolClass::kUpper, SymbolClass::kLower, SymbolClass::kDigit,
          SymbolClass::kSymbol, SymbolClass::kAny};
      e = PatternElement::Class(kClasses[rng.NextBelow(5)]);
    }
    static constexpr uint32_t kRanges[][2] = {
        {1, 1}, {0, 1}, {1, 2}, {2, 2}, {0, 2}, {0, kUnbounded},
        {1, kUnbounded}};
    const auto& range = kRanges[rng.NextBelow(bounded ? 5 : 7)];
    e.min = range[0];
    e.max = range[1];
    elements.push_back(e);
  }
  Pattern p(std::move(elements));
  // Conjuncts, occasionally nested, so FlattenConjuncts' whole tree counts.
  if (depth < 2 && rng.NextBool(depth == 0 ? 0.4 : 0.2)) {
    p.AddConjunct(RandomPattern(rng, rng.NextBool(0.5), depth + 1));
  }
  return p;
}

/// A random pattern whose language holds only strings of length <= k.
Pattern RandomBoundedPattern(Rng& rng, uint32_t k) {
  while (true) {
    Pattern p = RandomPattern(rng, /*bounded=*/true, 0);
    if (p.MaxLength() <= k) return p;
  }
}

/// Checks both directions of containment and the equivalence verdict of a
/// pattern pair against the oracle. When both languages hold only strings
/// of length <= k the oracle is exact and the verdicts must be equal;
/// otherwise an oracle counterexample must refute containment.
void ExpectAgreesWithOracle(const Pattern& p, const Pattern& q, uint32_t k) {
  const OracleVerdict oracle = RunOracle(p, q, k);
  const bool exact = p.MaxLength() <= k && q.MaxLength() <= k;
  const bool p_in_q = PatternContains(q, p);
  const bool q_in_p = PatternContains(p, q);
  if (exact || !oracle.p_in_q) {
    EXPECT_EQ(p_in_q, oracle.p_in_q)
        << p.ToString() << " ⊆ " << q.ToString() << " witness \""
        << oracle.p_witness << "\"";
  }
  if (exact || !oracle.q_in_p) {
    EXPECT_EQ(q_in_p, oracle.q_in_p)
        << q.ToString() << " ⊆ " << p.ToString() << " witness \""
        << oracle.q_witness << "\"";
  }
  EXPECT_EQ(PatternEquivalent(p, q), p_in_q && q_in_p)
      << p.ToString() << " ≡ " << q.ToString();
}

class ContainmentOracleTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(ContainmentOracleTest, BoundedPatternsMatchOracleExactly) {
  constexpr uint32_t kMaxLen = 3;
  Rng rng(GetParam());
  for (int i = 0; i < 60; ++i) {
    const Pattern p = RandomBoundedPattern(rng, kMaxLen);
    const Pattern q = RandomBoundedPattern(rng, kMaxLen);
    ExpectAgreesWithOracle(p, q, kMaxLen);
    EXPECT_TRUE(PatternEquivalent(p, p)) << p.ToString();
  }
}

TEST_P(ContainmentOracleTest, UnboundedCounterexampleRefutesContainment) {
  Rng rng(GetParam() + 1000);
  for (int i = 0; i < 40; ++i) {
    const Pattern p = RandomPattern(rng, /*bounded=*/false, 0);
    const Pattern q = RandomPattern(rng, /*bounded=*/false, 0);
    ExpectAgreesWithOracle(p, q, 3);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ContainmentOracleTest,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8));

TEST(ContainmentOracleTest, Utf8MultiByteLiterals) {
  // Arabic-Indic zero (D9 A0) and fullwidth one (EF BC 91): every byte is
  // \S, so class patterns see each digit as a run of symbols.
  const char* kPairs[][2] = {
      {"\\S{2}", "\xD9\xA0"},
      {"\\S\\S?", "\xD9\xA0"},
      {"\\S{3}", "\xEF\xBC\x91"},
      {"\\S{2}", "\xEF\xBC\x91"},
      {"\\A*", "\xD9\xA0\\D"},
      {"\\S*\\D", "\xD9\\S\\D"},
      {"\xD9\\S", "\\S{2}"},
      {"\xEF\\S\x91", "\xEF\xBC\x91"},
      {"\xEF\\S\x91", "\xEF\\S{1,2}"},
      {"\\S+", "\\S{2}&\xD9\\A"},
      {"\xD9\\A&\\S\xA0", "\xD9\xA0"},
      {"\\D\xD9\xA0\\D", "\\A{4}&\\D\\S*\\D"},
  };
  for (const auto& [q_text, p_text] : kPairs) {
    ExpectAgreesWithOracle(ParsePattern(p_text).value(),
                           ParsePattern(q_text).value(), 4);
  }
}

// ---- Constrained restriction (Q ⊆ Q') -----------------------------------

bool Restricts(const char* sub, const char* sup) {
  return ConstrainedRestricts(ParseConstrainedPattern(sub).value(),
                              ParseConstrainedPattern(sup).value());
}

TEST(ConstrainedRestrictsTest, PaperExample2) {
  // Q2 ⊆ Q1: constraining first AND last name restricts constraining just
  // the first name.
  EXPECT_TRUE(Restricts("(\\LU\\LL*\\ )!\\A*\\ (\\LU\\LL*)!",
                        "(\\LU\\LL*\\ )!\\A*"));
  EXPECT_FALSE(Restricts("(\\LU\\LL*\\ )!\\A*",
                         "(\\LU\\LL*\\ )!\\A*\\ (\\LU\\LL*)!"));
}

TEST(ConstrainedRestrictsTest, Reflexive) {
  EXPECT_TRUE(Restricts("(\\D{3})!\\D{2}", "(\\D{3})!\\D{2}"));
  EXPECT_TRUE(Restricts("(\\LU\\LL*\\ )!\\A*", "(\\LU\\LL*\\ )!\\A*"));
}

TEST(ConstrainedRestrictsTest, TighterKeyPattern) {
  // (900)!\D{2} restricts (\D{3})!\D{2}: embedded containment + the
  // constrained segment 900 ⊆ \D{3}.
  EXPECT_TRUE(Restricts("(900)!\\D{2}", "(\\D{3})!\\D{2}"));
  EXPECT_FALSE(Restricts("(\\D{3})!\\D{2}", "(900)!\\D{2}"));
}

TEST(ConstrainedRestrictsTest, EmbeddedContainmentRequired) {
  // Different overall shapes cannot restrict.
  EXPECT_FALSE(Restricts("(\\D{3})!\\D{2}", "(\\LL{3})!\\LL{2}"));
  EXPECT_FALSE(Restricts("(\\D{3})!\\D{3}", "(\\D{3})!\\D{2}"));
}

TEST(ConstrainedRestrictsTest, UnconstrainedSupRelatesAll) {
  // sup without constrained segments relates all matching strings; any sub
  // (over a contained language) restricts it.
  EXPECT_TRUE(Restricts("(\\D{3})!\\D{2}", "\\D{5}"));
  // But a constrained sup is not restricted by an unconstrained sub.
  EXPECT_FALSE(Restricts("\\D{5}", "(\\D{3})!\\D{2}"));
}

}  // namespace
}  // namespace anmat
