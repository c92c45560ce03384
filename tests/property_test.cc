// Property-based tests: randomized and parameterized sweeps over the core
// algebraic invariants of the pattern language and the detection pipeline.
// Uses the library's own deterministic Rng so failures are reproducible
// from the seed embedded in the test parameter.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "detect/detector.h"
#include "datagen/datasets.h"
#include "pattern/containment.h"
#include "pattern/generalizer.h"
#include "pattern/matcher.h"
#include "pattern/nfa.h"
#include "pattern/pattern_parser.h"
#include "reference_check.h"
#include "store/rule_store.h"
#include "util/random.h"

namespace anmat {
namespace {

// ---------------------------------------------------------------------------
// Random string generation over a small structured alphabet (letters,
// digits, separators) so the generated values resemble real cell data.

std::string RandomCell(Rng& rng) {
  static const char* kAlpha = "abcdefgh";
  static const char* kUpper = "ABCD";
  static const char* kDigit = "0123456789";
  std::string out;
  const size_t segments = 1 + rng.NextBelow(3);
  for (size_t s = 0; s < segments; ++s) {
    if (s > 0) out += rng.NextBool(0.5) ? "-" : " ";
    switch (rng.NextBelow(3)) {
      case 0:
        out += kUpper[rng.NextBelow(4)];
        out += rng.NextString(1 + rng.NextBelow(5), kAlpha);
        break;
      case 1:
        out += rng.NextString(1 + rng.NextBelow(5), kDigit);
        break;
      default:
        out += rng.NextString(1 + rng.NextBelow(4), kAlpha);
        break;
    }
  }
  return out;
}

// ---------------------------------------------------------------------------
// P1: a string always matches its own signature, at every level.

class SignatureMatchProperty : public ::testing::TestWithParam<uint64_t> {};

TEST_P(SignatureMatchProperty, StringMatchesOwnSignature) {
  Rng rng(GetParam());
  for (int i = 0; i < 50; ++i) {
    const std::string s = RandomCell(rng);
    for (GeneralizationLevel level :
         {GeneralizationLevel::kLiteral, GeneralizationLevel::kClassExact,
          GeneralizationLevel::kClassLoose}) {
      Pattern sig = GeneralizeString(s, level);
      EXPECT_TRUE(PatternMatcher(sig).Matches(s))
          << "value \"" << s << "\" level " << static_cast<int>(level)
          << " sig " << sig.ToString();
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SignatureMatchProperty,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21, 34));

// ---------------------------------------------------------------------------
// P2: the signature lattice is ordered by containment:
// literal ⊆ class-exact ⊆ class-loose (for each concrete value).

class SignatureLatticeProperty : public ::testing::TestWithParam<uint64_t> {};

TEST_P(SignatureLatticeProperty, LevelsFormChain) {
  Rng rng(GetParam());
  for (int i = 0; i < 20; ++i) {
    const std::string s = RandomCell(rng);
    Pattern lit = GeneralizeString(s, GeneralizationLevel::kLiteral);
    Pattern exact = GeneralizeString(s, GeneralizationLevel::kClassExact);
    Pattern loose = GeneralizeString(s, GeneralizationLevel::kClassLoose);
    EXPECT_TRUE(PatternContains(exact, lit)) << s;
    EXPECT_TRUE(PatternContains(loose, exact)) << s;
    EXPECT_TRUE(PatternContains(loose, lit)) << s;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SignatureLatticeProperty,
                         ::testing::Values(101, 102, 103, 104));

// ---------------------------------------------------------------------------
// P3: LGG is an upper bound (its language contains both inputs) and is
// commutative in language terms.

class LggProperty : public ::testing::TestWithParam<uint64_t> {};

TEST_P(LggProperty, UpperBoundAndCommutative) {
  Rng rng(GetParam());
  for (int i = 0; i < 15; ++i) {
    const std::string s1 = RandomCell(rng);
    const std::string s2 = RandomCell(rng);
    Pattern a = GeneralizeString(s1, GeneralizationLevel::kClassExact);
    Pattern b = GeneralizeString(s2, GeneralizationLevel::kClassExact);
    Pattern ab = Lgg(a, b);
    Pattern ba = Lgg(b, a);
    EXPECT_TRUE(PatternContains(ab, a)) << s1 << " | " << s2;
    EXPECT_TRUE(PatternContains(ab, b)) << s1 << " | " << s2;
    EXPECT_TRUE(PatternMatcher(ab).Matches(s1));
    EXPECT_TRUE(PatternMatcher(ab).Matches(s2));
    EXPECT_TRUE(PatternEquivalent(ab, ba)) << s1 << " | " << s2;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, LggProperty,
                         ::testing::Values(201, 202, 203, 204, 205));

// ---------------------------------------------------------------------------
// P4: containment is consistent with matching — if P ⊆ Q then every sample
// string matching P matches Q. (Samples drawn from generated cells.)

class ContainmentConsistencyProperty
    : public ::testing::TestWithParam<uint64_t> {};

TEST_P(ContainmentConsistencyProperty, ContainmentImpliesMatchSubset) {
  Rng rng(GetParam());
  // Build a pool of patterns from random cell signatures plus hand
  // patterns, and a pool of sample strings.
  std::vector<Pattern> patterns;
  std::vector<std::string> samples;
  for (int i = 0; i < 12; ++i) {
    const std::string s = RandomCell(rng);
    samples.push_back(s);
    patterns.push_back(GeneralizeString(s, GeneralizationLevel::kClassExact));
    patterns.push_back(GeneralizeString(s, GeneralizationLevel::kClassLoose));
  }
  for (const char* fixed : {"\\D{5}", "\\A*", "\\LU\\LL*\\ \\A*", "\\D+"}) {
    patterns.push_back(ParsePattern(fixed).value());
  }

  for (const Pattern& p : patterns) {
    for (const Pattern& q : patterns) {
      if (!PatternContains(q, p)) continue;
      PatternMatcher mp(p);
      PatternMatcher mq(q);
      for (const std::string& s : samples) {
        if (mp.Matches(s)) {
          EXPECT_TRUE(mq.Matches(s))
              << "violates " << p.ToString() << " ⊆ " << q.ToString()
              << " on \"" << s << "\"";
        }
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ContainmentConsistencyProperty,
                         ::testing::Values(301, 302, 303));

// ---------------------------------------------------------------------------
// P5: containment is transitive on a random pattern pool.

class ContainmentTransitivityProperty
    : public ::testing::TestWithParam<uint64_t> {};

TEST_P(ContainmentTransitivityProperty, Transitive) {
  Rng rng(GetParam());
  std::vector<Pattern> pool;
  for (int i = 0; i < 8; ++i) {
    const std::string s = RandomCell(rng);
    pool.push_back(GeneralizeString(s, GeneralizationLevel::kLiteral));
    pool.push_back(GeneralizeString(s, GeneralizationLevel::kClassExact));
    pool.push_back(GeneralizeString(s, GeneralizationLevel::kClassLoose));
  }
  for (const Pattern& a : pool) {
    for (const Pattern& b : pool) {
      if (!PatternContains(b, a)) continue;
      for (const Pattern& c : pool) {
        if (PatternContains(c, b)) {
          EXPECT_TRUE(PatternContains(c, a))
              << a.ToString() << " ⊆ " << b.ToString() << " ⊆ "
              << c.ToString();
        }
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ContainmentTransitivityProperty,
                         ::testing::Values(401, 402));

// ---------------------------------------------------------------------------
// P6: NFA prefix-match lengths agree with brute-force matching of every
// prefix.

class PrefixLengthProperty : public ::testing::TestWithParam<uint64_t> {};

TEST_P(PrefixLengthProperty, AgreesWithBruteForce) {
  Rng rng(GetParam());
  const std::vector<const char*> patterns = {
      "\\D{3}", "\\D*", "\\LU\\LL*", "\\A*-\\A*", "a+b*", "\\D{2,4}"};
  for (int i = 0; i < 20; ++i) {
    const std::string s = RandomCell(rng);
    for (const char* text : patterns) {
      Pattern p = ParsePattern(text).value();
      Nfa nfa = Nfa::Compile(p);
      std::vector<uint32_t> lengths = nfa.MatchingPrefixLengths(s);
      std::vector<uint32_t> expected;
      for (uint32_t len = 0; len <= s.size(); ++len) {
        if (nfa.Matches(std::string_view(s).substr(0, len))) {
          expected.push_back(len);
        }
      }
      EXPECT_EQ(lengths, expected) << text << " on \"" << s << "\"";
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, PrefixLengthProperty,
                         ::testing::Values(501, 502, 503));

// ---------------------------------------------------------------------------
// P7: ≡_Q is reflexive and symmetric on matching strings; canonical
// extraction is stable.

class EquivalenceProperty : public ::testing::TestWithParam<uint64_t> {};

TEST_P(EquivalenceProperty, ReflexiveSymmetricStable) {
  Rng rng(GetParam());
  ConstrainedMatcher q(
      ParseConstrainedPattern("(\\A+)!\\ \\A*").value());
  std::vector<std::string> matching;
  for (int i = 0; i < 40 && matching.size() < 12; ++i) {
    const std::string s = RandomCell(rng);
    if (q.Matches(s)) matching.push_back(s);
  }
  for (const std::string& a : matching) {
    EXPECT_TRUE(q.Equivalent(a, a)) << a;
    Extraction e1, e2;
    ASSERT_TRUE(q.ExtractCanonical(a, &e1));
    ASSERT_TRUE(q.ExtractCanonical(a, &e2));
    EXPECT_EQ(e1, e2);
    for (const std::string& b : matching) {
      EXPECT_EQ(q.Equivalent(a, b), q.Equivalent(b, a)) << a << " | " << b;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, EquivalenceProperty,
                         ::testing::Values(601, 602, 603, 604));

// ---------------------------------------------------------------------------
// P8: production detection equals the reference oracle (full scan +
// quadratic pair enumeration) byte for byte on random dirty datasets.

struct DetectorSweepParam {
  uint64_t seed;
  double error_rate;
};

class DetectorStrategyProperty
    : public ::testing::TestWithParam<DetectorSweepParam> {};

TEST_P(DetectorStrategyProperty, ProductionMatchesReference) {
  const DetectorSweepParam param = GetParam();
  Dataset d = ZipCityStateDataset(250, param.seed, param.error_rate);

  Tableau t;
  TableauRow row;
  row.lhs.push_back(TableauCell::Of(
      ParseConstrainedPattern("(\\D{3})!\\D{2}").value()));
  row.rhs.push_back(TableauCell::Wildcard());
  t.AddRow(row);
  Tableau c;
  TableauRow constant;
  constant.lhs.push_back(TableauCell::Of(
      ParseConstrainedPattern("(900)!\\D{2}").value()));
  constant.rhs.push_back(TableauCell::Of(
      ConstrainedPattern::Unconstrained(LiteralPattern("Los Angeles"))));
  c.AddRow(constant);
  const std::vector<Pfd> pfds = {Pfd::Simple("Z", "zip", "city", t),
                                 Pfd::Simple("Z", "zip", "city", c)};
  for (size_t threads : {size_t{1}, size_t{2}, size_t{4}}) {
    DetectorOptions options;
    options.execution.num_threads = threads;
    ExpectDetectMatchesReference(
        d.relation, pfds, options,
        "seed " + std::to_string(param.seed) + ", " +
            std::to_string(threads) + " threads");
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweeps, DetectorStrategyProperty,
    ::testing::Values(DetectorSweepParam{701, 0.0},
                      DetectorSweepParam{702, 0.02},
                      DetectorSweepParam{703, 0.05},
                      DetectorSweepParam{704, 0.10},
                      DetectorSweepParam{705, 0.20}));

// ---------------------------------------------------------------------------
// P9: pattern text round-trip — ToString() re-parses to an equal AST for
// signatures of random values.

class RoundTripProperty : public ::testing::TestWithParam<uint64_t> {};

TEST_P(RoundTripProperty, SignatureTextRoundTrips) {
  Rng rng(GetParam());
  for (int i = 0; i < 30; ++i) {
    const std::string s = RandomCell(rng);
    for (GeneralizationLevel level :
         {GeneralizationLevel::kLiteral, GeneralizationLevel::kClassExact,
          GeneralizationLevel::kClassLoose}) {
      Pattern p = GeneralizeString(s, level);
      if (p.empty()) continue;
      auto reparsed = ParsePattern(p.ToString());
      ASSERT_TRUE(reparsed.ok()) << p.ToString();
      EXPECT_EQ(p, reparsed.value()) << p.ToString();
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RoundTripProperty,
                         ::testing::Values(801, 802, 803, 804));

// ---------------------------------------------------------------------------
// P10: coverage monotonicity — injecting more errors never *increases*
// the violation-free coverage of a fixed constant PFD, and never changes
// total coverage (the LHS column is untouched).

class CoverageMonotonicityProperty
    : public ::testing::TestWithParam<uint64_t> {};

TEST_P(CoverageMonotonicityProperty, ErrorsOnlyAddViolations) {
  Tableau t;
  TableauRow row;
  row.lhs.push_back(
      TableauCell::Of(ParseConstrainedPattern("(900)!\\D{2}").value()));
  row.rhs.push_back(TableauCell::Of(
      ConstrainedPattern::Unconstrained(LiteralPattern("Los Angeles"))));
  t.AddRow(row);
  Pfd pfd = Pfd::Simple("Z", "zip", "city", t);

  const uint64_t seed = GetParam();
  CoverageStats prev;
  bool first = true;
  for (double rate : {0.0, 0.05, 0.15, 0.3}) {
    Dataset d = ZipCityStateDataset(300, seed, rate);
    CoverageStats stats = ComputeCoverage(pfd, d.relation).value();
    if (!first) {
      EXPECT_EQ(stats.covered_rows, prev.covered_rows);  // LHS untouched
      EXPECT_GE(stats.violating_rows, prev.violating_rows);
    }
    prev = stats;
    first = false;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CoverageMonotonicityProperty,
                         ::testing::Values(901, 902, 903));

// ---------------------------------------------------------------------------
// P11: store round-trip — randomly *constructed* (not parsed) PFDs survive
// JSON serialization exactly, including wildcards, constrained segments,
// literals needing escapes, and multi-attribute shapes.

namespace store_roundtrip {

PatternElement RandomElement(Rng& rng) {
  static const SymbolClass kClasses[] = {SymbolClass::kUpper,
                                         SymbolClass::kLower,
                                         SymbolClass::kDigit,
                                         SymbolClass::kSymbol,
                                         SymbolClass::kAny};
  PatternElement e;
  if (rng.NextBool(0.5)) {
    // Literal, biased toward characters that need escaping.
    static constexpr std::string_view kLiterals = "aZ9 ,.-\\{}()!&*+?";
    e = PatternElement::Literal(kLiterals[rng.NextBelow(kLiterals.size())]);
  } else {
    e = PatternElement::Class(kClasses[rng.NextBelow(5)]);
  }
  switch (rng.NextBelow(5)) {
    case 0:
      break;  // exactly once
    case 1:
      e.min = 0;
      e.max = kUnbounded;
      break;
    case 2:
      e.min = 1;
      e.max = kUnbounded;
      break;
    case 3:
      e.min = e.max = 1 + static_cast<uint32_t>(rng.NextBelow(9));
      break;
    default:
      e.min = static_cast<uint32_t>(rng.NextBelow(3));
      e.max = e.min + 1 + static_cast<uint32_t>(rng.NextBelow(4));
      break;
  }
  return e;
}

Pattern RandomPattern(Rng& rng, size_t max_elements = 5) {
  std::vector<PatternElement> elements;
  const size_t n = 1 + rng.NextBelow(max_elements);
  for (size_t i = 0; i < n; ++i) elements.push_back(RandomElement(rng));
  return Pattern(std::move(elements));
}

ConstrainedPattern RandomConstrained(Rng& rng) {
  std::vector<PatternSegment> segments;
  const size_t n = 1 + rng.NextBelow(3);
  for (size_t i = 0; i < n; ++i) {
    segments.push_back(PatternSegment{RandomPattern(rng), rng.NextBool(0.5)});
  }
  // Ensure at least one constrained segment.
  segments[rng.NextBelow(segments.size())].constrained = true;
  return ConstrainedPattern(std::move(segments));
}

Pfd RandomPfd(Rng& rng) {
  const bool multi = rng.NextBool(0.3);
  std::vector<std::string> lhs = multi
                                     ? std::vector<std::string>{"a", "b"}
                                     : std::vector<std::string>{"a"};
  std::vector<std::string> rhs = {"c"};
  Tableau t;
  const size_t rows = 1 + rng.NextBelow(3);
  for (size_t i = 0; i < rows; ++i) {
    TableauRow row;
    for (size_t j = 0; j < lhs.size(); ++j) {
      row.lhs.push_back(rng.NextBool(0.2)
                            ? TableauCell::Wildcard()
                            : TableauCell::Of(RandomConstrained(rng)));
    }
    row.rhs.push_back(rng.NextBool(0.5)
                          ? TableauCell::Wildcard()
                          : TableauCell::Of(RandomConstrained(rng)));
    t.AddRow(row);
  }
  return Pfd("T", std::move(lhs), std::move(rhs), std::move(t));
}

}  // namespace store_roundtrip

class StoreRoundTripProperty : public ::testing::TestWithParam<uint64_t> {};

TEST_P(StoreRoundTripProperty, RandomPfdsSurviveExactly) {
  Rng rng(GetParam());
  for (int i = 0; i < 25; ++i) {
    std::vector<Pfd> rules;
    const size_t n = 1 + rng.NextBelow(4);
    for (size_t k = 0; k < n; ++k) {
      rules.push_back(store_roundtrip::RandomPfd(rng));
    }
    const std::string json = SerializeRuleSet(rules);
    auto restored = ParseRuleSet(json);
    ASSERT_TRUE(restored.ok()) << json;
    ASSERT_EQ(restored.value().size(), rules.size());
    for (size_t k = 0; k < n; ++k) {
      EXPECT_TRUE(restored.value().records()[k].pfd == rules[k])
          << "rule " << k << " changed:\n"
          << rules[k].ToString() << "vs\n"
          << restored.value().records()[k].pfd.ToString();
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, StoreRoundTripProperty,
                         ::testing::Values(1001, 1002, 1003, 1004, 1005));

}  // namespace
}  // namespace anmat
