#include "pattern/dfa.h"

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "datagen/datasets.h"
#include "detect/detector.h"
#include "pattern/automaton_cache.h"
#include "pattern/frozen_dfa.h"
#include "pattern/matcher.h"
#include "pattern/nfa.h"
#include "pattern/pattern_parser.h"
#include "reference_check.h"
#include "util/random.h"

namespace anmat {
namespace {

// ---------------------------------------------------------------- helpers

Dfa CompileDfa(const char* text) {
  return Dfa::Compile(ParsePattern(text).value());
}

/// Draws a random pattern: 1..5 elements mixing literals, classes, bounded
/// repetitions and unbounded quantifiers — the full element grammar.
Pattern RandomPattern(Rng& rng, bool allow_conjunct = true) {
  static const std::vector<SymbolClass> kClasses = {
      SymbolClass::kUpper, SymbolClass::kLower, SymbolClass::kDigit,
      SymbolClass::kSymbol, SymbolClass::kAny};
  static const std::string kLiterals = "abAB01-. ";
  std::vector<PatternElement> elements;
  const size_t n = 1 + rng.NextBelow(5);
  for (size_t i = 0; i < n; ++i) {
    PatternElement e;
    if (rng.NextBool(0.4)) {
      e = PatternElement::Literal(kLiterals[rng.NextBelow(kLiterals.size())]);
    } else {
      e = PatternElement::Class(rng.Choose(kClasses));
    }
    switch (rng.NextBelow(5)) {
      case 0:  // exactly once
        break;
      case 1:  // {N}
        e.min = e.max = 1 + static_cast<uint32_t>(rng.NextBelow(3));
        break;
      case 2:  // {M,N}
        e.min = static_cast<uint32_t>(rng.NextBelow(3));
        e.max = e.min + 1 + static_cast<uint32_t>(rng.NextBelow(3));
        break;
      case 3:  // +
        e.min = 1;
        e.max = kUnbounded;
        break;
      case 4:  // *
        e.min = 0;
        e.max = kUnbounded;
        break;
    }
    elements.push_back(e);
  }
  Pattern p(std::move(elements));
  if (allow_conjunct && rng.NextBool(0.25)) {
    // One-level conjunct; nested conjuncts are exercised separately below.
    p.AddConjunct(RandomPattern(rng, /*allow_conjunct=*/false));
  }
  return p;
}

/// A string with a chance of matching: walks the pattern's elements and
/// emits characters that satisfy (or with probability `noise` violate) each
/// element; occasionally pure-random strings keep the negative side honest.
std::string RandomString(Rng& rng, const Pattern& p, double noise) {
  static const std::string kAlphabet = "abzABZ019-. #";
  if (p.elements().empty() || rng.NextBool(0.2)) {
    return rng.NextString(rng.NextBelow(8), kAlphabet);
  }
  std::string s;
  for (const PatternElement& e : p.elements()) {
    const uint32_t max = e.max == kUnbounded ? e.min + 3 : e.max;
    const uint32_t reps =
        e.min + static_cast<uint32_t>(rng.NextBelow(max - e.min + 1));
    for (uint32_t i = 0; i < reps; ++i) {
      if (rng.NextBool(noise)) {
        s.push_back(kAlphabet[rng.NextBelow(kAlphabet.size())]);
        continue;
      }
      switch (e.cls) {
        case SymbolClass::kLiteral:
          s.push_back(e.literal);
          break;
        case SymbolClass::kUpper:
          s.push_back(static_cast<char>('A' + rng.NextBelow(26)));
          break;
        case SymbolClass::kLower:
          s.push_back(static_cast<char>('a' + rng.NextBelow(26)));
          break;
        case SymbolClass::kDigit:
          s.push_back(static_cast<char>('0' + rng.NextBelow(10)));
          break;
        case SymbolClass::kSymbol:
          s.push_back("-. #,"[rng.NextBelow(5)]);
          break;
        case SymbolClass::kAny:
          s.push_back(kAlphabet[rng.NextBelow(kAlphabet.size())]);
          break;
      }
    }
  }
  return s;
}

// ------------------------------------------------------- targeted checks

TEST(DfaTest, EmptyPatternAcceptsOnlyEpsilon) {
  Dfa dfa = Dfa::Compile(Pattern());
  EXPECT_TRUE(dfa.Matches(""));
  EXPECT_FALSE(dfa.Matches("a"));
}

TEST(DfaTest, MatchesBasicPatterns) {
  EXPECT_TRUE(CompileDfa("\\D{5}").Matches("90001"));
  EXPECT_FALSE(CompileDfa("\\D{5}").Matches("9000"));
  EXPECT_FALSE(CompileDfa("\\D{5}").Matches("9000a"));
  EXPECT_TRUE(CompileDfa("\\LU\\LL+").Matches("Boyle"));
  EXPECT_TRUE(CompileDfa("a{1,3}").Matches("aa"));
  EXPECT_FALSE(CompileDfa("a{1,3}").Matches("aaaa"));
  EXPECT_TRUE(CompileDfa("\\A*").Matches(""));
}

TEST(DfaTest, AlphabetCompressionIsSmall) {
  // \D{5}: digits vs everything-else (plus the other tree classes) — far
  // fewer than 256 symbol classes.
  Dfa dfa = CompileDfa("\\D{5}");
  EXPECT_LE(dfa.num_symbol_classes(), 4u);
  // Literals get their own class.
  Dfa lit = CompileDfa("ab\\D");
  EXPECT_LE(lit.num_symbol_classes(), 6u);
}

TEST(DfaTest, PrefixLengthsMatchManualExpectation) {
  Dfa dfa = CompileDfa("a+");
  EXPECT_EQ(dfa.MatchingPrefixLengths("aaab"),
            (std::vector<uint32_t>{1, 2, 3}));
  Dfa opt = CompileDfa("a{0,2}b?");
  EXPECT_EQ(opt.MatchingPrefixLengths("aab"),
            (std::vector<uint32_t>{0, 1, 2, 3}));
}

TEST(DfaTest, MatchesWithConjunctsAgreesWithNfa) {
  Pattern p = ParsePattern("\\A{5}").value();
  p.AddConjunct(ParsePattern("\\D*").value());
  for (const char* s : {"90001", "9000a", "12345", "1234", "123456"}) {
    EXPECT_EQ(DfaMatchesWithConjuncts(p, s), NfaMatchesWithConjuncts(p, s))
        << s;
  }
}

// --------------------------------------------------- differential property

TEST(DfaDifferentialTest, RandomPatternsAgreeWithNfaOnMatches) {
  Rng rng(20260729);
  size_t positives = 0;
  for (int iter = 0; iter < 400; ++iter) {
    const Pattern p = RandomPattern(rng);
    const Nfa nfa = Nfa::Compile(p);
    const Dfa dfa = Dfa::Compile(p);
    for (int k = 0; k < 25; ++k) {
      const std::string s = RandomString(rng, p, /*noise=*/0.15);
      const bool expected = nfa.Matches(s);
      ASSERT_EQ(dfa.Matches(s), expected)
          << "pattern=" << p.ToString() << " input=\"" << s << "\"";
      if (expected) ++positives;
      // Conjunct semantics must agree too (the helpers recurse/flatten).
      ASSERT_EQ(DfaMatchesWithConjuncts(p, s), NfaMatchesWithConjuncts(p, s))
          << "pattern=" << p.ToString() << " input=\"" << s << "\"";
    }
  }
  // The generator must exercise the accepting side, not just rejections.
  EXPECT_GT(positives, 1000u);
}

TEST(DfaDifferentialTest, RandomPatternsAgreeWithNfaOnPrefixLengths) {
  Rng rng(424242);
  size_t nonempty = 0;
  for (int iter = 0; iter < 300; ++iter) {
    const Pattern p = RandomPattern(rng, /*allow_conjunct=*/false);
    const Nfa nfa = Nfa::Compile(p);
    const Dfa dfa = Dfa::Compile(p);
    for (int k = 0; k < 20; ++k) {
      const std::string s = RandomString(rng, p, /*noise=*/0.25);
      const std::vector<uint32_t> expected = nfa.MatchingPrefixLengths(s);
      ASSERT_EQ(dfa.MatchingPrefixLengths(s), expected)
          << "pattern=" << p.ToString() << " input=\"" << s << "\"";
      if (!expected.empty()) ++nonempty;
    }
  }
  EXPECT_GT(nonempty, 500u);
}

TEST(DfaDifferentialTest, BoundedRepetitionEdgeCases) {
  // {M,N} with M=0 plus trailing unbounded loops stresses the epsilon-skip
  // structure the subset construction must fold correctly.
  for (const char* text :
       {"a{0,3}b+", "\\D{2,4}\\LL*", "x{3}y{0,2}", "\\S{1,2}\\A+",
        "a*b*c*", "\\LU{0,1}\\LL{0,1}\\D{0,1}"}) {
    const Pattern p = ParsePattern(text).value();
    const Nfa nfa = Nfa::Compile(p);
    const Dfa dfa = Dfa::Compile(p);
    Rng rng(7);
    for (int k = 0; k < 200; ++k) {
      const std::string s = RandomString(rng, p, /*noise=*/0.2);
      ASSERT_EQ(dfa.Matches(s), nfa.Matches(s))
          << "pattern=" << text << " input=\"" << s << "\"";
      ASSERT_EQ(dfa.MatchingPrefixLengths(s), nfa.MatchingPrefixLengths(s))
          << "pattern=" << text << " input=\"" << s << "\"";
    }
  }
}

// ------------------------------------------------------- frozen automata

TEST(FrozenDfaTest, FreezeMatchesBasicPatterns) {
  for (const char* text : {"\\D{5}", "\\LU\\LL+", "a{1,3}", "\\A*",
                           "CHEMBL\\D{1,7}", "a{0,3}b+"}) {
    const Dfa dfa = CompileDfa(text);
    auto frozen = dfa.Freeze();
    ASSERT_NE(frozen, nullptr) << text;
    EXPECT_EQ(frozen->num_symbol_classes(), dfa.num_symbol_classes());
    // Freeze materialized every reachable state eagerly.
    EXPECT_EQ(frozen->num_states(), dfa.num_materialized_states()) << text;
  }
  auto frozen = CompileDfa("\\D{5}").Freeze();
  EXPECT_TRUE(frozen->Matches("90001"));
  EXPECT_FALSE(frozen->Matches("9000"));
  EXPECT_FALSE(frozen->Matches("9000a"));
  EXPECT_EQ(CompileDfa("a+").Freeze()->MatchingPrefixLengths("aaab"),
            (std::vector<uint32_t>{1, 2, 3}));
  EXPECT_EQ(CompileDfa("a{0,2}b?").Freeze()->MatchingPrefixLengths("aab"),
            (std::vector<uint32_t>{0, 1, 2, 3}));
  EXPECT_TRUE(Dfa::Compile(Pattern()).Freeze()->Matches(""));
  EXPECT_FALSE(Dfa::Compile(Pattern()).Freeze()->Matches("a"));
}

TEST(FrozenDfaTest, PrefilterLiteralCarriesOverAndStaysExact) {
  // CHEMBL\D{1,7}: the mandatory prefix becomes the prefilter needle on
  // both the lazy and frozen automata.
  const Dfa dfa = CompileDfa("CHEMBL\\D{1,7}");
  EXPECT_EQ(dfa.required_literal(), "CHEMBL");
  auto frozen = dfa.Freeze();
  ASSERT_NE(frozen, nullptr);
  EXPECT_EQ(frozen->prefilter_literal(), "CHEMBL");
  // Values without the needle are rejected by the filter; values with it
  // still go through the full walk — decisions stay exact either way.
  EXPECT_TRUE(frozen->Matches("CHEMBL25"));
  EXPECT_FALSE(frozen->Matches("25"));
  EXPECT_FALSE(frozen->Matches("CHEMBL"));    // needle present, walk rejects
  EXPECT_FALSE(frozen->Matches("xCHEMBL25"));  // needle present, walk rejects
  // Class-only patterns have no needle and skip the filter entirely.
  EXPECT_EQ(CompileDfa("\\D{5}").required_literal(), "");

  // ScanPrefixes early-outs identically: no needle in the string means no
  // accepted prefix.
  std::vector<uint32_t> lengths;
  EXPECT_EQ(frozen->ScanPrefixes("9000", &lengths), 0u);
  EXPECT_TRUE(lengths.empty());
  EXPECT_EQ(frozen->ScanPrefixes("CHEMBL123", &lengths), 3u);
  EXPECT_EQ(lengths, (std::vector<uint32_t>{7, 8, 9}));
}

TEST(FrozenDfaTest, LongValuesUseChunkedClassifyExactly) {
  // 16+ byte values take the SIMD class-buffer path; decisions must be
  // identical to short-string walks, including across the 256-byte chunk
  // boundary.
  auto frozen = CompileDfa("a+b").Freeze();
  ASSERT_NE(frozen, nullptr);
  for (size_t len : {size_t{15}, size_t{16}, size_t{17}, size_t{255},
                     size_t{256}, size_t{257}, size_t{1000}}) {
    const std::string yes = std::string(len, 'a') + "b";
    const std::string no = std::string(len, 'a') + "c";
    EXPECT_TRUE(frozen->Matches(yes)) << len;
    EXPECT_FALSE(frozen->Matches(no)) << len;
  }
}

TEST(FrozenDfaTest, StateCapFallsBackToNull) {
  // \D{5} needs 7 states (dead + start + 5 digits); a cap of 3 must refuse.
  EXPECT_EQ(CompileDfa("\\D{5}").Freeze(/*max_states=*/3), nullptr);
  EXPECT_NE(CompileDfa("\\D{5}").Freeze(/*max_states=*/64), nullptr);
}

TEST(FrozenDfaDifferentialTest, RandomPatternsAgreeWithLazyAndNfa) {
  Rng rng(77001);
  size_t positives = 0;
  for (int iter = 0; iter < 300; ++iter) {
    const Pattern p = RandomPattern(rng, /*allow_conjunct=*/false);
    const Nfa nfa = Nfa::Compile(p);
    const Dfa lazy = Dfa::Compile(p);
    auto frozen = Dfa::Compile(p).Freeze();
    ASSERT_NE(frozen, nullptr) << p.ToString();
    for (int k = 0; k < 20; ++k) {
      const std::string s = RandomString(rng, p, /*noise=*/0.2);
      const bool expected = nfa.Matches(s);
      ASSERT_EQ(frozen->Matches(s), expected)
          << "pattern=" << p.ToString() << " input=\"" << s << "\"";
      ASSERT_EQ(lazy.Matches(s), expected);
      ASSERT_EQ(frozen->MatchingPrefixLengths(s),
                nfa.MatchingPrefixLengths(s))
          << "pattern=" << p.ToString() << " input=\"" << s << "\"";
      if (expected) ++positives;
    }
  }
  EXPECT_GT(positives, 800u);
}

TEST(AutomatonCacheTest, CompilesEachDistinctPatternOnce) {
  AutomatonCache cache;
  const Pattern p = ParsePattern("\\D{5}").value();
  auto first = cache.Get(p);
  ASSERT_NE(first, nullptr);
  EXPECT_EQ(cache.misses(), 1u);
  EXPECT_EQ(cache.hits(), 0u);
  // Same element sequence → same shared automaton, no recompilation.
  auto second = cache.Get(ParsePattern("\\D{5}").value());
  EXPECT_EQ(first.get(), second.get());
  EXPECT_EQ(cache.misses(), 1u);
  EXPECT_EQ(cache.hits(), 1u);
  // Conjuncts are separate automata: the main-sequence key ignores them.
  Pattern with_conjunct = ParsePattern("\\D{5}").value();
  with_conjunct.AddConjunct(ParsePattern("\\A*").value());
  EXPECT_EQ(cache.Get(with_conjunct).get(), first.get());
  EXPECT_EQ(cache.entries(), 1u);
  EXPECT_EQ(cache.Get(ParsePattern("\\A*").value()).get() == first.get(),
            false);
  EXPECT_EQ(cache.entries(), 2u);
}

TEST(CachedMatcherDifferentialTest, CachedMatchersIdenticalToLazy) {
  AutomatonCache cache;
  Rng rng(77002);
  for (int iter = 0; iter < 150; ++iter) {
    const Pattern p = RandomPattern(rng);
    const PatternMatcher lazy(p);
    const PatternMatcher cached(p, &cache);
    EXPECT_EQ(cache.fallbacks(), 0u) << p.ToString();  // frozen-backed
    for (int k = 0; k < 15; ++k) {
      const std::string s = RandomString(rng, p, /*noise=*/0.2);
      ASSERT_EQ(cached.Matches(s), lazy.Matches(s))
          << "pattern=" << p.ToString() << " input=\"" << s << "\"";
    }
  }
  EXPECT_GT(cache.hits() + cache.misses(), 0u);

  // Constrained matchers: match + canonical extraction + full extraction
  // sets must agree (the split plan runs over frozen ScanPrefixes).
  for (const char* text :
       {"(\\D{3})!\\D{2}", "(900)!\\D{2}", "(\\LU\\LL+)!\\ (\\LU\\LL+)!",
        "(\\D+)!-\\D+"}) {
    const ConstrainedPattern q = ParseConstrainedPattern(text).value();
    const ConstrainedMatcher lazy(q);
    const ConstrainedMatcher cached(q, &cache);
    EXPECT_EQ(cache.fallbacks(), 0u) << text;  // frozen-backed
    Rng inner(7);
    for (int k = 0; k < 200; ++k) {
      const std::string s =
          RandomString(inner, q.EmbeddedPattern(), /*noise=*/0.25);
      ASSERT_EQ(cached.Matches(s), lazy.Matches(s)) << text << " " << s;
      Extraction a, b;
      const bool ma = cached.ExtractCanonical(s, &a);
      const bool mb = lazy.ExtractCanonical(s, &b);
      ASSERT_EQ(ma, mb) << text << " " << s;
      ASSERT_EQ(a, b) << text << " " << s;
      ASSERT_EQ(cached.ExtractAll(s), lazy.ExtractAll(s)) << text << " " << s;
    }
  }
}

// Exercised under -DANMAT_SANITIZE=thread: one frozen automaton and one
// cache shared by many threads, probed lock-free with no synchronization
// beyond the cache's own mutex.
TEST(FrozenDfaConcurrencyTest, ConcurrentProbesAreSafe) {
  auto frozen = CompileDfa("\\D{3}\\LU{0,2}a+").Freeze();
  ASSERT_NE(frozen, nullptr);
  AutomatonCache cache;
  const ConstrainedMatcher matcher(
      ParseConstrainedPattern("(\\D{3})!\\D{2}").value(), &cache);
  ASSERT_EQ(cache.fallbacks(), 0u);  // frozen-backed: lock-free probes

  std::vector<std::string> inputs;
  Rng rng(77003);
  const Pattern gen = ParsePattern("\\D{3}\\LU{0,2}a+").value();
  for (int i = 0; i < 200; ++i) {
    inputs.push_back(RandomString(rng, gen, /*noise=*/0.3));
    inputs.push_back(RandomString(rng, ParsePattern("\\D{5}").value(), 0.2));
  }

  constexpr size_t kThreads = 8;
  std::vector<size_t> matches(kThreads, 0);
  std::vector<size_t> prefix_totals(kThreads, 0);
  std::vector<std::thread> threads;
  for (size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      std::vector<uint32_t> scratch;
      for (int round = 0; round < 20; ++round) {
        for (const std::string& s : inputs) {
          if (frozen->Matches(s)) ++matches[t];
          prefix_totals[t] += frozen->ScanPrefixes(s, &scratch);
          if (matcher.Matches(s)) ++matches[t];
          // Concurrent cache lookups must be safe too.
          if (cache.Get(gen) == nullptr) ++matches[t];  // never taken
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
  for (size_t t = 1; t < kThreads; ++t) {
    EXPECT_EQ(matches[t], matches[0]);
    EXPECT_EQ(prefix_totals[t], prefix_totals[0]);
  }
  EXPECT_GT(matches[0], 0u);
}

// ------------------------- dictionary detection vs row-at-a-time oracle

TEST(DetectorDictionaryTest, ByteIdenticalToRowAtATimeReference) {
  // Production matches and extracts once per distinct value (dictionary
  // memos, index, dispatch); the oracle once per row with private lazy
  // automata.
  const Dataset d = ZipCityStateDataset(4000, 91, 0.05);
  // A constant rule and a variable rule over the zip column.
  Tableau constant_tableau;
  TableauRow constant_row;
  constant_row.lhs.push_back(TableauCell::Of(
      ParseConstrainedPattern("(900)!\\D{2}").value()));
  constant_row.rhs.push_back(TableauCell::Of(
      ConstrainedPattern::Unconstrained(LiteralPattern("Los Angeles"))));
  constant_tableau.AddRow(constant_row);
  const Pfd constant_pfd = Pfd::Simple("Zip", "zip", "city", constant_tableau);

  Tableau variable_tableau;
  TableauRow variable_row;
  variable_row.lhs.push_back(TableauCell::Of(
      ParseConstrainedPattern("(\\D{3})!\\D{2}").value()));
  variable_row.rhs.push_back(TableauCell::Wildcard());
  variable_tableau.AddRow(variable_row);
  const Pfd variable_pfd =
      Pfd::Simple("Zip", "zip", "city", variable_tableau);

  const std::vector<Pfd> pfds = {constant_pfd, variable_pfd};
  const DetectionResult reference =
      ReferenceDetectErrors(d.relation, pfds).value();
  ASSERT_GT(reference.violations.size(), 0u)
      << "test must exercise real violations";
  ExpectSameAsReference(DetectErrors(d.relation, pfds).value(), reference,
                        "zip dataset");
}

TEST(ColumnDictionaryTest, PostingsRoundTrip) {
  Relation rel(Schema::MakeText({"city"}).value());
  for (const char* v : {"LA", "NY", "LA", "SF", "NY", "LA"}) {
    ASSERT_TRUE(rel.AppendRow({v}).ok());
  }
  const ColumnDictionary& dict = rel.dictionary(0);
  ASSERT_EQ(dict.num_values(), 3u);
  EXPECT_EQ(dict.value(0), "LA");
  EXPECT_EQ(dict.value(1), "NY");
  EXPECT_EQ(dict.value(2), "SF");
  EXPECT_EQ(dict.rows(0), (std::vector<RowId>{0, 2, 5}));
  EXPECT_EQ(dict.rows(1), (std::vector<RowId>{1, 4}));
  EXPECT_EQ(dict.rows(2), (std::vector<RowId>{3}));
  for (RowId r = 0; r < 6; ++r) {
    EXPECT_EQ(dict.value(dict.value_id(r)), rel.cell(r, 0));
  }
  // Mutation invalidates the cache.
  rel.set_cell(3, 0, "LA");
  EXPECT_EQ(rel.dictionary(0).num_values(), 2u);
}

}  // namespace
}  // namespace anmat
