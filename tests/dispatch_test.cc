#include "pattern/multi_pattern_dfa.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "datagen/datasets.h"
#include "datagen/geo.h"
#include "detect/detection_stream.h"
#include "detect/detector.h"
#include "detect/pattern_index.h"
#include "dispatch/dispatch_plan.h"
#include "dispatch/pattern_trie.h"
#include "pattern/automaton_cache.h"
#include "pattern/dfa.h"
#include "pattern/pattern_parser.h"
#include "reference_check.h"
#include "repair/repair.h"
#include "util/random.h"

namespace anmat {
namespace {

Pattern P(const char* text) { return ParsePattern(text).value(); }

/// Draws a random conjunct-free pattern: 1..5 elements mixing literals,
/// classes, bounded repetitions and unbounded quantifiers (the union
/// automaton shares `Dfa`'s elements-only contract, so conjuncts are out of
/// scope — same helper shape as tests/dfa_test.cc).
Pattern RandomPattern(Rng& rng) {
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
      case 0:
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
  return Pattern(std::move(elements));
}

/// A string with a chance of matching `p` (see tests/dfa_test.cc).
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

std::vector<const Pattern*> Pointers(const std::vector<Pattern>& patterns) {
  std::vector<const Pattern*> out;
  for (const Pattern& p : patterns) out.push_back(&p);
  return out;
}

// --------------------------------------------------- targeted union checks

TEST(MultiPatternDfaTest, ClassifiesAgainstEveryMember) {
  const std::vector<Pattern> patterns = {P("\\D{5}"), P("\\D{3}\\A*"),
                                         P("\\LU\\LL+"), P("a{1,3}")};
  MultiPatternDfa dfa(Pointers(patterns));
  EXPECT_EQ(dfa.num_patterns(), 4u);

  std::vector<uint32_t> hits;
  dfa.Classify("90001", &hits);
  EXPECT_EQ(hits, (std::vector<uint32_t>{0, 1}));
  dfa.Classify("900ab", &hits);
  EXPECT_EQ(hits, (std::vector<uint32_t>{1}));
  dfa.Classify("Boyle", &hits);
  EXPECT_EQ(hits, (std::vector<uint32_t>{2}));
  dfa.Classify("aa", &hits);
  EXPECT_EQ(hits, (std::vector<uint32_t>{3}));
  dfa.Classify("zzz", &hits);
  EXPECT_TRUE(hits.empty());
  EXPECT_TRUE(dfa.Matches("90001", 0));
  EXPECT_FALSE(dfa.Matches("90001", 2));
}

TEST(MultiPatternDfaTest, EmptyElementSequenceAcceptsOnlyEpsilon) {
  const std::vector<Pattern> patterns = {Pattern(), P("\\A+")};
  MultiPatternDfa dfa(Pointers(patterns));
  std::vector<uint32_t> hits;
  dfa.Classify("", &hits);
  EXPECT_EQ(hits, (std::vector<uint32_t>{0}));
  dfa.Classify("x", &hits);
  EXPECT_EQ(hits, (std::vector<uint32_t>{1}));
}

TEST(MultiPatternDfaTest, UnionPrefilterIsCommonLiteralOfAllMembers) {
  // Every member guarantees a literal sharing "CHEMBL" — the union folds
  // them to the common substring and rejects values lacking it without a
  // table walk; classification stays exact on values that do contain it.
  const std::vector<Pattern> shared = {P("CHEMBL\\D{1,7}"),
                                       P("xCHEMBL\\D{2}")};
  MultiPatternDfa dfa(Pointers(shared));
  EXPECT_EQ(dfa.prefilter_literal(), "CHEMBL");
  std::vector<uint32_t> hits;
  dfa.Classify("90001", &hits);
  EXPECT_TRUE(hits.empty());
  dfa.Classify("CHEMBL25", &hits);
  EXPECT_EQ(hits, (std::vector<uint32_t>{0}));
  dfa.Classify("xCHEMBL25", &hits);
  EXPECT_EQ(hits, (std::vector<uint32_t>{1}));
  auto frozen = dfa.Freeze();
  ASSERT_NE(frozen, nullptr);
  EXPECT_EQ(frozen->prefilter_literal(), "CHEMBL");
  frozen->Classify("CHEMBL25", &hits);
  EXPECT_EQ(hits, (std::vector<uint32_t>{0}));
  frozen->Classify("90001", &hits);
  EXPECT_TRUE(hits.empty());

  // One member without a guaranteed literal sinks the whole filter.
  const std::vector<Pattern> mixed = {P("CHEMBL\\D{1,7}"), P("\\D{5}")};
  MultiPatternDfa unfiltered(Pointers(mixed));
  EXPECT_EQ(unfiltered.prefilter_literal(), "");
  unfiltered.Classify("90001", &hits);
  EXPECT_EQ(hits, (std::vector<uint32_t>{1}));
}

TEST(MultiPatternDfaTest, FreezeReturnsNullAboveStateCap) {
  const std::vector<Pattern> patterns = {P("\\A{8}a"), P("\\A{6}b")};
  MultiPatternDfa dfa(Pointers(patterns));
  EXPECT_EQ(dfa.Freeze(/*max_states=*/2), nullptr);
  EXPECT_NE(dfa.Freeze(), nullptr);
}

// ------------------------------------------------ randomized differential

TEST(MultiPatternDfaDifferentialTest, MatchesIndependentDfaWalks) {
  Rng rng(20240817);
  for (int round = 0; round < 60; ++round) {
    std::vector<Pattern> patterns;
    const size_t n = 2 + rng.NextBelow(15);
    for (size_t i = 0; i < n; ++i) patterns.push_back(RandomPattern(rng));
    std::vector<Dfa> singles;
    for (const Pattern& p : patterns) singles.push_back(Dfa::Compile(p));

    MultiPatternDfa multi(Pointers(patterns));
    const std::shared_ptr<const FrozenMultiDfa> frozen = multi.Freeze();

    std::vector<uint32_t> hits;
    std::vector<uint32_t> frozen_hits;
    for (int s = 0; s < 40; ++s) {
      const Pattern& target = patterns[rng.NextBelow(patterns.size())];
      const std::string value = RandomString(rng, target, 0.15);
      std::vector<uint32_t> expected;
      for (uint32_t i = 0; i < singles.size(); ++i) {
        if (singles[i].Matches(value)) expected.push_back(i);
      }
      multi.Classify(value, &hits);
      ASSERT_EQ(hits, expected) << "round " << round << " value \"" << value
                                << "\"";
      if (frozen != nullptr) {
        frozen->Classify(value, &frozen_hits);
        ASSERT_EQ(frozen_hits, expected)
            << "frozen, round " << round << " value \"" << value << "\"";
      }
    }
  }
}

// ----------------------------------------------- concurrent frozen probes

TEST(FrozenMultiDfaTest, ConcurrentProbesAreExactAndCounted) {
  // Run under TSan (ANMAT_SANITIZE=thread) to prove the frozen table and
  // its relaxed counters are race-free under concurrent Classify.
  const std::vector<Pattern> patterns = {P("\\D{5}"), P("\\D{3}\\A*"),
                                         P("\\LU\\LL+"), P("\\A*")};
  MultiPatternDfa multi(Pointers(patterns));
  const std::shared_ptr<const FrozenMultiDfa> frozen = multi.Freeze();
  ASSERT_NE(frozen, nullptr);

  std::vector<std::string> values;
  Rng rng(7);
  for (int i = 0; i < 64; ++i) {
    values.push_back(RandomString(rng, patterns[i % patterns.size()], 0.1));
  }
  std::vector<std::vector<uint32_t>> expected(values.size());
  size_t nonempty = 0;
  for (size_t i = 0; i < values.size(); ++i) {
    frozen->Classify(values[i], &expected[i]);
    if (!expected[i].empty()) ++nonempty;
  }
  const uint64_t base_probes = frozen->probes();
  const uint64_t base_hits = frozen->hits();

  constexpr int kThreads = 8;
  constexpr int kRounds = 50;
  std::vector<int> mismatches(kThreads, 0);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      std::vector<uint32_t> hits;
      for (int r = 0; r < kRounds; ++r) {
        for (size_t i = 0; i < values.size(); ++i) {
          frozen->Classify(values[i], &hits);
          if (hits != expected[i]) ++mismatches[t];
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
  for (int t = 0; t < kThreads; ++t) EXPECT_EQ(mismatches[t], 0) << t;
  EXPECT_EQ(frozen->probes() - base_probes,
            static_cast<uint64_t>(kThreads) * kRounds * values.size());
  EXPECT_EQ(frozen->hits() - base_hits,
            static_cast<uint64_t>(kThreads) * kRounds * nonempty);
}

// ----------------------------------------------------------- pattern trie

TEST(PatternTrieTest, GroupsPartitionIdsAndKeepPrefixFamiliesTogether) {
  PatternTrie trie;
  // Three prefix families; family members differ only in a suffix element.
  std::vector<std::string> texts;
  for (const char* prefix : {"900", "606", "100"}) {
    for (const char* suffix : {"\\D{2}", "\\D{3}", "a", "b\\LL*"}) {
      texts.push_back(std::string(prefix) + suffix);
    }
  }
  for (uint32_t id = 0; id < texts.size(); ++id) {
    trie.Insert(id, P(texts[id].c_str()));
  }
  EXPECT_EQ(trie.num_patterns(), texts.size());

  const std::vector<std::vector<uint32_t>> groups = trie.Groups(4);
  std::set<uint32_t> seen;
  for (const std::vector<uint32_t>& g : groups) {
    EXPECT_LE(g.size(), 4u);
    for (uint32_t id : g) EXPECT_TRUE(seen.insert(id).second) << id;
  }
  EXPECT_EQ(seen.size(), texts.size());
  // Each 4-member family fits one group exactly, so no group mixes
  // families (ids 0..3, 4..7, 8..11 share their leading literals).
  for (const std::vector<uint32_t>& g : groups) {
    std::set<uint32_t> families;
    for (uint32_t id : g) families.insert(id / 4);
    EXPECT_EQ(families.size(), 1u);
  }
}

TEST(PatternTrieTest, OversizedFamilySplitsButCoversEveryId) {
  PatternTrie trie;
  for (uint32_t id = 0; id < 23; ++id) {
    std::vector<PatternElement> elements;
    elements.push_back(PatternElement::Literal('x'));
    PatternElement e = PatternElement::Class(SymbolClass::kDigit);
    e.min = e.max = 1 + id;  // distinct bounded repetitions, same prefix
    elements.push_back(e);
    trie.Insert(id, Pattern(std::move(elements)));
  }
  const std::vector<std::vector<uint32_t>> groups = trie.Groups(5);
  size_t total = 0;
  for (const std::vector<uint32_t>& g : groups) {
    EXPECT_LE(g.size(), 5u);
    total += g.size();
  }
  EXPECT_EQ(total, 23u);
}

// ------------------------------------------------- shared union automata

TEST(AutomatonCacheTest, GetUnionCompilesOncePerSignatureSet) {
  AutomatonCache cache;
  const std::vector<Pattern> abc = {P("\\D{5}"), P("\\LU\\LL+"), P("a+")};
  const std::vector<Pattern> cab = {P("a+"), P("\\D{5}"), P("\\LU\\LL+")};

  const UnionAutomaton first = cache.GetUnion(Pointers(abc));
  ASSERT_NE(first.dfa, nullptr);
  const UnionAutomaton second = cache.GetUnion(Pointers(cab));
  // Order-insensitive key: the same frozen table is shared.
  EXPECT_EQ(first.dfa.get(), second.dfa.get());

  // Slot maps translate each caller's order onto the shared automaton.
  for (const auto& [patterns, u] :
       {std::pair(&abc, &first), std::pair(&cab, &second)}) {
    ASSERT_EQ(u->slot_of.size(), patterns->size());
    std::vector<uint32_t> hits;
    u->dfa->Classify("90001", &hits);
    for (size_t i = 0; i < patterns->size(); ++i) {
      const bool expect = Dfa::Compile((*patterns)[i]).Matches("90001");
      const bool got = std::find(hits.begin(), hits.end(), u->slot_of[i]) !=
                       hits.end();
      EXPECT_EQ(got, expect) << i;
    }
  }

  const DispatchStats stats = cache.dispatch_stats();
  EXPECT_EQ(stats.automata, 1u);
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.fallbacks, 0u);
  EXPECT_EQ(stats.total_patterns, 3u);
  EXPECT_GT(stats.total_states, 0u);
  EXPECT_GT(stats.pool_bytes, 0u);
  EXPECT_GT(stats.probes, 0u);
}

TEST(AutomatonCacheTest, UnfreezableUnionNegativelyCached) {
  AutomatonCache cache(/*max_frozen_states=*/2);
  const std::vector<Pattern> patterns = {P("\\A{6}a"), P("\\A{4}b")};
  EXPECT_EQ(cache.GetUnion(Pointers(patterns)).dfa, nullptr);
  EXPECT_EQ(cache.GetUnion(Pointers(patterns)).dfa, nullptr);
  const DispatchStats stats = cache.dispatch_stats();
  EXPECT_EQ(stats.automata, 0u);
  EXPECT_EQ(stats.fallbacks, 1u);
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.hits, 1u);
}

// ---------------------------------------------------- column dispatcher

TEST(ColumnDispatcherTest, PrefilterKeepsVerdictsExact) {
  Rng rng(11);
  Relation rel(Schema::MakeText({"zip"}).value());
  for (int i = 0; i < 400; ++i) {
    const ZipRegion& region = rng.Choose(ZipRegions());
    ASSERT_TRUE(rel.AppendRow({RandomZip(rng, region)}).ok());
  }
  std::vector<Pattern> patterns;
  for (const ZipRegion& region : ZipRegions()) {
    patterns.push_back(P((region.prefix + "\\D{2}").c_str()));
  }
  patterns.push_back(P("\\D{5}"));
  patterns.push_back(P("\\LU\\LL+"));

  AutomatonCache cache;
  PatternIndex index(rel, 0, &cache);
  ColumnDispatcher with;
  ColumnDispatcher without;
  std::vector<uint32_t> slots;
  for (const Pattern& p : patterns) {
    const uint32_t slot = with.AddPattern(p);
    ASSERT_EQ(without.AddPattern(p), slot);
    slots.push_back(slot);
  }
  ASSERT_TRUE(with.Compile(&cache));
  ASSERT_TRUE(without.Compile(&cache));
  const ColumnDictionary& dict = rel.dictionary(0);
  with.ClassifyValues(dict, 0,
                      [&index](const std::vector<const Pattern*>& members,
                               uint32_t first_id) {
                        return index.CandidateValueIds(members, first_id);
                      });
  without.ClassifyValues(dict, 0, /*prefilter=*/nullptr);

  for (size_t i = 0; i < patterns.size(); ++i) {
    const std::vector<int8_t>* a = with.verdicts(slots[i]);
    const std::vector<int8_t>* b = without.verdicts(slots[i]);
    ASSERT_EQ(*a, *b) << "pattern " << i;
    Dfa dfa = Dfa::Compile(patterns[i]);
    for (uint32_t id = 0; id < dict.num_values(); ++id) {
      ASSERT_EQ((*a)[id] != 0, dfa.Matches(dict.value(id)))
          << "pattern " << i << " value " << dict.value(id);
    }
  }
}

// ------------------------------- detector / stream vs the reference oracle

Tableau OneRowTableau(TableauCell lhs, TableauCell rhs) {
  Tableau t;
  TableauRow row;
  row.lhs.push_back(std::move(lhs));
  row.rhs.push_back(std::move(rhs));
  t.AddRow(row);
  return t;
}

/// One constant rule per zip region (prefix -> city) plus a variable rule —
/// a many-rules-per-column workload where dispatch groups by the shared
/// digit-class structure.
std::vector<Pfd> ZipRulePerRegion() {
  std::vector<Pfd> pfds;
  for (const ZipRegion& region : ZipRegions()) {
    const std::string lhs = "(" + region.prefix + ")!\\D{2}";
    pfds.push_back(Pfd::Simple(
        "Zip-" + region.prefix, "zip", "city",
        OneRowTableau(
            TableauCell::Of(ParseConstrainedPattern(lhs.c_str()).value()),
            TableauCell::Of(ConstrainedPattern::Unconstrained(
                LiteralPattern(region.city))))));
  }
  pfds.push_back(Pfd::Simple(
      "Zip-var", "zip", "state",
      OneRowTableau(
          TableauCell::Of(ParseConstrainedPattern("(\\D{3})!\\D{2}").value()),
          TableauCell::Wildcard())));
  return pfds;
}

/// `ZipRulePerRegion` plus a constant rule whose LHS leads with an
/// unbounded class repeat: dispatch excludes that slot up front, so the
/// zip column is only partly covered.
std::vector<Pfd> ZipRulesWithLeadingRepeat() {
  std::vector<Pfd> pfds = ZipRulePerRegion();
  pfds.push_back(Pfd::Simple(
      "Zip-tail", "zip", "state",
      OneRowTableau(
          TableauCell::Of(ParseConstrainedPattern("\\A+(01)!").value()),
          TableauCell::Of(ConstrainedPattern::Unconstrained(
              LiteralPattern("CA"))))));
  return pfds;
}

/// The dispatcher detection builds for the zip column of `pfds` (every
/// rule's single LHS cell is on zip).
ColumnDispatcher ZipDispatcher(const std::vector<Pfd>& pfds,
                               AutomatonCache* cache) {
  ColumnDispatcher cd;
  for (const Pfd& pfd : pfds) {
    cd.AddPattern(pfd.tableau().row(0).lhs[0].pattern().EmbeddedPattern());
  }
  EXPECT_TRUE(cd.Compile(cache));
  return cd;
}

/// One dispatch shape of the zip column: the rules and the freeze cap of
/// the cache they compile through.
struct DispatchShape {
  const char* name;
  std::vector<Pfd> pfds;
  size_t max_frozen_states;
};

/// Fully covered (one union), partly covered (a leading `\A+` slot left to
/// the per-pattern path) and multi-group (a freeze cap the whole union
/// exceeds, so it splits in two, each half classified through the
/// pattern-index prefilter).
std::vector<DispatchShape> DispatchShapes() {
  return {{"fully covered", ZipRulePerRegion(), kDefaultMaxFrozenStates},
          {"partly covered", ZipRulesWithLeadingRepeat(),
           kDefaultMaxFrozenStates},
          {"multi-group", ZipRulePerRegion(), 64}};
}

/// Options compiling through a fresh cache with `shape`'s freeze cap.
DetectorOptions ShapeOptions(const DispatchShape& shape, size_t threads) {
  DetectorOptions options;
  options.automata = std::make_shared<AutomatonCache>(shape.max_frozen_states);
  options.execution.num_threads = threads;
  return options;
}

TEST(DispatchDetectorTest, ShapesCoverWhatTheyClaim) {
  const std::vector<DispatchShape> shapes = DispatchShapes();
  AutomatonCache full_cache(shapes[0].max_frozen_states);
  const ColumnDispatcher full = ZipDispatcher(shapes[0].pfds, &full_cache);
  EXPECT_TRUE(full.fully_covered());
  EXPECT_EQ(full.num_groups(), 1u);
  AutomatonCache part_cache(shapes[1].max_frozen_states);
  const ColumnDispatcher part = ZipDispatcher(shapes[1].pfds, &part_cache);
  EXPECT_FALSE(part.fully_covered());
  EXPECT_EQ(part.num_groups(), 1u);
  AutomatonCache multi_cache(shapes[2].max_frozen_states);
  const ColumnDispatcher multi = ZipDispatcher(shapes[2].pfds, &multi_cache);
  EXPECT_TRUE(multi.fully_covered());
  EXPECT_GT(multi.num_groups(), 1u);
}

TEST(DispatchDetectorTest, MatchesReferenceAtAnyThreadCount) {
  const Dataset d = ZipCityStateDataset(3000, 77, 0.05);
  for (const DispatchShape& shape : DispatchShapes()) {
    const DetectionResult reference =
        ReferenceDetectErrors(d.relation, shape.pfds).value();
    ASSERT_GT(reference.violations.size(), 0u)
        << "test must exercise real violations";
    for (const size_t threads : {size_t{1}, size_t{2}, size_t{4}}) {
      const DetectorOptions options = ShapeOptions(shape, threads);
      const auto result = DetectErrors(d.relation, shape.pfds, options);
      ASSERT_TRUE(result.ok());
      ExpectSameAsReference(result.value(), reference,
                            std::string(shape.name) + ", " +
                                std::to_string(threads) + " threads");
      // The union tables were actually consulted.
      EXPECT_GT(options.automata->dispatch_stats().probes, 0u)
          << shape.name << ", " << threads << " threads";
    }
  }
}

TEST(DispatchDetectorTest, ForcedFallbackMatchesReference) {
  // A three-state freeze cap leaves every pattern and union unfreezable:
  // matchers fall back to private lazy automata, dispatch to the
  // per-pattern path, and each parallel task re-resolves its row.
  const Dataset d = ZipCityStateDataset(1500, 78, 0.05);
  const std::vector<Pfd> pfds = ZipRulesWithLeadingRepeat();
  DetectorOptions options;
  options.automata = std::make_shared<AutomatonCache>(3);
  options.execution.num_threads = 4;
  ExpectDetectMatchesReference(d.relation, pfds, options, "forced fallback");
  EXPECT_GT(options.automata->fallbacks(), 0u);
  EXPECT_EQ(options.automata->dispatch_stats().probes, 0u);

  // The repair loop reuses those rows across passes; it must match the
  // default-cache run cell for cell.
  Relation fallback_relation = d.relation;
  RepairOptions fallback;
  fallback.detector = options;
  const RepairResult a =
      RepairErrors(&fallback_relation, pfds, fallback).value();
  Relation default_relation = d.relation;
  const RepairResult b = RepairErrors(&default_relation, pfds).value();
  ASSERT_EQ(a.repairs.size(), b.repairs.size());
  ASSERT_GT(a.repairs.size(), 0u);
  for (size_t i = 0; i < a.repairs.size(); ++i) {
    EXPECT_EQ(a.repairs[i].cell, b.repairs[i].cell);
    EXPECT_EQ(a.repairs[i].after, b.repairs[i].after);
  }
  ExpectSameAsReference(a.final_detection,
                        ReferenceDetectErrors(fallback_relation, pfds).value(),
                        "forced fallback, after repair");
}

TEST(DispatchDetectorTest, RepeatedRunsCompileUnionsOnce) {
  const Dataset d = ZipCityStateDataset(500, 5, 0.05);
  const std::vector<Pfd> pfds = ZipRulePerRegion();
  DetectorOptions options;
  options.automata = std::make_shared<AutomatonCache>();
  for (int pass = 0; pass < 3; ++pass) {
    ASSERT_TRUE(DetectErrors(d.relation, pfds, options).ok());
  }
  const DispatchStats stats = options.automata->dispatch_stats();
  // One compile per distinct signature set over the engine lifetime; the
  // second and third passes only hit.
  EXPECT_GT(stats.automata, 0u);
  EXPECT_EQ(stats.misses, stats.automata + stats.fallbacks);
  EXPECT_GE(stats.hits, 2 * stats.automata);
}

/// Feeds `relation` to `stream` in `batch`-row batches and checks the
/// cumulative result after every batch against the oracle over the
/// stream's relation (the dirty prefix, or the cleaned one when the stream
/// cleans on ingest).
void FeedAndCheckAgainstReference(DetectionStream& stream,
                                  const Relation& relation, size_t batch,
                                  const std::string& label) {
  for (size_t first = 0; first < relation.num_rows(); first += batch) {
    const size_t end = std::min(first + batch, relation.num_rows());
    const auto result = stream.AppendBatch(
        relation.Slice(static_cast<RowId>(first), static_cast<RowId>(end))
            .value());
    ASSERT_TRUE(result.ok());
    ExpectSameAsReference(
        result.value(),
        ReferenceDetectErrors(stream.relation(), stream.pfds()).value(),
        label + ", rows [0, " + std::to_string(end) + ")");
  }
}

TEST(DispatchStreamTest, MatchesReferenceAfterEveryBatch) {
  const Dataset d = ZipCityStateDataset(1200, 33, 0.05);
  for (const DispatchShape& shape : DispatchShapes()) {
    const DetectorOptions options = ShapeOptions(shape, 2);
    auto stream = DetectionStream::Open(d.relation.schema(), shape.pfds,
                                        options);
    ASSERT_TRUE(stream.ok()) << stream.status().message();
    FeedAndCheckAgainstReference(*stream.value(), d.relation, 300,
                                 shape.name);
    // The per-batch combined scans consulted the shared tables.
    EXPECT_GT(options.automata->dispatch_stats().probes, 0u) << shape.name;
  }
}

TEST(DispatchStreamTest, CleanOnIngestMatchesReferenceOverCleanedRows) {
  const Dataset d = ZipCityStateDataset(900, 57, 0.08);
  for (const DispatchShape& shape : DispatchShapes()) {
    auto stream = DetectionStream::Open(d.relation.schema(), shape.pfds,
                                        ShapeOptions(shape, 2));
    ASSERT_TRUE(stream.ok()) << stream.status().message();
    stream.value()->set_clean_on_ingest(true);
    FeedAndCheckAgainstReference(*stream.value(), d.relation, 150,
                                 shape.name);
    // The workload has errors, so real repairs were applied.
    EXPECT_GT(stream.value()->repairs().size(), 0u) << shape.name;
  }
}

}  // namespace
}  // namespace anmat
