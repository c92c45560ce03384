// A6 — lazy-DFA matching engine vs the NFA reference, and value-dictionary
// detection vs the per-row reference detector.
//
// The NFA simulation (nfa.cc) allocates/sorts/epsilon-closes a state set per
// input character; the lazy DFA (dfa.h) compresses the byte alphabet into
// symbol classes and memoizes subset construction, so a match is one table
// lookup per byte. The engine-wide AutomatonCache (automaton_cache.h)
// compiles each distinct pattern exactly once and hands every matcher a
// private copy, so repeated detect/repair runs amortize all compilation.
// The column value dictionary (relation.h) lets detection match each
// *distinct* value once instead of once per row, as `ReferenceDetectErrors`
// does.
//
// Content: match throughput (values/sec) for NFA vs lazy DFA on the
// synthetic code/phone/zip generators (DFA expected >= 5x NFA),
// matcher-construction amortization (a cached copy vs a compile each
// time), wall-clock constant-rule detection on a duplicate-heavy column,
// production vs the row-at-a-time reference, and repeated detection with a
// shared automaton cache vs a private cache per call.
// Performance: the same comparisons as google-benchmark timings (JSON via
// --benchmark_out=FILE --benchmark_out_format=json; tools/bench.sh writes
// BENCH_A6.json). ANMAT_BENCH_QUICK=1 shrinks workloads (CI smoke).

#include <benchmark/benchmark.h>

#include <chrono>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "bench_util.h"
#include "datagen/datasets.h"
#include "datagen/geo.h"
#include "detect/detector.h"
#include "detect/reference_detector.h"
#include "pattern/automaton_cache.h"
#include "pattern/dfa.h"
#include "pattern/matcher.h"
#include "pattern/nfa.h"
#include "pattern/pattern_parser.h"
#include "pfd/pfd.h"
#include "util/random.h"
#include "util/text_table.h"

namespace {

using anmat_bench::Banner;
using anmat_bench::CheckOrDie;
using anmat_bench::Sized;

struct MatchWorkload {
  std::string name;
  std::string pattern;
  std::vector<std::string> values;
};

std::vector<MatchWorkload> MatchWorkloads(size_t rows) {
  std::vector<MatchWorkload> workloads;
  {
    MatchWorkload w;
    w.name = "zip";
    w.pattern = "\\D{5}";
    const anmat::Dataset d = anmat::ZipCityStateDataset(rows, 61, 0.02);
    w.values.assign(d.relation.column(0).begin(),
                    d.relation.column(0).end());
    workloads.push_back(std::move(w));
  }
  {
    MatchWorkload w;
    w.name = "phone";
    w.pattern = "\\D{10}";
    const anmat::Dataset d = anmat::PhoneStateDataset(rows, 62, 0.02);
    w.values.assign(d.relation.column(0).begin(),
                    d.relation.column(0).end());
    workloads.push_back(std::move(w));
  }
  {
    MatchWorkload w;
    w.name = "code";
    w.pattern = "CHEMBL\\D{1,7}";
    const anmat::Dataset d = anmat::CompoundDataset(rows, 63, 0.02);
    w.values.assign(d.relation.column(0).begin(),
                    d.relation.column(0).end());
    workloads.push_back(std::move(w));
  }
  return workloads;
}

/// A duplicate-heavy (zip, city, state) relation: `rows` rows drawn from a
/// pool of `pool` distinct tuples — the regime real columns live in.
anmat::Relation DuplicateHeavyRelation(size_t rows, size_t pool,
                                       uint64_t seed) {
  const anmat::Dataset base = anmat::ZipCityStateDataset(pool, seed, 0.0);
  anmat::RelationBuilder builder(base.relation.schema());
  anmat::Rng rng(seed + 1);
  for (size_t i = 0; i < rows; ++i) {
    const anmat::RowId r =
        static_cast<anmat::RowId>(rng.NextBelow(base.relation.num_rows()));
    std::vector<std::string> cells = base.relation.Row(r);
    // Sprinkle RHS disagreements so variable rows emit violations.
    if (rng.NextBool(0.01)) cells[1] = "Mistyped City";
    builder.AddRow(std::move(cells)).ok();
  }
  return builder.Build();
}

anmat::Pfd ZipVariablePfd() {
  anmat::Tableau t;
  anmat::TableauRow row;
  row.lhs.push_back(anmat::TableauCell::Of(
      anmat::ParseConstrainedPattern("(\\D{3})!\\D{2}").value()));
  row.rhs.push_back(anmat::TableauCell::Wildcard());
  t.AddRow(row);
  return anmat::Pfd::Simple("Zip", "zip", "city", t);
}

/// One constant row per zip region: "(<prefix>)!\D{2}" determines the
/// region's city.
anmat::Pfd ZipConstantPfd() {
  anmat::Tableau t;
  for (const anmat::ZipRegion& region : anmat::ZipRegions()) {
    anmat::TableauRow row;
    row.lhs.push_back(anmat::TableauCell::Of(
        anmat::ParseConstrainedPattern("(" + region.prefix + ")!\\D{2}")
            .value()));
    row.rhs.push_back(
        anmat::TableauCell::Of(anmat::ConstrainedPattern::Unconstrained(
            anmat::LiteralPattern(region.city))));
    t.AddRow(row);
  }
  return anmat::Pfd::Simple("Zip", "zip", "city", t);
}

double SecondsSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

void ReproduceContent() {
  Banner("A6", "lazy-DFA vs NFA; cached automata; value-dictionary detection");
  const double window = anmat_bench::QuickMode() ? 0.1 : 0.5;

  // ---- match throughput, values/sec: NFA vs lazy DFA ----
  anmat::TextTable table({"workload", "pattern", "NFA values/s",
                          "DFA values/s", "DFA/NFA"});
  const std::vector<MatchWorkload> workloads =
      MatchWorkloads(Sized(20000, 4000));
  for (const MatchWorkload& w : workloads) {
    const anmat::Pattern p = anmat::ParsePattern(w.pattern).value();
    const anmat::Nfa nfa = anmat::Nfa::Compile(p);
    const anmat::PatternMatcher dfa(p);

    // Correctness first: both engines must agree on every value.
    size_t per_pass_nfa = 0, per_pass_dfa = 0;
    for (const std::string& v : w.values) {
      per_pass_nfa += nfa.Matches(v);
      per_pass_dfa += dfa.Matches(v);
    }
    CheckOrDie(per_pass_nfa > 0, w.name + ": workload has matching values");
    CheckOrDie(per_pass_nfa == per_pass_dfa,
               w.name + ": NFA and DFA agree on the match count");

    // Repeat passes until each side has run for a measurable window.
    const auto throughput = [&](auto&& matches_fn) {
      size_t matches = 0, values = 0;
      auto start = std::chrono::steady_clock::now();
      double secs = 0;
      while ((secs = SecondsSince(start)) < window) {
        for (const std::string& v : w.values) matches += matches_fn(v);
        values += w.values.size();
      }
      benchmark::DoNotOptimize(matches);
      return values / secs;
    };
    const double nfa_tput =
        throughput([&](const std::string& v) { return nfa.Matches(v); });
    const double dfa_tput =
        throughput([&](const std::string& v) { return dfa.Matches(v); });
    const double speedup = dfa_tput / nfa_tput;
    table.AddRow({w.name, w.pattern, std::to_string(size_t(nfa_tput)),
                  std::to_string(size_t(dfa_tput)), std::to_string(speedup)});
    CheckOrDie(speedup >= 5.0,
               w.name + ": DFA is >=5x the NFA match throughput");
  }
  std::cout << table.Render();

  // ---- compile-once amortization: matcher construction cost ----
  {
    const anmat::Pattern p =
        anmat::ParsePattern("CHEMBL\\D{1,7}").value();
    const size_t kCompiles = Sized(20000, 2000);
    auto start = std::chrono::steady_clock::now();
    for (size_t i = 0; i < kCompiles; ++i) {
      anmat::PatternMatcher m(p);
      benchmark::DoNotOptimize(m);
    }
    const double lazy_secs = SecondsSince(start);
    anmat::AutomatonCache compile_cache;
    start = std::chrono::steady_clock::now();
    for (size_t i = 0; i < kCompiles; ++i) {
      anmat::PatternMatcher m(p, &compile_cache);
      benchmark::DoNotOptimize(m);
    }
    const double cached_secs = SecondsSince(start);
    anmat::TextTable ctable(
        {"mode", "constructions", "seconds", "per construction (us)"});
    ctable.AddRow({"lazy (compile each)", std::to_string(kCompiles),
                   std::to_string(lazy_secs),
                   std::to_string(1e6 * lazy_secs / kCompiles)});
    ctable.AddRow({"cached (copy of one compile)", std::to_string(kCompiles),
                   std::to_string(cached_secs),
                   std::to_string(1e6 * cached_secs / kCompiles)});
    std::cout << ctable.Render();
    std::cout << "compile amortization: " << lazy_secs / cached_secs
              << "x (cache: " << compile_cache.misses() << " compiles, "
              << compile_cache.hits() << " hits)\n";
    CheckOrDie(compile_cache.misses() == 1,
               "the cache compiled the pattern exactly once");
    CheckOrDie(cached_secs < lazy_secs,
               "cached matcher construction amortizes compilation");
  }

  // ---- detection on a duplicate-heavy column, dictionary vs per row ----
  const anmat::Relation rel =
      DuplicateHeavyRelation(Sized(200000, 20000), 1000, 71);
  const std::vector<anmat::Pfd> constant_rules = {ZipConstantPfd()};

  auto start = std::chrono::steady_clock::now();
  const auto on = anmat::DetectErrors(rel, constant_rules).value();
  const double on_secs = SecondsSince(start);
  start = std::chrono::steady_clock::now();
  const auto off = anmat::ReferenceDetectErrors(rel, constant_rules).value();
  const double off_secs = SecondsSince(start);

  anmat::TextTable dtable({"mode", "violations", "seconds", "rows/s"});
  dtable.AddRow({"dictionary (DetectErrors)",
                 std::to_string(on.violations.size()),
                 std::to_string(on_secs),
                 std::to_string(size_t(rel.num_rows() / on_secs))});
  dtable.AddRow({"per row (reference)", std::to_string(off.violations.size()),
                 std::to_string(off_secs),
                 std::to_string(size_t(rel.num_rows() / off_secs))});
  std::cout << dtable.Render();
  bool same = on.violations.size() == off.violations.size();
  for (size_t i = 0; same && i < on.violations.size(); ++i) {
    same = on.violations[i].cells == off.violations[i].cells &&
           on.violations[i].explanation == off.violations[i].explanation;
  }
  CheckOrDie(same, "dictionary and per-row detection find the same "
                   "violations");
  CheckOrDie(!on.violations.empty(), "the workload produced violations");
  CheckOrDie(on_secs < off_secs,
             "dictionary detection is faster on a duplicate-heavy column");
  std::cout << "dictionary speedup: " << off_secs / on_secs << "x\n";

  // ---- repeated detection with a shared automaton cache ----
  // The repair fixpoint loop and every engine stage re-detect over the
  // same rules; with the engine-wide cache they stop recompiling automata.
  // Without one, each call compiles into a private cache of its own.
  {
    const size_t kRuns = 5;
    const anmat::Pfd pfd = ZipVariablePfd();
    anmat::DetectorOptions uncached;
    auto start = std::chrono::steady_clock::now();
    size_t uncached_violations = 0;
    for (size_t i = 0; i < kRuns; ++i) {
      uncached_violations =
          anmat::DetectErrors(rel, pfd, uncached).value().violations.size();
    }
    const double uncached_secs = SecondsSince(start);

    anmat::DetectorOptions cached;
    cached.automata = std::make_shared<anmat::AutomatonCache>();
    start = std::chrono::steady_clock::now();
    size_t cached_violations = 0;
    for (size_t i = 0; i < kRuns; ++i) {
      cached_violations =
          anmat::DetectErrors(rel, pfd, cached).value().violations.size();
    }
    const double cached_secs = SecondsSince(start);

    CheckOrDie(cached_violations == uncached_violations,
               "shared and per-call caches find the same violations");
    std::cout << "repeated detection (" << kRuns
              << " runs): per-call cache " << uncached_secs << "s, shared "
              << cached_secs << "s, speedup "
              << uncached_secs / cached_secs << "x, cache "
              << cached.automata->misses() << " compiles / "
              << cached.automata->hits() << " hits\n";
    CheckOrDie(cached.automata->misses() <= cached.automata->hits(),
               "repeated runs are answered from the cache");
  }
}

// ---- google-benchmark timings (same JSON shape as the other benches) ----

void BM_NfaMatch(benchmark::State& state) {
  const std::vector<MatchWorkload> workloads = MatchWorkloads(10000);
  const MatchWorkload& w = workloads[static_cast<size_t>(state.range(0))];
  const anmat::Nfa nfa =
      anmat::Nfa::Compile(anmat::ParsePattern(w.pattern).value());
  for (auto _ : state) {
    size_t matches = 0;
    for (const std::string& v : w.values) matches += nfa.Matches(v);
    benchmark::DoNotOptimize(matches);
  }
  state.SetItemsProcessed(state.iterations() * w.values.size());
  state.SetLabel(w.name);
}

void BM_DfaMatch(benchmark::State& state) {
  const std::vector<MatchWorkload> workloads = MatchWorkloads(10000);
  const MatchWorkload& w = workloads[static_cast<size_t>(state.range(0))];
  const anmat::PatternMatcher matcher(anmat::ParsePattern(w.pattern).value());
  for (auto _ : state) {
    size_t matches = 0;
    for (const std::string& v : w.values) matches += matcher.Matches(v);
    benchmark::DoNotOptimize(matches);
  }
  state.SetItemsProcessed(state.iterations() * w.values.size());
  state.SetLabel(w.name);
}

// 0 = zip, 1 = phone, 2 = code.
BENCHMARK(BM_NfaMatch)->Arg(0)->Arg(1)->Arg(2);
BENCHMARK(BM_DfaMatch)->Arg(0)->Arg(1)->Arg(2);

void BM_MatcherCompileLazy(benchmark::State& state) {
  const anmat::Pattern p = anmat::ParsePattern("CHEMBL\\D{1,7}").value();
  for (auto _ : state) {
    anmat::PatternMatcher m(p);
    benchmark::DoNotOptimize(m);
  }
  state.SetItemsProcessed(state.iterations());
}

void BM_MatcherCompileCached(benchmark::State& state) {
  const anmat::Pattern p = anmat::ParsePattern("CHEMBL\\D{1,7}").value();
  anmat::AutomatonCache cache;
  for (auto _ : state) {
    anmat::PatternMatcher m(p, &cache);
    benchmark::DoNotOptimize(m);
  }
  state.SetItemsProcessed(state.iterations());
}

BENCHMARK(BM_MatcherCompileLazy);
BENCHMARK(BM_MatcherCompileCached);

void RunDetectBench(benchmark::State& state, bool reference,
                    bool use_automaton_cache = false) {
  const anmat::Relation rel = DuplicateHeavyRelation(
      static_cast<size_t>(state.range(0)), 1000, 72);
  const std::vector<anmat::Pfd> rules = {ZipConstantPfd()};
  anmat::DetectorOptions opts;
  if (use_automaton_cache) {
    opts.automata = std::make_shared<anmat::AutomatonCache>();
  }
  for (auto _ : state) {
    auto result = reference ? anmat::ReferenceDetectErrors(rel, rules)
                            : anmat::DetectErrors(rel, rules, opts);
    benchmark::DoNotOptimize(result);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}

void BM_DetectDictionary(benchmark::State& state) {
  RunDetectBench(state, false);
}
void BM_DetectReferencePerRow(benchmark::State& state) {
  RunDetectBench(state, true);
}
void BM_DetectCachedAutomata(benchmark::State& state) {
  RunDetectBench(state, false, /*use_automaton_cache=*/true);
}

BENCHMARK(BM_DetectDictionary)->Arg(10000)->Arg(100000);
BENCHMARK(BM_DetectReferencePerRow)->Arg(10000)->Arg(100000);
BENCHMARK(BM_DetectCachedAutomata)->Arg(10000)->Arg(100000);

}  // namespace

int main(int argc, char** argv) {
  ReproduceContent();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
