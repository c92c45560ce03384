// A1 — §3's claim: "For better performance, we create an index supporting
// regular expressions for each column present on the LHS of the PFDs...
// the search for violations will be limited to those tuples that match
// tp[A]."
//
// Content: show prefilter selectivity (candidates vs rows) for a selective
// pattern. Performance: constant-PFD detection (`DetectErrors`: pattern
// index, value dictionaries, dispatch) vs the reference full scan
// (`ReferenceDetectErrors`: every row matched one at a time), across
// dataset sizes — the index should win and the gap should widen with
// selectivity.

#include <benchmark/benchmark.h>

#include <iostream>

#include "bench_util.h"
#include "datagen/datasets.h"
#include "detect/detector.h"
#include "detect/pattern_index.h"
#include "detect/reference_detector.h"
#include "discovery/discovery.h"
#include "pattern/pattern_parser.h"
#include "util/text_table.h"

namespace {

using anmat_bench::Banner;
using anmat_bench::CheckOrDie;

anmat::Pfd SelectivePfd() {
  anmat::Tableau t;
  anmat::TableauRow row;
  row.lhs.push_back(anmat::TableauCell::Of(
      anmat::ParseConstrainedPattern("(900)!\\D{2}").value()));
  row.rhs.push_back(
      anmat::TableauCell::Of(anmat::ConstrainedPattern::Unconstrained(
          anmat::LiteralPattern("Los Angeles"))));
  t.AddRow(row);
  return anmat::Pfd::Simple("Zip", "zip", "city", t);
}

void ReproduceContent() {
  Banner("A1", "pattern index vs scan for constant-PFD detection");
  anmat::Dataset d = anmat::ZipCityStateDataset(50000, 81, 0.02);
  anmat::PatternIndex index(d.relation, 0);
  anmat::Pattern query = anmat::ParsePattern("900\\D{2}").value();
  std::vector<anmat::RowId> hits = index.Lookup(query);
  anmat::TextTable table({"metric", "value"});
  table.AddRow({"rows", std::to_string(d.relation.num_rows())});
  table.AddRow({"index signatures", std::to_string(index.num_signatures())});
  table.AddRow({"index tokens", std::to_string(index.num_tokens())});
  table.AddRow({"candidates after prefilter",
                std::to_string(index.last_candidates())});
  table.AddRow({"verified matches", std::to_string(hits.size())});
  std::cout << table.Render();
  CheckOrDie(!hits.empty(), "the selective pattern has matches");
  CheckOrDie(index.last_candidates() <= d.relation.num_rows(),
             "prefilter produced a subset");

  // Correctness: the index-backed detector and the full scan flag the
  // same violations.
  auto a = anmat::DetectErrors(d.relation, SelectivePfd()).value();
  auto b = anmat::ReferenceDetectErrors(d.relation, {SelectivePfd()}).value();
  CheckOrDie(a.violations.size() == b.violations.size() &&
                 a.stats.candidate_rows == b.stats.candidate_rows,
             "index and full scan agree on violations and candidates");
  for (size_t i = 0; i < a.violations.size(); ++i) {
    CheckOrDie(a.violations[i].cells == b.violations[i].cells &&
                   a.violations[i].explanation == b.violations[i].explanation,
               "index and full scan report identical violations");
  }
  std::cout << "violations found by both strategies: "
            << a.violations.size() << "\n";
}

// The paper's setting: ONE index per LHS column, amortized over the whole
// confirmed rule set (Table 3 has ~20 rules per column). Rules are mined
// once outside the timed region.
std::vector<anmat::Pfd> MineRules(const anmat::Relation& relation) {
  anmat::DiscoveryOptions opts;
  opts.min_coverage = 0.3;
  opts.allowed_violation_ratio = 0.1;
  opts.mine_variable = false;  // constant rules are what the index serves
  auto result = anmat::DiscoverPfds(relation, opts).value();
  std::vector<anmat::Pfd> rules;
  for (const anmat::DiscoveredPfd& p : result.pfds) rules.push_back(p.pfd);
  return rules;
}

void RunDetection(benchmark::State& state, bool use_index) {
  anmat::Dataset d = anmat::ZipCityStateDataset(
      static_cast<size_t>(state.range(0)), 82, 0.02);
  const std::vector<anmat::Pfd> rules = MineRules(d.relation);
  for (auto _ : state) {
    auto result = use_index ? anmat::DetectErrors(d.relation, rules)
                            : anmat::ReferenceDetectErrors(d.relation, rules);
    benchmark::DoNotOptimize(result);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}

void BM_DetectWithIndex(benchmark::State& state) {
  RunDetection(state, true);
}
void BM_DetectWithScan(benchmark::State& state) {
  RunDetection(state, false);
}

BENCHMARK(BM_DetectWithIndex)->Arg(1000)->Arg(10000)->Arg(100000)->Arg(300000);
BENCHMARK(BM_DetectWithScan)->Arg(1000)->Arg(10000)->Arg(100000)->Arg(300000);

// Index construction cost (amortized over the PFD set in practice).
void BM_BuildIndex(benchmark::State& state) {
  anmat::Dataset d = anmat::ZipCityStateDataset(
      static_cast<size_t>(state.range(0)), 83, 0.02);
  for (auto _ : state) {
    anmat::PatternIndex index(d.relation, 0);
    benchmark::DoNotOptimize(index.num_signatures());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_BuildIndex)->Arg(10000)->Arg(100000);

}  // namespace

int main(int argc, char** argv) {
  ReproduceContent();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
