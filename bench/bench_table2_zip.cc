// T2 — Table 2 of the paper: the 4-row Zip table, λ3 (constant) and λ5
// (variable), and the s4[city] error both detect.

#include <benchmark/benchmark.h>

#include <iostream>

#include "anmat/report.h"
#include "bench_util.h"
#include "datagen/datasets.h"
#include "detect/detector.h"
#include "pattern/containment.h"
#include "pattern/pattern_parser.h"

namespace {

using anmat_bench::Banner;
using anmat_bench::CheckOrDie;

anmat::Pfd Lambda3() {
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

anmat::Pfd Lambda5() {
  anmat::Tableau t;
  anmat::TableauRow row;
  row.lhs.push_back(anmat::TableauCell::Of(
      anmat::ParseConstrainedPattern("(\\D{3})!\\D{2}").value()));
  row.rhs.push_back(anmat::TableauCell::Wildcard());
  t.AddRow(row);
  return anmat::Pfd::Simple("Zip", "zip", "city", t);
}

void ReproduceContent() {
  Banner("T2", "Table 2 (Zip table): lambda3/lambda5 detect s4[city]");
  anmat::Dataset d = anmat::PaperZipTable();
  std::cout << d.relation.ToString() << "\n";

  // λ3 and λ5 detections.
  auto r3 = anmat::DetectErrors(d.relation, Lambda3()).value();
  CheckOrDie(r3.violations.size() == 1 && r3.violations[0].suspect.row == 3 &&
                 r3.violations[0].suggested_repair == "Los Angeles",
             "lambda3 flags s4[city] and suggests Los Angeles");
  auto r5 = anmat::DetectErrors(d.relation, Lambda5()).value();
  CheckOrDie(r5.violations.size() == 1 && r5.violations[0].cells.size() == 4,
             "lambda5 flags the pair violation on s4");
  std::cout << "lambda3: " << r3.violations[0].explanation << "\n";
  std::cout << "lambda5: " << r5.violations[0].explanation << "\n";

  // Example 1's containment facts: 90001 ↦ \D{5} ⊆ \D*.
  CheckOrDie(anmat::PatternContains(anmat::ParsePattern("\\D*").value(),
                                    anmat::ParsePattern("\\D{5}").value()),
             "P1 = \\D{5} is contained in P2 = \\D*");

  // Discovery re-finds both rule shapes from the dirty toy table.
  // The 4-row toy table has a single key group ("900"); the usual guard
  // demanding two independently-tested groups would reject λ5 here.
  anmat::DiscoveryOptions options;
  options.variable_miner.min_multi_groups = 1;
  const std::vector<anmat::DiscoveredPfd> discovered =
      anmat_bench::DiscoverOrDie(d.relation, "Zip", 0.5, 0.3, options);
  std::cout << "\n" << anmat::RenderDiscoveredPfdsView(discovered);
  bool constant_rule = false;
  bool variable_rule = false;
  for (const anmat::DiscoveredPfd& p : discovered) {
    if (p.pfd.IsConstant() &&
        p.pfd.ToString().find("Los\\ Angeles") != std::string::npos) {
      constant_rule = true;
    }
    if (p.pfd.HasVariableRows()) variable_rule = true;
  }
  CheckOrDie(constant_rule, "lambda3-style constant rule discovered");
  CheckOrDie(variable_rule, "lambda5-style variable rule discovered");
}

void BM_DetectLambda3(benchmark::State& state) {
  anmat::Dataset d = anmat::ZipCityStateDataset(
      static_cast<size_t>(state.range(0)), 2, 0.02);
  anmat::Pfd pfd = Lambda3();
  for (auto _ : state) {
    auto result = anmat::DetectErrors(d.relation, pfd);
    benchmark::DoNotOptimize(result);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_DetectLambda3)->Arg(1000)->Arg(10000)->Arg(100000);

void BM_DetectLambda5(benchmark::State& state) {
  anmat::Dataset d = anmat::ZipCityStateDataset(
      static_cast<size_t>(state.range(0)), 2, 0.02);
  anmat::Pfd pfd = Lambda5();
  for (auto _ : state) {
    auto result = anmat::DetectErrors(d.relation, pfd);
    benchmark::DoNotOptimize(result);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_DetectLambda5)->Arg(1000)->Arg(10000)->Arg(100000);

}  // namespace

int main(int argc, char** argv) {
  ReproduceContent();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
