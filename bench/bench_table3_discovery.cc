// T3 — Table 3 of the paper: discovered PFDs and detected errors on the
// demo datasets:
//   D1  phone  -> state   (850->FL, 607->NY, 404->GA, 217->IL, 860->CT)
//   D2  name   -> gender  (\A*,\ Donald\A* -> M, ...)
//   D5  zip    -> city    (6060\D -> Chicago) and zip -> state (60\D{3}->IL)
//
// Content reproduction: run discovery+detection on synthetic substitutes
// with the same structure and print the Table-3 style rows (pattern tableau
// + an example detected error "value | wrong-rhs"). Performance: end-to-end
// discovery+detection per dataset.

#include <benchmark/benchmark.h>

#include <iostream>

#include "anmat/report.h"
#include "bench_util.h"
#include "datagen/datasets.h"

namespace {

using anmat_bench::Banner;
using anmat_bench::CheckOrDie;

struct RunResult {
  std::vector<anmat::Pfd> rules;
  anmat::DetectionResult detection;
  anmat::Relation relation;
};

/// Discovers on `dataset`, confirms every rule and detects with them.
RunResult RunPipeline(const anmat::Dataset& dataset, double min_coverage,
                      double allowed_violations) {
  std::vector<anmat::Pfd> rules = anmat_bench::RulesOf(
      anmat_bench::DiscoverOrDie(dataset.relation, dataset.name,
                                 min_coverage, allowed_violations));
  auto detection = anmat::Engine().Detect(dataset.relation, rules);
  CheckOrDie(detection.ok(), "detect " + dataset.name);
  return RunResult{std::move(rules), std::move(detection).value(),
                   dataset.relation};
}

bool RulesMention(const std::vector<anmat::Pfd>& rules,
                  const std::string& lhs_fragment,
                  const std::string& rhs_fragment) {
  for (const anmat::Pfd& pfd : rules) {
    const std::string text = pfd.ToString();
    if (text.find(lhs_fragment) != std::string::npos &&
        text.find(rhs_fragment) != std::string::npos) {
      return true;
    }
  }
  return false;
}

void ReproduceContent() {
  Banner("T3", "Table 3: discovered PFDs and detected errors (D1, D2, D5)");

  // ---- D1: phone -> state ------------------------------------------------
  anmat::Dataset d1 = anmat::PhoneStateDataset(4000, 31, 0.03);
  RunResult r1 = RunPipeline(d1, 0.4, 0.1);
  std::cout << "D1 (Phone Number -> State):\n"
            << anmat::RenderTable3Style(r1.relation, r1.rules, r1.detection)
            << "\n";
  // The paper's five area-code rows must all be discovered.
  for (const auto& [code, st] :
       std::vector<std::pair<std::string, std::string>>{
           {"850", "FL"}, {"607", "NY"}, {"404", "GA"}, {"217", "IL"},
           {"860", "CT"}}) {
    CheckOrDie(RulesMention(r1.rules, code, st),
               "D1 rule " + code + "\\D{7} -> " + st + " discovered");
  }
  CheckOrDie(!r1.detection.violations.empty(), "D1 errors detected");

  // ---- D2: full name -> gender -------------------------------------------
  anmat::Dataset d2 = anmat::NameGenderDataset(4000, 32, 0.03);
  RunResult r2 = RunPipeline(d2, 0.4, 0.12);
  std::cout << "D2 (Full Name -> Gender):\n"
            << anmat::RenderTable3Style(r2.relation, r2.rules, r2.detection)
            << "\n";
  // The paper's first-name rows (Donald->M, Stacey->F, David->M, ...).
  CheckOrDie(RulesMention(r2.rules, "Donald", "M"),
             "D2 rule ...Donald... -> M discovered");
  CheckOrDie(RulesMention(r2.rules, "Stacey", "F"),
             "D2 rule ...Stacey... -> F discovered");
  CheckOrDie(!r2.detection.violations.empty(), "D2 errors detected");

  // ---- D5: zip -> city and zip -> state -----------------------------------
  anmat::Dataset d5 = anmat::ZipCityStateDataset(4000, 33, 0.03);
  RunResult r5 = RunPipeline(d5, 0.3, 0.1);
  std::cout << "D5 (ZIP -> CITY, ZIP -> STATE):\n"
            << anmat::RenderTable3Style(r5.relation, r5.rules, r5.detection)
            << "\n";
  CheckOrDie(RulesMention(r5.rules, "606", "Chicago"),
             "D5 rule 606xx -> Chicago discovered");
  CheckOrDie(RulesMention(r5.rules, "606", "IL") ||
                 RulesMention(r5.rules, "60", "IL"),
             "D5 rule 60xxx -> IL discovered");
  CheckOrDie(RulesMention(r5.rules, "900", "CA") ||
                 RulesMention(r5.rules, "90", "CA"),
             "D5 rule 9xxxx -> CA discovered");
  CheckOrDie(!r5.detection.violations.empty(), "D5 errors detected");
}

void BM_EndToEnd(benchmark::State& state, int which) {
  anmat::Dataset d =
      which == 0
          ? anmat::PhoneStateDataset(static_cast<size_t>(state.range(0)), 31,
                                     0.03)
          : which == 1 ? anmat::NameGenderDataset(
                             static_cast<size_t>(state.range(0)), 32, 0.03)
                       : anmat::ZipCityStateDataset(
                             static_cast<size_t>(state.range(0)), 33, 0.03);
  for (auto _ : state) {
    anmat::Engine engine;
    anmat::DiscoveryOptions options;
    options.table_name = "bench";
    options.min_coverage = 0.4;
    options.allowed_violation_ratio = 0.12;
    auto discovery = engine.Discover(d.relation, options);
    benchmark::DoNotOptimize(discovery);
    if (!discovery.ok()) continue;
    benchmark::DoNotOptimize(
        engine.Detect(d.relation, anmat_bench::RulesOf(discovery->pfds)));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}

void BM_D1_PhoneState(benchmark::State& state) { BM_EndToEnd(state, 0); }
void BM_D2_NameGender(benchmark::State& state) { BM_EndToEnd(state, 1); }
void BM_D5_ZipCityState(benchmark::State& state) { BM_EndToEnd(state, 2); }

BENCHMARK(BM_D1_PhoneState)->Arg(1000)->Arg(4000);
BENCHMARK(BM_D2_NameGender)->Arg(1000)->Arg(4000);
BENCHMARK(BM_D5_ZipCityState)->Arg(1000)->Arg(4000);

}  // namespace

int main(int argc, char** argv) {
  ReproduceContent();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
