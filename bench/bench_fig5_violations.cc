// F5 — Figure 5 of the paper: the violations view ("Detecting Errors using
// PFDs"), showing reported violations for Full Name → Gender with the
// violated rule and the full violating records. Content: reproduce the view
// on the D2 substitute. Performance: detection + rendering throughput.

#include <benchmark/benchmark.h>

#include <iostream>

#include "anmat/report.h"
#include "bench_util.h"
#include "datagen/datasets.h"

namespace {

using anmat_bench::Banner;
using anmat_bench::CheckOrDie;

/// A D2 table with every rule discovered on it confirmed.
struct ConfirmedD2 {
  anmat::Relation relation;
  std::vector<anmat::Pfd> rules;
};

ConfirmedD2 DiscoverD2(size_t rows, uint64_t seed) {
  anmat::Dataset d = anmat::NameGenderDataset(rows, seed, 0.03);
  std::vector<anmat::Pfd> rules = anmat_bench::RulesOf(
      anmat_bench::DiscoverOrDie(d.relation, "D2", 0.4, 0.12));
  return ConfirmedD2{std::move(d.relation), std::move(rules)};
}

anmat::DetectionResult DetectOrDie(const ConfirmedD2& d) {
  auto detection = anmat::Engine().Detect(d.relation, d.rules);
  CheckOrDie(detection.ok(), "detect D2");
  return std::move(detection).value();
}

void ReproduceContent() {
  Banner("F5", "Figure 5: violations view for Full Name -> Gender");
  const ConfirmedD2 d = DiscoverD2(2000, 71);
  const anmat::DetectionResult detection = DetectOrDie(d);
  const std::string view =
      anmat::RenderViolationsView(d.relation, d.rules, detection, 15);
  std::cout << view;
  CheckOrDie(!detection.violations.empty(), "violations reported");
  CheckOrDie(view.find("full_name=") != std::string::npos,
             "full violating records displayed");
  CheckOrDie(view.find("suggested repair") != std::string::npos,
             "repair suggestions displayed");
}

void BM_DetectNameGender(benchmark::State& state) {
  const ConfirmedD2 d = DiscoverD2(static_cast<size_t>(state.range(0)), 72);
  anmat::Engine engine;
  for (auto _ : state) {
    benchmark::DoNotOptimize(engine.Detect(d.relation, d.rules));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_DetectNameGender)->Arg(1000)->Arg(4000)->Arg(16000);

void BM_RenderViolations(benchmark::State& state) {
  const ConfirmedD2 d = DiscoverD2(4000, 73);
  const anmat::DetectionResult detection = DetectOrDie(d);
  for (auto _ : state) {
    std::string view =
        anmat::RenderViolationsView(d.relation, d.rules, detection);
    benchmark::DoNotOptimize(view);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_RenderViolations);

}  // namespace

int main(int argc, char** argv) {
  ReproduceContent();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
