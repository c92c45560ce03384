// F4 — Figure 4 of the paper: the discovered-PFDs view, listing each
// dependency with its pattern tableau and the "pattern::position,
// frequency" provenance entries, ready for the user's confirm/reject
// decision. Content: render the view for a census-like table. Performance:
// tableau rendering and rule serialization (the store round-trip the demo
// performs on confirmation).

#include <benchmark/benchmark.h>

#include <iostream>

#include "anmat/report.h"
#include "bench_util.h"
#include "datagen/datasets.h"
#include "store/rule_store.h"

namespace {

using anmat_bench::Banner;
using anmat_bench::CheckOrDie;
using anmat_bench::RulesOf;

std::vector<anmat::DiscoveredPfd> DiscoverD2() {
  anmat::Dataset d = anmat::NameGenderDataset(3000, 61, 0.02);
  return anmat_bench::DiscoverOrDie(d.relation, "D2", 0.4, 0.1);
}

void ReproduceContent() {
  Banner("F4", "Figure 4: discovered PFDs with tableau + provenance");
  const std::vector<anmat::DiscoveredPfd> discovered = DiscoverD2();
  const std::string view = anmat::RenderDiscoveredPfdsView(discovered);
  std::cout << view;
  CheckOrDie(!discovered.empty(), "PFDs discovered");
  CheckOrDie(view.find("coverage=") != std::string::npos,
             "coverage displayed");
  CheckOrDie(view.find("::") != std::string::npos,
             "pattern::position provenance displayed");

  // Confirmation persists the rules (MongoDB in the demo; JSON here).
  const std::vector<anmat::Pfd> rules = RulesOf(discovered);
  const std::string json = anmat::SerializeRuleSet(rules);
  auto restored = anmat::ParseRuleSet(json);
  CheckOrDie(restored.ok() && restored.value().size() == rules.size(),
             "rule set persists and reloads losslessly");
  std::cout << "\npersisted " << rules.size() << " rule(s), "
            << json.size() << " bytes of JSON\n";
}

void BM_RenderPfdView(benchmark::State& state) {
  const std::vector<anmat::DiscoveredPfd> discovered = DiscoverD2();
  for (auto _ : state) {
    std::string view = anmat::RenderDiscoveredPfdsView(discovered);
    benchmark::DoNotOptimize(view);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_RenderPfdView);

void BM_SerializeRules(benchmark::State& state) {
  const std::vector<anmat::Pfd> rules = RulesOf(DiscoverD2());
  for (auto _ : state) {
    std::string json = anmat::SerializeRuleSet(rules);
    benchmark::DoNotOptimize(json);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SerializeRules);

void BM_ParseRules(benchmark::State& state) {
  const std::vector<anmat::Pfd> rules = RulesOf(DiscoverD2());
  const std::string json = anmat::SerializeRuleSet(rules);
  for (auto _ : state) {
    auto restored = anmat::ParseRuleSet(json);
    benchmark::DoNotOptimize(restored);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ParseRules);

}  // namespace

int main(int argc, char** argv) {
  ReproduceContent();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
