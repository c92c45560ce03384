// A2 — §3's claim: the brute-force variable-PFD check "is still quadratic.
// The quadratic time complexity can be avoided using blocking [4]".
//
// Content: pair counts examined by the quadratic reference
// (`ReferenceDetectErrors`, which compares every pair of matching rows)
// vs blocking (`DetectErrors`) on a fixed dataset — the pairs column grows
// Θ(n²) without blocking and near-linearly with it, which is the claim
// itself. Performance: detection timings for both.

#include <benchmark/benchmark.h>

#include <iostream>

#include "bench_util.h"
#include "datagen/datasets.h"
#include "detect/detector.h"
#include "detect/reference_detector.h"
#include "pattern/pattern_parser.h"
#include "util/text_table.h"

namespace {

using anmat_bench::Banner;
using anmat_bench::CheckOrDie;

anmat::Pfd VariablePfd() {
  anmat::Tableau t;
  anmat::TableauRow row;
  row.lhs.push_back(anmat::TableauCell::Of(
      anmat::ParseConstrainedPattern("(\\D{3})!\\D{2}").value()));
  row.rhs.push_back(anmat::TableauCell::Wildcard());
  t.AddRow(row);
  return anmat::Pfd::Simple("Zip", "zip", "city", t);
}

void ReproduceContent() {
  Banner("A2", "blocking vs quadratic pair enumeration (variable PFDs)");
  anmat::TextTable table({"rows", "pairs (quadratic)", "pairs (blocking)",
                          "violations"});
  for (size_t rows : {1000u, 4000u, 16000u}) {
    anmat::Dataset d = anmat::ZipCityStateDataset(rows, 91, 0.02);
    auto rq = anmat::ReferenceDetectErrors(d.relation, {VariablePfd()}).value();
    auto rb = anmat::DetectErrors(d.relation, VariablePfd()).value();
    bool same = rq.violations.size() == rb.violations.size();
    for (size_t i = 0; same && i < rq.violations.size(); ++i) {
      same = rq.violations[i].cells == rb.violations[i].cells &&
             rq.violations[i].suggested_repair ==
                 rb.violations[i].suggested_repair;
    }
    CheckOrDie(same, "strategies agree at " + std::to_string(rows) + " rows");
    table.AddRow({std::to_string(rows),
                  std::to_string(rq.stats.pairs_checked),
                  std::to_string(rb.stats.pairs_checked),
                  std::to_string(rb.violations.size())});
  }
  std::cout << table.Render();
  std::cout << "\n(blocking only pays for pairs inside conflicting blocks; "
               "the reference compares every pair of matching rows)\n";
}

void RunDetection(benchmark::State& state, bool blocking) {
  anmat::Dataset d = anmat::ZipCityStateDataset(
      static_cast<size_t>(state.range(0)), 92, 0.02);
  const std::vector<anmat::Pfd> pfds = {VariablePfd()};
  for (auto _ : state) {
    auto result = blocking ? anmat::DetectErrors(d.relation, pfds)
                           : anmat::ReferenceDetectErrors(d.relation, pfds);
    benchmark::DoNotOptimize(result);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}

void BM_DetectBlocking(benchmark::State& state) { RunDetection(state, true); }
void BM_DetectQuadratic(benchmark::State& state) {
  RunDetection(state, false);
}

// The quadratic reference really enumerates its pairs, so its arm stops at
// 16 000 rows (≈1.3e8 key comparisons per run).
BENCHMARK(BM_DetectBlocking)->Arg(1000)->Arg(4000)->Arg(16000)->Arg(128000);
BENCHMARK(BM_DetectQuadratic)->Arg(1000)->Arg(4000)->Arg(16000);

}  // namespace

int main(int argc, char** argv) {
  ReproduceContent();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
