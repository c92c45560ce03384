// T1 — Table 1 of the paper: the 4-row Name table, the λ1/λ2/λ4
// constraints, and the r4[gender] error they detect.
//
// Content reproduction: print the table, the discovered PFDs, and the
// detected violation. Performance: time discovery and the two detection
// modes (constant λ2 vs variable λ4) on scaled-up versions of the table.

#include <benchmark/benchmark.h>

#include <iostream>

#include "anmat/report.h"
#include "bench_util.h"
#include "datagen/datasets.h"
#include "detect/detector.h"
#include "pattern/pattern_parser.h"

namespace {

using anmat_bench::Banner;
using anmat_bench::CheckOrDie;

anmat::Pfd Lambda2() {
  anmat::Tableau t;
  anmat::TableauRow row;
  row.lhs.push_back(anmat::TableauCell::Of(
      anmat::ParseConstrainedPattern("(Susan)!\\ \\A*").value()));
  row.rhs.push_back(anmat::TableauCell::Of(
      anmat::ConstrainedPattern::Unconstrained(anmat::LiteralPattern("F"))));
  t.AddRow(row);
  return anmat::Pfd::Simple("Name", "name", "gender", t);
}

anmat::Pfd Lambda4() {
  anmat::Tableau t;
  anmat::TableauRow row;
  row.lhs.push_back(anmat::TableauCell::Of(
      anmat::ParseConstrainedPattern("(\\LU\\LL*\\ )!\\A*").value()));
  row.rhs.push_back(anmat::TableauCell::Wildcard());
  t.AddRow(row);
  return anmat::Pfd::Simple("Name", "name", "gender", t);
}

void ReproduceContent() {
  Banner("T1", "Table 1 (Name table): lambda1/lambda2/lambda4 on r4[gender]");
  anmat::Dataset d = anmat::PaperNameTable();
  std::cout << d.relation.ToString() << "\n";

  // Discovery on the toy table.
  const std::vector<anmat::DiscoveredPfd> discovered =
      anmat_bench::DiscoverOrDie(d.relation, "Name", 0.4, 0.5);
  std::cout << anmat::RenderDiscoveredPfdsView(discovered);
  bool has_john = false;
  bool has_susan = false;
  for (const anmat::DiscoveredPfd& p : discovered) {
    const std::string text = p.pfd.ToString();
    if (text.find("John") != std::string::npos) has_john = true;
    if (text.find("Susan") != std::string::npos) has_susan = true;
  }
  CheckOrDie(has_john, "lambda1-style rule (John -> M) discovered");
  CheckOrDie(has_susan, "lambda2-style rule (Susan -> F) discovered");

  // Detection with the paper's hand-written λ2 and λ4.
  auto r2 = anmat::DetectErrors(d.relation, Lambda2()).value();
  CheckOrDie(r2.violations.size() == 1 && r2.violations[0].suspect.row == 3,
             "lambda2 flags r4[gender]");
  auto r4 = anmat::DetectErrors(d.relation, Lambda4()).value();
  CheckOrDie(r4.violations.size() == 1 && r4.violations[0].cells.size() == 4,
             "lambda4 flags the 4-cell (r3, r4) violation");
  std::cout << "lambda2 violation: " << r2.violations[0].explanation << "\n";
  std::cout << "lambda4 violation: " << r4.violations[0].explanation << "\n";
}

// Scaled-up versions of the Name table for timing.
anmat::Relation ScaledNameTable(size_t rows) {
  anmat::Dataset d = anmat::NameGenderDataset(rows, /*seed=*/1, 0.02);
  return d.relation;
}

void BM_DiscoverNameTable(benchmark::State& state) {
  anmat::Relation rel = ScaledNameTable(static_cast<size_t>(state.range(0)));
  anmat::DiscoveryOptions opts;
  opts.min_coverage = 0.4;
  opts.allowed_violation_ratio = 0.1;
  for (auto _ : state) {
    auto result = anmat::DiscoverPfds(rel, opts);
    benchmark::DoNotOptimize(result);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_DiscoverNameTable)->Arg(100)->Arg(1000)->Arg(5000);

void BM_DetectConstantLambda2(benchmark::State& state) {
  anmat::Relation rel = ScaledNameTable(static_cast<size_t>(state.range(0)));
  anmat::Pfd pfd = Lambda2();
  for (auto _ : state) {
    auto result = anmat::DetectErrors(rel, pfd);
    benchmark::DoNotOptimize(result);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_DetectConstantLambda2)->Arg(1000)->Arg(10000);

void BM_DetectVariableLambda4(benchmark::State& state) {
  anmat::Relation rel = ScaledNameTable(static_cast<size_t>(state.range(0)));
  anmat::Pfd pfd = Lambda4();
  for (auto _ : state) {
    auto result = anmat::DetectErrors(rel, pfd);
    benchmark::DoNotOptimize(result);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_DetectVariableLambda4)->Arg(1000)->Arg(10000);

}  // namespace

int main(int argc, char** argv) {
  ReproduceContent();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
