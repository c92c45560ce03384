// F2 — Figure 2 of the paper: the PFD discovery algorithm. Content: trace
// the algorithm's phases (candidate generation → key lists over the value
// dictionary → decision → coverage gate) with counts on a reference dataset. Performance: scaling
// in rows and columns, and tokens vs n-grams (the two modes of line 6).

#include <benchmark/benchmark.h>

#include <iostream>

#include "bench_util.h"
#include "datagen/datasets.h"
#include "discovery/constant_miner.h"
#include "discovery/discovery.h"
#include "discovery/inverted_list.h"
#include "util/text_table.h"

namespace {

using anmat_bench::Banner;
using anmat_bench::CheckOrDie;

void ReproduceContent() {
  Banner("F2", "Figure 2: the discovery algorithm, phase by phase");
  anmat::Dataset d = anmat::ZipCityStateDataset(2000, 41, 0.02);

  // Phase 1 (line 1): candidate dependencies after profiling.
  std::vector<anmat::ColumnProfile> profiles =
      anmat::ProfileRelation(d.relation);
  std::vector<anmat::CandidateDependency> candidates =
      anmat::CandidateDependencies(profiles);
  std::cout << "candidate dependencies after pruning: " << candidates.size()
            << "\n";
  CheckOrDie(!candidates.empty(), "candidates exist");

  // Phase 2 (lines 4-8): key lists of the zip column, built once over its
  // distinct values; each posting stands for every row holding its value.
  size_t zip_col = d.relation.schema().IndexOf("zip").value();
  const anmat::ColumnDictionary& zips = d.relation.dictionary(zip_col);
  std::cout << "zip column: " << d.relation.num_rows() << " rows, "
            << zips.num_values() << " distinct values\n";
  anmat::TextTable table({"mode", "keys", "postings", "rows"});
  for (const auto& [mode, name, len] :
       std::vector<std::tuple<anmat::TokenMode, std::string, size_t>>{
           {anmat::TokenMode::kTokens, "tokens", 0},
           {anmat::TokenMode::kNGrams, "3-grams", 3},
           {anmat::TokenMode::kPrefix, "prefixes<=4", 4}}) {
    const anmat::KeyList list = anmat::BuildKeyList(zips, mode, len);
    size_t postings = 0;
    size_t rows = 0;
    for (const anmat::KeyEntry& entry : list) {
      postings += entry.postings.size();
      rows += entry.rows;
    }
    CheckOrDie(postings <= rows, "a posting stands for at least one row");
    table.AddRow({name, std::to_string(list.size()), std::to_string(postings),
                  std::to_string(rows)});
  }
  std::cout << table.Render() << "\n";

  // Phase 3 (lines 9-14): full discovery with the coverage gate.
  anmat::DiscoveryOptions opts;
  opts.min_coverage = 0.3;
  opts.allowed_violation_ratio = 0.1;
  anmat::DiscoveryResult result =
      anmat::DiscoverPfds(d.relation, opts).value();
  std::cout << "discovered PFDs passing the coverage gate: "
            << result.pfds.size() << "\n";
  CheckOrDie(!result.pfds.empty(), "discovery produced PFDs");
}

// ---- scaling in rows ------------------------------------------------------

void BM_DiscoveryRows(benchmark::State& state) {
  anmat::Dataset d = anmat::ZipCityStateDataset(
      static_cast<size_t>(state.range(0)), 42, 0.02);
  anmat::DiscoveryOptions opts;
  opts.min_coverage = 0.3;
  for (auto _ : state) {
    auto result = anmat::DiscoverPfds(d.relation, opts);
    benchmark::DoNotOptimize(result);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_DiscoveryRows)->Arg(500)->Arg(2000)->Arg(8000)->Arg(32000);

// ---- scaling in columns ----------------------------------------------------

anmat::Relation WideRelation(size_t rows, size_t col_pairs) {
  std::vector<std::string> names;
  for (size_t i = 0; i < col_pairs; ++i) {
    names.push_back("zip" + std::to_string(i));
    names.push_back("city" + std::to_string(i));
  }
  anmat::RelationBuilder builder(anmat::Schema::MakeText(names).value());
  anmat::Dataset base = anmat::ZipCityStateDataset(rows, 43, 0.02);
  for (anmat::RowId r = 0; r < base.relation.num_rows(); ++r) {
    std::vector<std::string> row;
    for (size_t i = 0; i < col_pairs; ++i) {
      row.emplace_back(base.relation.cell(r, 0));
      row.emplace_back(base.relation.cell(r, 1));
    }
    (void)builder.AddRow(std::move(row));
  }
  return builder.Build();
}

void BM_DiscoveryColumns(benchmark::State& state) {
  anmat::Relation rel = WideRelation(1000, static_cast<size_t>(state.range(0)));
  anmat::DiscoveryOptions opts;
  opts.min_coverage = 0.3;
  for (auto _ : state) {
    auto result = anmat::DiscoverPfds(rel, opts);
    benchmark::DoNotOptimize(result);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_DiscoveryColumns)->Arg(1)->Arg(2)->Arg(4);

// ---- tokens vs n-grams (line 6's two modes) --------------------------------

void BM_MineTokens(benchmark::State& state) {
  anmat::Dataset d = anmat::NameGenderDataset(
      static_cast<size_t>(state.range(0)), 44, 0.02);
  anmat::ConstantMinerOptions opts;
  for (auto _ : state) {
    auto rows = anmat::MineConstantRows(d.relation, 0, 1,
                                        anmat::TokenMode::kTokens, opts);
    benchmark::DoNotOptimize(rows);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_MineTokens)->Arg(1000)->Arg(4000)->Arg(16000);

void BM_MineNGrams(benchmark::State& state) {
  anmat::Dataset d = anmat::ZipCityStateDataset(
      static_cast<size_t>(state.range(0)), 45, 0.02);
  anmat::ConstantMinerOptions opts;
  for (auto _ : state) {
    auto rows = anmat::MineConstantRows(d.relation, 0, 1,
                                        anmat::TokenMode::kNGrams, opts);
    benchmark::DoNotOptimize(rows);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_MineNGrams)->Arg(1000)->Arg(4000)->Arg(16000);

}  // namespace

int main(int argc, char** argv) {
  ReproduceContent();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
