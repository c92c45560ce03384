// A10 — zero-copy columnar ingest and the scan prefilter.
//
// File ingest used to slurp the file into a std::string and then copy
// every cell into its own owned std::string — two copies of every byte
// plus one allocation per cell. `ReadCsvFile` (csv_reader.h) mmaps the
// file, splits records with the SIMD structural-byte scanner
// (simd::FindStructural) and stores unquoted cells as `string_view`s
// straight into the mapping (the relation's arena adopts the map; escaped
// cells are unescaped once into the arena). The copying arm reads the
// file, copies its bytes once more (`ReadCsvString` parses a copy it
// owns) and then runs the same scanner, so the two arms differ only in
// the read and the extra copy. On the scan side the automata (dfa.h,
// multi_pattern_dfa.h) reject values missing their mandatory literal with
// one memchr-anchored scan before touching the transition table.
//
// Content: ingest throughput (MB/s) for the read-and-copy arm vs the
// zero-copy reader on the same on-disk CSV — with cell-for-cell byte
// identity and identical detection results asserted — plus peak-RSS
// readings around each ingest.
// Performance: the same comparisons as google-benchmark timings
// (tools/bench.sh writes BENCH_A10.json). ANMAT_BENCH_QUICK=1 shrinks
// workloads (CI smoke).

#include <benchmark/benchmark.h>
#include <sys/resource.h>

#include <chrono>
#include <cstdio>
#include <iostream>
#include <string>
#include <vector>

#include "bench_util.h"
#include "csv/csv_reader.h"
#include "csv/csv_writer.h"
#include "datagen/datasets.h"
#include "detect/detector.h"
#include "pattern/dfa.h"
#include "pattern/pattern_parser.h"
#include "pfd/pfd.h"
#include "util/fs.h"
#include "util/random.h"
#include "util/simd.h"
#include "util/text_table.h"

namespace {

using anmat_bench::Banner;
using anmat_bench::CheckOrDie;
using anmat_bench::Sized;

double SecondsSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

/// Peak resident set of this process so far, in KiB (Linux ru_maxrss).
size_t PeakRssKib() {
  struct rusage usage = {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<size_t>(usage.ru_maxrss);
}

/// Writes a zip/city/state CSV with `rows` rows to `path`; ~1% of city
/// cells contain delimiters and quotes so the quoted/escaped parse path is
/// part of the measurement, not just the fast unquoted one.
size_t WriteWorkloadCsv(const std::string& path, size_t rows) {
  anmat::Dataset d = anmat::ZipCityStateDataset(rows, 1001, 0.02);
  anmat::Rng rng(4242);
  for (anmat::RowId r = 0; r < d.relation.num_rows(); ++r) {
    if (rng.NextBool(0.01)) {
      d.relation.set_cell(r, 1, "St. Louis, \"MO side\"");
    }
  }
  CheckOrDie(anmat::WriteCsvFile(d.relation, path).ok(),
             "workload CSV written");
  return anmat::ReadFileToString(path).value().size();
}

/// The copying arm: read the file into a string, then `ReadCsvString`,
/// which copies those bytes once more and runs the same scanner.
anmat::Result<anmat::Relation> ReadCsvFileCopying(const std::string& path) {
  auto body = anmat::ReadFileToString(path);
  if (!body.ok()) return body.status();
  return anmat::ReadCsvString(body.value());
}

void ExpectIdenticalRelations(const anmat::Relation& a,
                              const anmat::Relation& b) {
  CheckOrDie(a.num_rows() == b.num_rows() &&
                 a.num_columns() == b.num_columns(),
             "both ingests produce the same shape");
  for (size_t c = 0; c < a.num_columns(); ++c) {
    CheckOrDie(a.schema().column(c).name == b.schema().column(c).name,
               "identical schemas");
    for (anmat::RowId r = 0; r < a.num_rows(); ++r) {
      CheckOrDie(a.cell(r, c) == b.cell(r, c), "identical cell bytes");
    }
  }
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

std::string FingerprintViolations(const anmat::DetectionResult& d) {
  std::string out;
  for (const anmat::Violation& v : d.violations) {
    out += std::to_string(v.suspect.row) + ":" +
           std::to_string(v.suspect.column) + "=" + v.suggested_repair +
           "|" + v.explanation + "\n";
  }
  return out;
}

void ReproduceContent() {
  Banner("A10", "zero-copy mmap ingest vs copying parse; literal prefilter");
  const std::string path = "/tmp/anmat_bench_a10.csv";
  const size_t rows = Sized(400000, 8000);
  const size_t file_bytes = WriteWorkloadCsv(path, rows);
  const double mb = static_cast<double>(file_bytes) / (1024.0 * 1024.0);

  // ---- ingest: MB/s and peak RSS, zero-copy vs copying ----
  // Zero-copy runs first: ru_maxrss is a monotone high-water mark, so the
  // smaller footprint must be measured before the larger one or its delta
  // reads as zero.
  const size_t rss_start = PeakRssKib();
  auto start = std::chrono::steady_clock::now();
  auto zero_copy = anmat::ReadCsvFile(path);
  const double zc_secs = SecondsSince(start);
  CheckOrDie(zero_copy.ok(), "zero-copy ingest succeeded");
  const size_t rss_after_zc = PeakRssKib();

  start = std::chrono::steady_clock::now();
  auto copying = ReadCsvFileCopying(path);
  const double copy_secs = SecondsSince(start);
  CheckOrDie(copying.ok(), "copying ingest succeeded");
  const size_t rss_after_copy = PeakRssKib();

  ExpectIdenticalRelations(zero_copy.value(), copying.value());

  anmat::TextTable itable(
      {"ingest path", "seconds", "MB/s", "peak-RSS delta (KiB)"});
  itable.AddRow({"zero-copy mmap", std::to_string(zc_secs),
                 std::to_string(mb / zc_secs),
                 std::to_string(rss_after_zc - rss_start)});
  itable.AddRow({"read + copy + scan", std::to_string(copy_secs),
                 std::to_string(mb / copy_secs),
                 std::to_string(rss_after_copy - rss_after_zc)});
  std::cout << itable.Render();
  std::cout << "file: " << file_bytes << " bytes (" << rows
            << " rows); ingest speedup: " << copy_secs / zc_secs << "x\n";
  if (!anmat_bench::QuickMode()) {
    CheckOrDie(zc_secs < copy_secs,
               "zero-copy ingest is faster than the copying parse");
  }

  // ---- detection over both ingests is byte-identical ----
  const anmat::Pfd pfd = ZipVariablePfd();
  const auto zc_detect =
      anmat::DetectErrors(zero_copy.value(), pfd, {}).value();
  const auto copy_detect =
      anmat::DetectErrors(copying.value(), pfd, {}).value();
  CheckOrDie(FingerprintViolations(zc_detect) ==
                 FingerprintViolations(copy_detect),
             "identical violations from both ingests");
  std::cout << "detection over both ingests: "
            << zc_detect.violations.size()
            << " identical violations\n";
  std::remove(path.c_str());

  std::cout << "simd level: " << anmat::simd::LevelName() << "\n";
}

// ---- google-benchmark timings (same JSON shape as the other benches) ----

void BM_IngestZeroCopy(benchmark::State& state) {
  const std::string path = "/tmp/anmat_bench_a10_bm.csv";
  const size_t bytes =
      WriteWorkloadCsv(path, static_cast<size_t>(state.range(0)));
  for (auto _ : state) {
    auto r = anmat::ReadCsvFile(path);
    benchmark::DoNotOptimize(r);
  }
  state.SetBytesProcessed(state.iterations() *
                          static_cast<int64_t>(bytes));
  std::remove(path.c_str());
}

void BM_IngestCopying(benchmark::State& state) {
  const std::string path = "/tmp/anmat_bench_a10_bm.csv";
  const size_t bytes =
      WriteWorkloadCsv(path, static_cast<size_t>(state.range(0)));
  for (auto _ : state) {
    auto r = ReadCsvFileCopying(path);
    benchmark::DoNotOptimize(r);
  }
  state.SetBytesProcessed(state.iterations() *
                          static_cast<int64_t>(bytes));
  std::remove(path.c_str());
}

BENCHMARK(BM_IngestZeroCopy)->Arg(20000)->Arg(100000);
BENCHMARK(BM_IngestCopying)->Arg(20000)->Arg(100000);

void BM_PrefilterReject(benchmark::State& state) {
  // Values that lack the mandatory literal: the walk is one memchr-backed
  // scan per value.
  const anmat::Dfa dfa =
      anmat::Dfa::Compile(anmat::ParsePattern("CHEMBL\\D{1,7}").value());
  std::vector<std::string> values;
  for (int i = 0; i < 4096; ++i) {
    values.push_back("plain value " + std::to_string(i));
  }
  for (auto _ : state) {
    size_t m = 0;
    for (const std::string& v : values) m += dfa.Matches(v);
    benchmark::DoNotOptimize(m);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(values.size()));
}

BENCHMARK(BM_PrefilterReject);

}  // namespace

int main(int argc, char** argv) {
  ReproduceContent();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
