// A7 — engine thread-count scaling and streaming-vs-rebuild throughput.
//
// Two claims of the engine layer (anmat/engine.h):
//
//  1. Discovery and detection fan out (per candidate dependency / per
//     (PFD, tableau row)) over the thread pool with a deterministic merge,
//     so wall-clock should drop with the thread count on multi-core
//     hardware while the output stays byte-identical. This bench prints
//     the measured wall-clock per thread count as JSON; interpret the
//     speedups against "hardware_threads" — on a single-core container
//     threads only timeshare and the expected speedup is ~1x (the
//     determinism claim is what engine_test.cc asserts everywhere).
//
//  2. DetectionStream pays pattern work only for newly seen distinct
//     values per batch, so append-heavy workloads beat "rebuild from
//     scratch per batch" by a margin that grows with the batch count —
//     this is single-threaded, algorithmic, and reproduces on any machine.
//
//  3. Engine::Repair runs every repair pass's suggestion generation
//     through the detection fan-out, so the repair stage scales like
//     detection while applied repairs + repaired relation stay
//     byte-identical across thread counts (A7c); the stream's
//     clean-on-ingest mode repairs confident constant-rule errors per
//     batch for a small surcharge over plain streaming — compared against
//     detect-everything-then-repair-at-the-end (A7d); and with variable
//     rules enabled it additionally applies cumulative-majority repairs
//     per batch, matching a one-shot single-pass constant+variable repair
//     over the concatenation repair-for-repair whenever no cross-batch
//     majority flip was surfaced (A7e).
//
// Content: the two JSON reports (plus equality checks between parallel /
// streaming results and their serial one-shot references). Performance:
// google-benchmark timings for the same paths (JSON via
// --benchmark_format=json, like every other bench_* binary).

#include <benchmark/benchmark.h>

#include <chrono>
#include <iostream>
#include <string>
#include <vector>

#include "anmat/engine.h"
#include "bench_util.h"
#include "datagen/datasets.h"
#include "detect/detection_stream.h"
#include "detect/detector.h"
#include "discovery/discovery.h"
#include "repair/repair.h"
#include "util/thread_pool.h"

namespace {

using anmat_bench::Banner;
using anmat_bench::CheckOrDie;
using anmat_bench::Sized;

double MillisSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - start)
      .count();
}

/// A serialized fingerprint of a detection result (order-sensitive), used
/// to check byte-identical output across thread counts and streaming.
std::string Fingerprint(const anmat::DetectionResult& result) {
  std::string out;
  for (const anmat::Violation& v : result.violations) {
    out += std::to_string(v.pfd_index) + ":" +
           std::to_string(v.tableau_row) + ":";
    for (const anmat::CellRef& c : v.cells) {
      out += std::to_string(c.row) + "," + std::to_string(c.column) + ";";
    }
    out += v.suggested_repair + "|";
  }
  return out;
}

anmat::Dataset BenchDataset() {
  // Duplicate-heavy zip/city/state plus injected errors: several PFDs with
  // both constant and variable tableau rows, the shape the fan-out targets.
  // ANMAT_BENCH_QUICK shrinks the dataset for the CI smoke run.
  return anmat::ZipCityStateDataset(Sized(20000, 4000), 71, 0.02);
}

anmat::DiscoveryOptions BenchDiscoveryOptions() {
  anmat::DiscoveryOptions options;
  options.min_coverage = 0.4;
  return options;
}

std::vector<anmat::Pfd> RulesOf(const anmat::DiscoveryResult& discovery) {
  std::vector<anmat::Pfd> rules;
  for (const anmat::DiscoveredPfd& disc : discovery.pfds) {
    rules.push_back(disc.pfd);
  }
  return rules;
}

/// The rule set every A7 section measures with (serial discovery over the
/// bench dataset) — one definition so the sub-reports cannot drift apart.
std::vector<anmat::Pfd> BenchRules(const anmat::Dataset& d) {
  anmat::Engine engine(anmat::ExecutionOptions{1, true, nullptr});
  auto discovery = engine.Discover(d.relation, BenchDiscoveryOptions());
  CheckOrDie(discovery.ok() && !discovery->pfds.empty(),
             "discovery for bench rules failed");
  return RulesOf(discovery.value());
}

/// Splits the dataset into `count` contiguous batches.
std::vector<anmat::Relation> MakeBatches(const anmat::Relation& relation,
                                         size_t count) {
  std::vector<anmat::Relation> batches;
  const size_t rows = relation.num_rows();
  for (size_t b = 0; b < count; ++b) {
    auto slice =
        relation.Slice(static_cast<anmat::RowId>(b * rows / count),
                       static_cast<anmat::RowId>((b + 1) * rows / count));
    CheckOrDie(slice.ok(), "slice failed");
    batches.push_back(std::move(slice).value());
  }
  return batches;
}

void ThreadScalingReport() {
  Banner("A7a", "discovery+detection wall-clock vs thread count");
  const anmat::Dataset d = BenchDataset();

  const anmat::DiscoveryOptions discover_options = BenchDiscoveryOptions();

  // Serial reference (also provides the rules for the detection timing).
  anmat::Engine serial_engine(anmat::ExecutionOptions{1, true, nullptr});
  auto serial_discovery = serial_engine.Discover(d.relation, discover_options);
  CheckOrDie(serial_discovery.ok(), "serial discovery failed");
  CheckOrDie(!serial_discovery->pfds.empty(), "no PFDs discovered");
  const std::vector<anmat::Pfd> rules = RulesOf(serial_discovery.value());
  auto serial_detection = serial_engine.Detect(d.relation, rules);
  CheckOrDie(serial_detection.ok(), "serial detection failed");
  const std::string serial_print = Fingerprint(serial_detection.value());

  struct Timing {
    size_t threads;
    double discover_ms;
    double detect_ms;
  };
  std::vector<Timing> timings;
  for (size_t threads : {size_t{1}, size_t{2}, size_t{4}, size_t{8}}) {
    anmat::Engine engine(anmat::ExecutionOptions{threads, true, nullptr});
    auto t0 = std::chrono::steady_clock::now();
    auto discovery = engine.Discover(d.relation, discover_options);
    const double discover_ms = MillisSince(t0);
    CheckOrDie(discovery.ok(), "parallel discovery failed");
    CheckOrDie(discovery->pfds.size() == serial_discovery->pfds.size(),
               "parallel discovery diverged from serial");

    t0 = std::chrono::steady_clock::now();
    auto detection = engine.Detect(d.relation, rules);
    const double detect_ms = MillisSince(t0);
    CheckOrDie(detection.ok(), "parallel detection failed");
    CheckOrDie(Fingerprint(detection.value()) == serial_print,
               "parallel detection diverged from serial");
    timings.push_back(Timing{threads, discover_ms, detect_ms});
  }

  std::cout << "{\n  \"hardware_threads\": "
            << anmat::ThreadPool::HardwareThreads()
            << ",\n  \"rows\": " << d.relation.num_rows()
            << ",\n  \"rules\": " << rules.size() << ",\n  \"scaling\": [\n";
  for (size_t i = 0; i < timings.size(); ++i) {
    const Timing& t = timings[i];
    std::cout << "    {\"threads\": " << t.threads << ", \"discover_ms\": "
              << t.discover_ms << ", \"detect_ms\": " << t.detect_ms
              << ", \"speedup_vs_1\": "
              << (timings[0].discover_ms + timings[0].detect_ms) /
                     (t.discover_ms + t.detect_ms)
              << "}" << (i + 1 < timings.size() ? "," : "") << "\n";
  }
  std::cout << "  ]\n}\n";
}

void StreamingReport() {
  Banner("A7b", "streaming AppendBatch vs per-batch rebuild");
  const anmat::Dataset d = BenchDataset();

  anmat::Engine engine(anmat::ExecutionOptions{1, true, nullptr});
  const std::vector<anmat::Pfd> rules = BenchRules(d);

  const size_t kBatches = 20;
  const size_t rows = d.relation.num_rows();
  const std::vector<anmat::Relation> batches =
      MakeBatches(d.relation, kBatches);

  // Streaming: one stream, kBatches appends, cumulative result each time.
  auto t0 = std::chrono::steady_clock::now();
  auto stream = engine.OpenStream(d.relation.schema(), rules);
  CheckOrDie(stream.ok(), "OpenStream failed");
  std::string stream_print;
  for (const anmat::Relation& batch : batches) {
    auto result = (*stream)->AppendBatch(batch);
    CheckOrDie(result.ok(), "AppendBatch failed");
    stream_print = Fingerprint(result.value());
  }
  const double stream_ms = MillisSince(t0);

  // Rebuild: a fresh one-shot DetectErrors over the growing prefix after
  // every batch — what a caller without the stream has to do.
  t0 = std::chrono::steady_clock::now();
  anmat::Relation prefix(d.relation.schema());
  std::string rebuild_print;
  for (const anmat::Relation& batch : batches) {
    for (anmat::RowId r = 0; r < batch.num_rows(); ++r) {
      CheckOrDie(prefix.AppendRow(batch.Row(r)).ok(), "append failed");
    }
    auto result = engine.Detect(prefix, rules);
    CheckOrDie(result.ok(), "rebuild detection failed");
    rebuild_print = Fingerprint(result.value());
  }
  const double rebuild_ms = MillisSince(t0);

  CheckOrDie(stream_print == rebuild_print,
             "streaming result diverged from one-shot rebuild");

  std::cout << "{\n  \"rows\": " << rows << ",\n  \"batches\": " << kBatches
            << ",\n  \"rules\": " << rules.size()
            << ",\n  \"stream_ms\": " << stream_ms
            << ",\n  \"rebuild_ms\": " << rebuild_ms
            << ",\n  \"stream_speedup\": " << rebuild_ms / stream_ms
            << ",\n  \"distinct_values\": " << (*stream)->distinct_values()
            << "\n}\n";
}

std::string Fingerprint(const anmat::RepairResult& result,
                        const anmat::Relation& relation) {
  std::string out;
  for (const anmat::AppliedRepair& r : result.repairs) {
    out += std::to_string(r.cell.row) + "," + std::to_string(r.cell.column) +
           ":" + r.before + ">" + r.after + "|";
  }
  for (anmat::RowId row = 0; row < relation.num_rows(); ++row) {
    for (size_t c = 0; c < relation.num_columns(); ++c) {
      out += relation.cell(row, c);
      out.push_back('\x1f');
    }
  }
  return out;
}

void RepairScalingReport() {
  Banner("A7c", "repair wall-clock vs thread count");
  const anmat::Dataset d = BenchDataset();
  const std::vector<anmat::Pfd> rules = BenchRules(d);

  // Serial reference: plain RepairErrors.
  anmat::Relation serial_relation = d.relation;
  auto serial_result = anmat::RepairErrors(&serial_relation, rules);
  CheckOrDie(serial_result.ok(), "serial repair failed");
  CheckOrDie(!serial_result->repairs.empty(), "no repairs applied");
  const std::string serial_print =
      Fingerprint(serial_result.value(), serial_relation);

  struct Timing {
    size_t threads;
    double repair_ms;
  };
  std::vector<Timing> timings;
  for (size_t threads : {size_t{1}, size_t{2}, size_t{4}, size_t{8}}) {
    anmat::Engine engine(anmat::ExecutionOptions{threads, true, nullptr});
    anmat::Relation relation = d.relation;
    auto t0 = std::chrono::steady_clock::now();
    auto result = engine.Repair(&relation, rules);
    const double repair_ms = MillisSince(t0);
    CheckOrDie(result.ok(), "parallel repair failed");
    CheckOrDie(Fingerprint(result.value(), relation) == serial_print,
               "parallel repair diverged from serial");
    timings.push_back(Timing{threads, repair_ms});
  }

  std::cout << "{\n  \"hardware_threads\": "
            << anmat::ThreadPool::HardwareThreads()
            << ",\n  \"rows\": " << d.relation.num_rows()
            << ",\n  \"rules\": " << rules.size()
            << ",\n  \"repairs\": " << serial_result->repairs.size()
            << ",\n  \"passes\": " << serial_result->passes
            << ",\n  \"scaling\": [\n";
  for (size_t i = 0; i < timings.size(); ++i) {
    const Timing& t = timings[i];
    std::cout << "    {\"threads\": " << t.threads
              << ", \"repair_ms\": " << t.repair_ms
              << ", \"speedup_vs_1\": "
              << timings[0].repair_ms / t.repair_ms << "}"
              << (i + 1 < timings.size() ? "," : "") << "\n";
  }
  std::cout << "  ]\n}\n";
}

void CleanOnIngestReport() {
  Banner("A7d", "streaming clean-on-ingest vs detect-then-repair");
  const anmat::Dataset d = BenchDataset();

  anmat::Engine engine(anmat::ExecutionOptions{1, true, nullptr});
  const std::vector<anmat::Pfd> rules = BenchRules(d);

  const size_t kBatches = 20;
  const size_t rows = d.relation.num_rows();
  const std::vector<anmat::Relation> batches =
      MakeBatches(d.relation, kBatches);

  // Plain streaming (violations only) as the baseline surcharge reference.
  auto t0 = std::chrono::steady_clock::now();
  {
    auto stream = engine.OpenStream(d.relation.schema(), rules);
    CheckOrDie(stream.ok(), "OpenStream failed");
    for (const anmat::Relation& batch : batches) {
      CheckOrDie((*stream)->AppendBatch(batch).ok(), "AppendBatch failed");
    }
  }
  const double plain_ms = MillisSince(t0);

  // Clean-on-ingest: same stream, each batch repaired before absorption.
  t0 = std::chrono::steady_clock::now();
  size_t stream_repairs = 0;
  size_t stream_remaining = 0;
  {
    auto stream = engine.OpenStream(d.relation.schema(), rules);
    CheckOrDie(stream.ok(), "OpenStream failed");
    (*stream)->set_clean_on_ingest(true);
    (*stream)->set_clean_variable_rules(false);  // A7d: constant-only
    for (const anmat::Relation& batch : batches) {
      auto result = (*stream)->AppendBatch(batch);
      CheckOrDie(result.ok(), "clean AppendBatch failed");
      stream_remaining = result->violations.size();
    }
    stream_repairs = (*stream)->repairs().size();
  }
  const double clean_ms = MillisSince(t0);

  // The non-streaming alternative: ingest everything, then one
  // constant-rule-only repair pass at the end (the semantics clean-on-
  // ingest provides incrementally).
  t0 = std::chrono::steady_clock::now();
  anmat::Relation full(d.relation.schema());
  for (const anmat::Relation& batch : batches) {
    for (anmat::RowId r = 0; r < batch.num_rows(); ++r) {
      CheckOrDie(full.AppendRow(batch.Row(r)).ok(), "append failed");
    }
  }
  anmat::RepairOptions repair_options;
  repair_options.apply_variable_repairs = false;
  repair_options.max_passes = 1;
  auto batch_repair = anmat::RepairErrors(&full, rules, repair_options);
  CheckOrDie(batch_repair.ok(), "detect-then-repair failed");
  const double after_the_fact_ms = MillisSince(t0);

  CheckOrDie(stream_repairs == batch_repair->repairs.size(),
             "clean-on-ingest repair count diverged from one-shot "
             "constant-rule repair");

  std::cout << "{\n  \"rows\": " << rows << ",\n  \"batches\": " << kBatches
            << ",\n  \"rules\": " << rules.size()
            << ",\n  \"stream_plain_ms\": " << plain_ms
            << ",\n  \"stream_clean_ms\": " << clean_ms
            << ",\n  \"clean_surcharge\": " << clean_ms / plain_ms
            << ",\n  \"detect_then_repair_ms\": " << after_the_fact_ms
            << ",\n  \"repairs_applied\": " << stream_repairs
            << ",\n  \"violations_left\": " << stream_remaining
            << "\n}\n";
}

void VariableCleanOnIngestReport() {
  Banner("A7e", "variable clean-on-ingest surcharge + one-shot equality");
  const anmat::Dataset d = BenchDataset();

  anmat::Engine engine(anmat::ExecutionOptions{1, true, nullptr});
  const std::vector<anmat::Pfd> rules = BenchRules(d);

  const size_t kBatches = 20;
  const size_t rows = d.relation.num_rows();
  const std::vector<anmat::Relation> batches =
      MakeBatches(d.relation, kBatches);

  // Constant-only cleaning as the surcharge baseline (what A7d measures).
  auto t0 = std::chrono::steady_clock::now();
  size_t constant_repairs = 0;
  {
    auto stream = engine.OpenStream(d.relation.schema(), rules);
    CheckOrDie(stream.ok(), "OpenStream failed");
    (*stream)->set_clean_on_ingest(true);
    (*stream)->set_clean_variable_rules(false);
    for (const anmat::Relation& batch : batches) {
      CheckOrDie((*stream)->AppendBatch(batch).ok(), "AppendBatch failed");
    }
    constant_repairs = (*stream)->repairs().size();
  }
  const double constant_ms = MillisSince(t0);

  // Constant + cumulative-majority variable cleaning (the v2 default).
  t0 = std::chrono::steady_clock::now();
  size_t stream_repairs = 0;
  size_t stream_conflicts = 0;
  size_t stream_remaining = 0;
  std::string stream_relation_print;
  {
    auto stream = engine.OpenStream(d.relation.schema(), rules);
    CheckOrDie(stream.ok(), "OpenStream failed");
    (*stream)->set_clean_on_ingest(true);
    for (const anmat::Relation& batch : batches) {
      auto result = (*stream)->AppendBatch(batch);
      CheckOrDie(result.ok(), "variable clean AppendBatch failed");
      stream_remaining = result->violations.size();
    }
    stream_repairs = (*stream)->repairs().size();
    stream_conflicts = (*stream)->conflicts().size();
    anmat::RepairResult empty;
    stream_relation_print = Fingerprint(empty, (*stream)->relation());
  }
  const double variable_ms = MillisSince(t0);

  // The non-streaming reference: one single-pass constant+variable repair
  // over the concatenation (the semantics variable clean-on-ingest
  // provides incrementally, batch by batch).
  t0 = std::chrono::steady_clock::now();
  anmat::Relation full(d.relation.schema());
  for (const anmat::Relation& batch : batches) {
    for (anmat::RowId r = 0; r < batch.num_rows(); ++r) {
      CheckOrDie(full.AppendRow(batch.Row(r)).ok(), "append failed");
    }
  }
  anmat::RepairOptions repair_options;
  repair_options.max_passes = 1;
  auto one_shot = anmat::RepairErrors(&full, rules, repair_options);
  CheckOrDie(one_shot.ok(), "one-shot constant+variable repair failed");
  const double one_shot_ms = MillisSince(t0);

  // The repair-count equality check (CI asserts this section passes):
  // without a surfaced majority flip, streaming must match the one-shot
  // pass repair-for-repair AND byte-for-byte.
  const bool repairs_match = stream_repairs == one_shot->repairs.size();
  if (stream_conflicts == 0) {
    CheckOrDie(repairs_match,
               "variable clean-on-ingest repair count diverged from the "
               "one-shot pass with no surfaced conflict");
    anmat::RepairResult empty;
    CheckOrDie(stream_relation_print == Fingerprint(empty, full),
               "variable clean-on-ingest relation diverged from the "
               "one-shot pass with no surfaced conflict");
  }
  std::cout << "{\n  \"rows\": " << rows << ",\n  \"batches\": " << kBatches
            << ",\n  \"rules\": " << rules.size()
            << ",\n  \"constant_clean_ms\": " << constant_ms
            << ",\n  \"variable_clean_ms\": " << variable_ms
            << ",\n  \"variable_surcharge\": " << variable_ms / constant_ms
            << ",\n  \"one_shot_repair_ms\": " << one_shot_ms
            << ",\n  \"constant_repairs\": " << constant_repairs
            << ",\n  \"stream_repairs\": " << stream_repairs
            << ",\n  \"one_shot_repairs\": " << one_shot->repairs.size()
            << ",\n  \"repairs_match\": "
            << (repairs_match ? "true" : "false")
            << ",\n  \"conflicts\": " << stream_conflicts
            << ",\n  \"violations_left\": " << stream_remaining
            << "\n}\n";
}

// ---------------------------------------------------------------------------
// google-benchmark timings
// ---------------------------------------------------------------------------

void BM_DetectThreads(benchmark::State& state) {
  static const anmat::Dataset d = BenchDataset();
  static const std::vector<anmat::Pfd> rules = BenchRules(d);
  anmat::Engine engine(anmat::ExecutionOptions{
      static_cast<size_t>(state.range(0)), true, nullptr});
  anmat::Relation relation;
  for (auto _ : state) {
    // A copy takes a fresh stamp (sharing the built dictionaries), so the
    // last iteration's kept detection cannot answer: every iteration
    // times a detection.
    state.PauseTiming();
    relation = d.relation;
    state.ResumeTiming();
    auto result = engine.Detect(relation, rules);
    benchmark::DoNotOptimize(result);
  }
}
BENCHMARK(BM_DetectThreads)->Arg(1)->Arg(2)->Arg(4);

void BM_StreamAppendBatch(benchmark::State& state) {
  static const anmat::Dataset d = BenchDataset();
  static const std::vector<anmat::Pfd> rules = BenchRules(d);
  const size_t batch_rows = static_cast<size_t>(state.range(0));
  for (auto _ : state) {
    state.PauseTiming();
    anmat::Engine engine;
    auto stream = engine.OpenStream(d.relation.schema(), rules);
    state.ResumeTiming();
    for (size_t begin = 0; begin + batch_rows <= d.relation.num_rows();
         begin += batch_rows) {
      auto batch = d.relation.Slice(
          static_cast<anmat::RowId>(begin),
          static_cast<anmat::RowId>(begin + batch_rows));
      auto result = (*stream)->AppendBatch(batch.value());
      benchmark::DoNotOptimize(result);
    }
  }
}
BENCHMARK(BM_StreamAppendBatch)->Arg(2000)->Arg(5000);

void BM_RepairThreads(benchmark::State& state) {
  static const anmat::Dataset d = BenchDataset();
  static const std::vector<anmat::Pfd> rules = BenchRules(d);
  anmat::Engine engine(anmat::ExecutionOptions{
      static_cast<size_t>(state.range(0)), true, nullptr});
  for (auto _ : state) {
    state.PauseTiming();
    anmat::Relation relation = d.relation;  // repair mutates in place
    state.ResumeTiming();
    auto result = engine.Repair(&relation, rules);
    benchmark::DoNotOptimize(result);
  }
}
BENCHMARK(BM_RepairThreads)->Arg(1)->Arg(2)->Arg(4);

}  // namespace

int main(int argc, char** argv) {
  ThreadScalingReport();
  StreamingReport();
  RepairScalingReport();
  CleanOnIngestReport();
  VariableCleanOnIngestReport();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
