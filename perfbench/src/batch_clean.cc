// batch_clean: the full one-shot cleaning run.
//
// Each pass cleans a fixed set of tables, each with a fresh Engine:
// ReadCsvFile -> Relation::dictionary -> Profile -> Discover (on a leading
// sample; in full for the small web table) -> Detect -> Repair ->
// WriteCsvFile. An operation is one duplicate-heavy table's run; the small
// distinct-heavy web table, whose cost swings by 10x with the rules discovery
// finds on it (and so with the seed), counts in the pass time only.
// Discovery, one-shot detection and repair do their work here and nowhere
// else in the benchmark.

#include <algorithm>
#include <filesystem>
#include <iostream>

#include "anmat/engine.h"
#include "common.h"
#include "csv/csv_reader.h"
#include "csv/csv_writer.h"
#include "datagen/datasets.h"
#include "stats.h"

namespace perfbench {
namespace {

/// Rows per duplicate-heavy table and rows of the distinct-heavy web table
/// (whose discovery grows faster than linearly: keep it small).
/// The web table is the same in every run: what it costs to detect and repair
/// swings by 10x with the rules discovery finds on it (union automata of
/// 1.7k-6.6k states), so a seeded web table would make each seed a different
/// workload. The duplicate-heavy tables follow the seed.
constexpr size_t kTableRows = 15000;
constexpr size_t kWebRows = 50;
/// Leading rows discovery sees on the duplicate-heavy tables.
constexpr size_t kDiscoverSample = 2000;
constexpr double kErrorRate = 0.02;
constexpr uint64_t kWebSeed = 1;

struct Table {
  std::string key;  ///< short name used in metric names
  anmat::Dataset data;
  /// The web table: discovered in full, left out of the operation latencies.
  bool distinct_heavy = false;
  std::string csv;
  std::string out;
};

std::vector<Table> MakeTables(uint64_t seed, const std::string& dir) {
  std::vector<Table> tables;
  tables.push_back({"zip", anmat::ZipCityStateDataset(kTableRows, seed, kErrorRate), false, "", ""});
  tables.push_back({"phone", anmat::PhoneStateDataset(kTableRows, seed + 1, kErrorRate), false, "", ""});
  tables.push_back({"name", anmat::NameGenderDataset(kTableRows, seed + 2, kErrorRate), false, "", ""});
  tables.push_back({"employee", anmat::EmployeeDataset(kTableRows, seed + 3, kErrorRate), false, "", ""});
  tables.push_back({"compound", anmat::CompoundDataset(kTableRows, seed + 4, kErrorRate), false, "", ""});
  tables.push_back({"web", anmat::WebAccountDataset(kWebRows, kWebSeed, kErrorRate), true, "", ""});
  for (Table& t : tables) {
    t.csv = dir + "/" + t.key + ".csv";
    t.out = dir + "/" + t.key + ".clean.csv";
  }
  return tables;
}

anmat::DiscoveryOptions BatchDiscoveryOptions() {
  anmat::DiscoveryOptions options;
  options.min_coverage = 0.4;
  return options;
}

/// What one table's run produced, compared across passes.
struct TableOutcome {
  size_t rules = 0;
  size_t violations = 0;
  size_t repairs = 0;
  anmat::PrecisionRecall detection;
  size_t correct_repairs = 0;
};

}  // namespace

void RunBatchClean(const Options& options, MetricSet* metrics,
                   Checker* checker) {
  // -- set-up: generate the tables and write them as CSV -------------------
  std::vector<double> setup_s;
  std::vector<Table> tables;
  for (int i = 0; i < kSetupRepeats; ++i) {
    const Clock::time_point t0 = Clock::now();
    const std::string dir = options.work_dir + "/setup" + std::to_string(i);
    std::filesystem::create_directories(dir);
    tables = MakeTables(options.seed, dir);
    for (Table& t : tables) {
      checker->Check(anmat::WriteCsvFile(t.data.relation, t.csv).ok(),
                     "writing " + t.csv);
    }
    // Only the injected errors are kept: the generated relations do not
    // count towards the timed run's memory.
    for (Table& t : tables) t.data.relation = anmat::Relation();
    setup_s.push_back(MsSince(t0) / 1000.0);
  }

  // -- timed passes ------------------------------------------------------
  Tracer tracer(false);
  LayerSeries layers;
  std::vector<double> op_ms, write_ms, untraced_pass_s, traced_pass_s;
  std::vector<TableOutcome> first(tables.size());
  uint64_t read_bytes = 0;
  for (const Table& t : tables) read_bytes += FileBytes(t.csv);

  ResetPeakRss();
  const std::vector<double> pass_s = RunPasses(
      options.seconds, options.trace ? 2 : 1, [&](size_t pass) {
        tracer.set_enabled(TracedPass(options, pass));
        tracer.Clear();
        double work_s = 0;
        struct Counters {
          double hits = 0, misses = 0, fallbacks = 0, automata = 0,
                 states = 0, probes = 0, probe_hits = 0, rows_scanned = 0,
                 candidates = 0, violations = 0, rules = 0, passes = 0,
                 repairs = 0, conflicted = 0, distinct = 0;
        } n;
        for (size_t ti = 0; ti < tables.size(); ++ti) {
          const Table& t = tables[ti];
          checker->Attempt();
          TableOutcome outcome;
          bool ok = true;
          anmat::Relation relation;
          double table_write_ms = 0;
          std::vector<anmat::CellRef> suspects;
          std::vector<anmat::AppliedRepair> applied;
          const double table_ms = tracer.Span("op", [&] {
            anmat::Engine engine(EngineExecution());
            tracer.Span("csv.read", [&] {
              auto read = anmat::ReadCsvFile(t.csv);
              ok = read.ok();
              if (ok) relation = std::move(read).value();
            });
            if (!ok) return;
            tracer.Span("relation.dictionary", [&] {
              for (size_t c = 0; c < relation.num_columns(); ++c) {
                n.distinct += relation.dictionary(c).num_values();
              }
            });
            tracer.Span("discovery.profile",
                        [&] { (void)engine.Profile(relation); });
            std::vector<anmat::Pfd> rules;
            tracer.Span("discovery.discover." + t.key, [&] {
              const size_t sample_rows =
                  t.distinct_heavy
                      ? relation.num_rows()
                      : std::min(relation.num_rows(), kDiscoverSample);
              auto sample = relation.Slice(0, sample_rows);
              ok = sample.ok();
              if (!ok) return;
              auto discovery =
                  engine.Discover(sample.value(), BatchDiscoveryOptions());
              ok = discovery.ok();
              if (!ok) return;
              for (const anmat::DiscoveredPfd& d : discovery->pfds) {
                rules.push_back(d.pfd);
              }
            });
            if (!ok) return;
            outcome.rules = rules.size();
            // A table on which discovery finds no rule (the small web table,
            // for some seeds) has nothing to detect or repair.
            if (!rules.empty()) tracer.Span("detect.detect", [&] {
              auto detection = engine.Detect(relation, rules);
              ok = detection.ok();
              if (!ok) return;
              for (const anmat::Violation& v : detection->violations) {
                suspects.push_back(v.suspect);
              }
              outcome.violations = detection->violations.size();
              n.rows_scanned += detection->stats.rows_scanned;
              n.candidates += detection->stats.candidate_rows;
              n.violations += detection->stats.violations;
            });
            if (!ok) return;
            if (!rules.empty()) tracer.Span("repair.repair", [&] {
              auto repair = engine.Repair(&relation, rules);
              ok = repair.ok();
              if (!ok) return;
              outcome.repairs = repair->repairs.size();
              applied = std::move(repair->repairs);
              n.passes += repair->passes;
              n.conflicted += repair->conflicted_cells.size();
            });
            if (!ok) return;
            table_write_ms = tracer.Span("csv.write", [&] {
              ok = anmat::WriteCsvFile(relation, t.out).ok();
            });
            const anmat::AutomatonCache& cache = engine.automata();
            const anmat::DispatchStats dispatch = cache.dispatch_stats();
            n.hits += cache.hits();
            n.misses += cache.misses();
            n.fallbacks += cache.fallbacks();
            n.automata += dispatch.automata;
            n.states += dispatch.total_states;
            n.probes += dispatch.probes;
            n.probe_hits += dispatch.probe_hits;
            n.rules += rules.size();
            n.repairs += outcome.repairs;
          });
          work_s += table_ms / 1000.0;
          if (!checker->Check(ok, "batch_clean: pipeline failed on " + t.key)) {
            continue;
          }
          if (pass > 0 && !t.distinct_heavy) {
            op_ms.push_back(table_ms);
            write_ms.push_back(table_write_ms);
          }

          // Output checks, outside the timed work.
          if (pass == 0) {
            outcome.detection =
                anmat::ScoreSuspects(suspects, t.data.ground_truth);
            outcome.correct_repairs =
                CorrectRepairs(applied, t.data.ground_truth);
            first[ti] = outcome;
            auto back = anmat::ReadCsvFile(t.out);
            checker->Check(back.ok() && SameCells(back.value(), relation),
                           "batch_clean: cleaned " + t.key +
                               " CSV does not read back equal to the "
                               "repaired relation");
          } else {
            checker->Check(outcome.rules == first[ti].rules &&
                               outcome.violations == first[ti].violations &&
                               outcome.repairs == first[ti].repairs,
                           "batch_clean: " + t.key +
                               " gave different results on a later pass");
          }
        }
        if (tracer.enabled()) {
          double discover_total = 0;
          for (const Table& t : tables) {
            const double ms = tracer.TotalMs("discovery.discover." + t.key);
            layers.Add("discovery.discover_ms." + t.key, ms);
            discover_total += ms;
          }
          layers.Add("discovery.discover_ms", discover_total);
          layers.Add("csv.read_ms", tracer.TotalMs("csv.read"));
          layers.Add("csv.write_ms", tracer.TotalMs("csv.write"));
          layers.Add("relation.dictionary_ms",
                     tracer.TotalMs("relation.dictionary"));
          layers.Add("discovery.profile_ms",
                     tracer.TotalMs("discovery.profile"));
          layers.Add("detect.detect_ms", tracer.TotalMs("detect.detect"));
          layers.Add("repair.repair_ms", tracer.TotalMs("repair.repair"));
          layers.Add("csv.read_mb_per_s",
                     static_cast<double>(read_bytes) / 1e6 /
                         (tracer.TotalMs("csv.read") / 1000.0));
          layers.Add("relation.distinct_values", n.distinct);
          layers.Add("discovery.rules", n.rules);
          layers.Add("pattern.cache_hits", n.hits);
          layers.Add("pattern.cache_misses", n.misses);
          layers.Add("pattern.cache_fallbacks", n.fallbacks);
          layers.Add("pattern.cache_hit_ratio",
                     n.hits / std::max(1.0, n.hits + n.misses + n.fallbacks));
          layers.Add("dispatch.automata", n.automata);
          layers.Add("dispatch.states", n.states);
          layers.Add("dispatch.probes", n.probes);
          layers.Add("dispatch.probe_hits", n.probe_hits);
          layers.Add("dispatch.probe_hit_ratio",
                     n.probe_hits / std::max(1.0, n.probes));
          layers.Add("detect.rows_scanned", n.rows_scanned);
          layers.Add("detect.candidate_rows", n.candidates);
          layers.Add("detect.candidate_ratio",
                     n.candidates / std::max(1.0, n.rows_scanned));
          layers.Add("detect.violations", n.violations);
          layers.Add("repair.passes", n.passes);
          layers.Add("repair.repairs", n.repairs);
          layers.Add("repair.conflicted_cells", n.conflicted);
          traced_pass_s.push_back(work_s);
        } else if (pass > 0) {
          untraced_pass_s.push_back(work_s);
        }
        return work_s;
      });
  const double peak_rss_mb = PeakRssMb();

  if (options.trace) {
    layers.Report(metrics);
    metrics->Set("csv.read_bytes", static_cast<double>(read_bytes));
    metrics->Set("bench.untraced_pass_s", Median(untraced_pass_s));
    metrics->Set("bench.traced_pass_s", Median(traced_pass_s));
    metrics->Set("bench.tracing_overhead_ratio",
                 Median(traced_pass_s) / Median(untraced_pass_s));
    return;
  }
  size_t tp = 0, fp = 0, fn = 0, repairs = 0, correct = 0;
  for (const TableOutcome& o : first) {
    tp += o.detection.true_positives;
    fp += o.detection.false_positives;
    fn += o.detection.false_negatives;
    repairs += o.repairs;
    correct += o.correct_repairs;
  }
  const anmat::PrecisionRecall pr{tp, fp, fn};
  std::cout << "# batch_clean: " << tables.size() << " tables, "
            << PassSummary(pass_s) << ", " << op_ms.size()
            << " duplicate-heavy table runs timed; detection tp=" << tp << " fp=" << fp
            << " fn=" << fn << "; repairs " << correct << "/" << repairs
            << " correct\n";
  metrics->Set("setup_s", Median(setup_s));
  metrics->Set("run_s", Median(pass_s));
  metrics->Set("op_p50_ms", Percentile(op_ms, 0.50));
  metrics->Set("op_p95_ms", Percentile(op_ms, 0.95));
  metrics->Set("write_p50_ms", Percentile(write_ms, 0.50));
  metrics->Set("peak_rss_mb", peak_rss_mb);
  metrics->Set("detect_f1", pr.F1());
  metrics->Set("repair_precision",
               repairs == 0 ? 0.0
                            : static_cast<double>(correct) /
                                  static_cast<double>(repairs));
}

}  // namespace perfbench
