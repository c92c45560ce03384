// stream_feed: a closed-loop tailer over a zip/city/state feed.
//
// Each pass tails the feed CSV in fixed-size batches: it reads the next
// batch of lines, parses them with the csv layer, appends them to a
// DetectionStream that cleans on ingest (constant and variable rules, found
// by a discovery run during set-up), and writes the cleaned batch to an
// output CSV. An operation is one batch (read + parse + append); the
// cleaned-batch write is timed on its own. The incremental detection path
// does its work here and nowhere else in the benchmark.

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <set>

#include "anmat/engine.h"
#include "common.h"
#include "csv/csv_reader.h"
#include "csv/csv_writer.h"
#include "datagen/datasets.h"
#include "stats.h"

namespace perfbench {
namespace {

constexpr size_t kFeedRows = 60000;
constexpr size_t kBatchRows = 300;  // 200 batches per pass
/// Leading rows the set-up discovery sees.
constexpr size_t kDiscoverSample = 4000;
constexpr double kErrorRate = 0.02;

/// What set-up leaves: the feed on disk, its schema and injected errors
/// (the generated relation itself is dropped, so it does not count towards
/// the timed run's memory), and the rules.
struct Feed {
  std::string csv;
  anmat::Schema schema;
  std::vector<anmat::InjectedError> ground_truth;
  std::vector<anmat::Pfd> rules;
};

/// Generates the feed, writes it, and discovers the rules the stream runs.
Feed SetUp(const Options& options, const std::string& dir, Checker* checker) {
  Feed feed;
  anmat::Dataset data =
      anmat::ZipCityStateDataset(kFeedRows, options.seed, kErrorRate);
  feed.csv = dir + "/feed.csv";
  feed.schema = data.relation.schema();
  feed.ground_truth = std::move(data.ground_truth);
  checker->Check(anmat::WriteCsvFile(data.relation, feed.csv).ok(),
                 "stream_feed: writing the feed CSV");
  anmat::Engine engine(EngineExecution());
  auto sample = data.relation.Slice(0, kDiscoverSample);
  anmat::DiscoveryOptions discovery_options;
  discovery_options.min_coverage = 0.4;
  auto discovery =
      sample.ok() ? engine.Discover(sample.value(), discovery_options)
                  : anmat::Result<anmat::DiscoveryResult>(sample.status());
  if (checker->Check(discovery.ok() && !discovery->pfds.empty(),
                     "stream_feed: set-up discovery found no rules")) {
    for (const anmat::DiscoveredPfd& d : discovery->pfds) {
      feed.rules.push_back(d.pfd);
    }
  }
  return feed;
}

/// What one pass's stream produced, compared across passes.
struct PassOutcome {
  size_t repairs = 0;
  size_t conflicts = 0;
  size_t violations = 0;
};

}  // namespace

void RunStreamFeed(const Options& options, MetricSet* metrics,
                   Checker* checker) {
  std::vector<double> setup_s;
  Feed feed;
  for (int i = 0; i < kSetupRepeats; ++i) {
    const Clock::time_point t0 = Clock::now();
    const std::string dir = options.work_dir + "/setup" + std::to_string(i);
    std::filesystem::create_directories(dir);
    feed = SetUp(options, dir, checker);
    setup_s.push_back(MsSince(t0) / 1000.0);
  }
  if (feed.rules.empty()) return;
  const std::string out_csv = options.work_dir + "/cleaned.csv";
  const uint64_t feed_bytes = FileBytes(feed.csv);

  Tracer tracer(false);
  LayerSeries layers;
  std::vector<double> op_ms, write_ms, untraced_pass_s, traced_pass_s;
  PassOutcome first;
  anmat::PrecisionRecall quality;
  size_t repairs_scored = 0, repairs_correct = 0;
  anmat::CsvOptions no_header;
  no_header.has_header = false;

  ResetPeakRss();
  const std::vector<double> pass_s = RunPasses(
      options.seconds, options.trace ? 2 : 1, [&](size_t pass) -> double {
        tracer.set_enabled(TracedPass(options, pass));
        tracer.Clear();
        double work_ms = 0;
        anmat::Engine engine(EngineExecution());
        auto opened = engine.OpenStream(feed.schema, feed.rules);
        checker->Attempt();
        if (!checker->Check(opened.ok(), "stream_feed: OpenStream failed")) {
          return 0.0;
        }
        std::unique_ptr<anmat::DetectionStream> stream =
            std::move(opened).value();
        stream->set_clean_on_ingest(true);
        stream->set_clean_variable_rules(true);

        std::ifstream in(feed.csv, std::ios::binary);
        std::ofstream out(out_csv, std::ios::binary | std::ios::trunc);
        std::string header;
        std::getline(in, header);
        out << header << "\n";
        std::vector<double> append_ms;
        anmat::DetectionResult last;
        bool at_end = false;
        for (size_t batch = 0; !at_end; ++batch) {
          checker->Attempt();
          bool ok = true;
          size_t rows_in_batch = 0;
          double batch_append_ms = 0;
          const double batch_ms = tracer.Span("op", [&] {
            anmat::Relation parsed;
            tracer.Span("csv.read", [&] {
              std::string text = header + "\n";
              std::string line;
              while (rows_in_batch < kBatchRows && std::getline(in, line)) {
                text += line;
                text += '\n';
                ++rows_in_batch;
              }
              at_end = rows_in_batch < kBatchRows || in.peek() == EOF;
              auto read = anmat::ReadCsvString(text);
              ok = read.ok() && read->num_rows() == rows_in_batch;
              if (ok) parsed = std::move(read).value();
            });
            if (!ok || rows_in_batch == 0) return;
            batch_append_ms = tracer.Span("detect.append", [&] {
              auto result = stream->AppendBatch(parsed);
              ok = result.ok();
              if (ok) last = std::move(result).value();
            });
          });
          if (!checker->Check(ok, "stream_feed: batch " +
                                      std::to_string(batch) + " failed")) {
            break;
          }
          if (rows_in_batch == 0) break;
          // The cleaned batch goes to the output feed.
          const double batch_write_ms = tracer.Span("csv.write", [&] {
            const anmat::RowId end = stream->relation().num_rows();
            auto slice = stream->relation().Slice(end - rows_in_batch, end);
            auto text = slice.ok() ? anmat::WriteCsvString(slice.value(),
                                                           no_header)
                                   : anmat::Result<std::string>(slice.status());
            ok = text.ok();
            if (ok) {
              out << text.value();
              out.flush();
              ok = out.good();
            }
          });
          checker->Check(ok, "stream_feed: writing cleaned batch " +
                                 std::to_string(batch));
          append_ms.push_back(batch_append_ms);
          if (pass > 0) {
            op_ms.push_back(batch_ms);
            write_ms.push_back(batch_write_ms);
          }
          work_ms += batch_ms + batch_write_ms;
        }
        out.close();

        const PassOutcome outcome{stream->repairs().size(),
                                  stream->conflicts().size(),
                                  last.violations.size()};
        if (pass == 0) {
          first = outcome;
          // The cleaned output reads back equal to the stream's relation.
          auto back = anmat::ReadCsvFile(out_csv);
          checker->Check(back.ok() && SameCells(back.value(),
                                                   stream->relation()),
                         "stream_feed: cleaned output CSV differs from the "
                         "stream's relation");
          // The one-shot contract: a single-pass constant+variable repair
          // over the concatenated batches holds the same bytes, except on
          // cells the stream reported as conflicts (none, usually).
          auto read = anmat::ReadCsvFile(feed.csv);
          anmat::Relation full = read.ok() ? std::move(read).value()
                                           : anmat::Relation(feed.schema);
          anmat::RepairOptions repair_options;
          repair_options.max_passes = 1;
          auto one_shot = engine.Repair(&full, feed.rules, repair_options);
          checker->Check(read.ok() && one_shot.ok(),
                         "stream_feed: one-shot reference repair failed");
          std::set<anmat::CellRef> conflicted;
          for (const anmat::StreamConflict& c : stream->conflicts()) {
            conflicted.insert(c.cell);
          }
          bool covered = one_shot.ok() &&
                         full.num_rows() == stream->relation().num_rows();
          for (anmat::RowId r = 0; covered && r < full.num_rows(); ++r) {
            for (uint32_t c = 0; c < full.num_columns(); ++c) {
              if (full.cell(r, c) != stream->relation().cell(r, c) &&
                  conflicted.count(anmat::CellRef{r, c}) == 0) {
                covered = false;
              }
            }
          }
          checker->Check(covered,
                         "stream_feed: cleaned stream diverges from the "
                         "one-shot repair outside the reported conflicts");
          if (outcome.conflicts == 0) {
            checker->Check(
                one_shot.ok() && one_shot->repairs.size() == outcome.repairs,
                "stream_feed: repair count differs from the one-shot pass "
                "with no conflict reported");
          }
          // Quality: the stream flags the cells it repaired and the suspects
          // of the violations left after the last batch.
          std::vector<anmat::CellRef> flagged;
          for (const anmat::AppliedRepair& r : stream->repairs()) {
            flagged.push_back(r.cell);
          }
          for (const anmat::Violation& v : last.violations) {
            flagged.push_back(v.suspect);
          }
          quality = anmat::ScoreSuspects(flagged, feed.ground_truth);
          repairs_correct =
              CorrectRepairs(stream->repairs(), feed.ground_truth);
          repairs_scored = stream->repairs().size();
        } else {
          checker->Check(outcome.repairs == first.repairs &&
                             outcome.conflicts == first.conflicts &&
                             outcome.violations == first.violations,
                         "stream_feed: a later pass gave different results");
        }

        if (tracer.enabled()) {
          layers.Add("csv.read_ms", tracer.TotalMs("csv.read"));
          layers.Add("csv.read_mb_per_s", static_cast<double>(feed_bytes) /
                                              1e6 /
                                              (tracer.TotalMs("csv.read") /
                                               1000.0));
          layers.Add("csv.write_ms", tracer.TotalMs("csv.write"));
          layers.Add("detect.append_ms", tracer.TotalMs("detect.append"));
          // Growth of the per-batch cost with stream length: p50 of the
          // last tenth of the batches over p50 of the first tenth.
          const size_t tenth = std::max<size_t>(1, append_ms.size() / 10);
          const double head = Median(std::vector<double>(
              append_ms.begin(), append_ms.begin() + tenth));
          const double tail = Median(std::vector<double>(
              append_ms.end() - tenth, append_ms.end()));
          layers.Add("detect.append_first_p50_ms", head);
          layers.Add("detect.append_last_p50_ms", tail);
          layers.Add("detect.append_growth", tail / head);
          layers.Add("detect.stream_distinct_values",
                     static_cast<double>(stream->distinct_values()));
          layers.Add("detect.stream_conflicts",
                     static_cast<double>(outcome.conflicts));
          layers.Add("detect.rows_scanned",
                     static_cast<double>(last.stats.rows_scanned));
          layers.Add("detect.candidate_rows",
                     static_cast<double>(last.stats.candidate_rows));
          layers.Add("detect.candidate_ratio",
                     static_cast<double>(last.stats.candidate_rows) /
                         std::max<double>(1, last.stats.rows_scanned));
          layers.Add("detect.violations",
                     static_cast<double>(last.stats.violations));
          layers.Add("repair.stream_repairs",
                     static_cast<double>(outcome.repairs));
          layers.Add("discovery.rules", static_cast<double>(feed.rules.size()));
          const anmat::AutomatonCache& cache = engine.automata();
          const anmat::DispatchStats dispatch = cache.dispatch_stats();
          const double hits = static_cast<double>(cache.hits());
          const double lookups = static_cast<double>(
              cache.hits() + cache.misses() + cache.fallbacks());
          layers.Add("pattern.cache_hits", hits);
          layers.Add("pattern.cache_misses", static_cast<double>(cache.misses()));
          layers.Add("pattern.cache_fallbacks",
                     static_cast<double>(cache.fallbacks()));
          layers.Add("pattern.cache_hit_ratio", hits / std::max(1.0, lookups));
          layers.Add("dispatch.automata", static_cast<double>(dispatch.automata));
          layers.Add("dispatch.states",
                     static_cast<double>(dispatch.total_states));
          layers.Add("dispatch.probes", static_cast<double>(dispatch.probes));
          layers.Add("dispatch.probe_hits",
                     static_cast<double>(dispatch.probe_hits));
          layers.Add("dispatch.probe_hit_ratio",
                     static_cast<double>(dispatch.probe_hits) /
                         std::max<double>(1, dispatch.probes));
          traced_pass_s.push_back(work_ms / 1000.0);
        } else if (pass > 0) {
          untraced_pass_s.push_back(work_ms / 1000.0);
        }
        return work_ms / 1000.0;
      });
  const double peak_rss_mb = PeakRssMb();

  if (options.trace) {
    layers.Report(metrics);
    metrics->Set("csv.read_bytes", static_cast<double>(feed_bytes));
    metrics->Set("bench.untraced_pass_s", Median(untraced_pass_s));
    metrics->Set("bench.traced_pass_s", Median(traced_pass_s));
    metrics->Set("bench.tracing_overhead_ratio",
                 Median(traced_pass_s) / Median(untraced_pass_s));
    return;
  }
  if (!TailIsSupported(op_ms.size(), 0.95)) {
    checker->Fail("stream_feed: too few batches for op_p95_ms");
  }
  std::cout << "# stream_feed: " << kFeedRows << " rows in "
            << (kFeedRows + kBatchRows - 1) / kBatchRows << " batches, "
            << PassSummary(pass_s) << ", " << op_ms.size()
            << " batches timed; repairs " << repairs_correct << "/"
            << repairs_scored << " correct, conflicts " << first.conflicts
            << ", flagged tp=" << quality.true_positives
            << " fp=" << quality.false_positives
            << " fn=" << quality.false_negatives << "\n";
  metrics->Set("setup_s", Median(setup_s));
  metrics->Set("run_s", Median(pass_s));
  metrics->Set("op_p50_ms", Percentile(op_ms, 0.50));
  metrics->Set("op_p95_ms", Percentile(op_ms, 0.95));
  metrics->Set("write_p50_ms", Percentile(write_ms, 0.50));
  metrics->Set("peak_rss_mb", peak_rss_mb);
  metrics->Set("detect_f1", quality.F1());
  metrics->Set("repair_precision",
               repairs_scored == 0 ? 0.0
                                   : static_cast<double>(repairs_correct) /
                                         static_cast<double>(repairs_scored));
}

}  // namespace perfbench
