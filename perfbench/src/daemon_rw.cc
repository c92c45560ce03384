// daemon_rw: reads and writes against an in-process anmatd.
//
// One daemon serves a project on a unix socket, with confirmed rules set up
// in advance. A reader connection sends capped `detect` calls (max 25) back
// to back; a writer connection sends `rules.annotate`, each a WAL-committed
// Project::Save taken under the host's unique writer gate. Every
// kDetectsPerWrite-th detect has one annotate due kWriteDelay after it was
// sent, so each write meets a detect in flight and waits on the gate for it;
// the reader sends its next detect once that write has been answered, so no
// detect waits on a commit. An operation is one detect round trip; a write
// is timed from the moment it was due. The service, framing and store layers
// do their work here and nowhere else in the benchmark.

#include <algorithm>
#include <condition_variable>
#include <filesystem>
#include <functional>
#include <iostream>
#include <map>
#include <memory>
#include <mutex>
#include <thread>

#include "anmat/engine.h"
#include "anmat/project.h"
#include "anmat/report.h"
#include "common.h"
#include "csv/csv_reader.h"
#include "csv/csv_writer.h"
#include "datagen/datasets.h"
#include "service/client.h"
#include "service/daemon.h"
#include "service/framing.h"
#include "service/protocol.h"
#include "stats.h"

namespace perfbench {
namespace {

constexpr size_t kRows = 20000;
constexpr size_t kDiscoverSample = 4000;
constexpr double kErrorRate = 0.02;
constexpr int64_t kMaxViolations = 25;
/// Detect round trips per pass (run_s is the median pass time).
constexpr size_t kDetectsPerPass = 40;
/// Enough timed passes for op_p95_ms to have kMinTailSamples beyond it.
constexpr size_t kMinTimedPasses =
    (20 * kMinTailSamples + kDetectsPerPass - 1) / kDetectsPerPass;
/// One annotate rides on every kDetectsPerWrite-th detect (20 a pass, so
/// a run has a few hundred writes). The writes are paced by the reads, not
/// by a clock: an open-loop writer at a rate that gives write_p50_ms a few
/// hundred samples runs the single writer connection near saturation on
/// slower hosts, so its queue (and the detects stuck behind its commits)
/// swings from run to run.
constexpr size_t kDetectsPerWrite = 2;
/// A write is due this long after its detect was sent: long enough for the
/// detect to hold the shared gate first, short against a detect (~30 ms).
constexpr auto kWriteDelay = std::chrono::milliseconds(5);
/// Daemon executor threads: the reader's and the writer's requests can be
/// in flight together, so writes wait on the gate, not on a thread.
constexpr size_t kExecutorThreads = 2;
/// In-process replays per layer in the traced run.
constexpr size_t kReplays = 15;

/// A daemon serving on a background thread; stopped and joined on
/// destruction.
class DaemonHarness {
 public:
  static anmat::Result<std::unique_ptr<DaemonHarness>> Start(
      const std::string& socket_path) {
    anmat::Daemon::Options options;
    options.socket_path = socket_path;
    options.executor_threads = kExecutorThreads;
    options.engine_threads = kEngineThreads;
    auto daemon = anmat::Daemon::Start(options);
    if (!daemon.ok()) return daemon.status();
    return std::unique_ptr<DaemonHarness>(
        new DaemonHarness(std::move(daemon).value()));
  }
  ~DaemonHarness() { Stop(); }
  DaemonHarness(const DaemonHarness&) = delete;
  DaemonHarness& operator=(const DaemonHarness&) = delete;

  void Stop() {
    if (!thread_.joinable()) return;
    daemon_->RequestStop();
    thread_.join();
  }

 private:
  explicit DaemonHarness(std::unique_ptr<anmat::Daemon> daemon)
      : daemon_(std::move(daemon)),
        thread_([this] { (void)daemon_->Serve(); }) {}

  std::unique_ptr<anmat::Daemon> daemon_;
  std::thread thread_;
};

/// Everything set-up leaves for the timed run. Destruction, like
/// StopDaemon, closes the clients before the daemon stops.
struct Served {
  anmat::Dataset data;
  std::string csv;
  std::string project_dir;
  uint64_t rule_id = 0;  ///< the rule the writer annotates
  std::unique_ptr<DaemonHarness> daemon;
  std::unique_ptr<anmat::DaemonClient> reader;
  std::unique_ptr<anmat::DaemonClient> writer;

  void StopDaemon() {
    reader.reset();
    writer.reset();
    daemon.reset();
  }
};

anmat::JsonValue DetectParams(const std::string& project, int64_t max) {
  anmat::JsonValue params = anmat::JsonValue::Object();
  params.Set("project", anmat::JsonValue::String(project));
  if (max >= 0) params.Set("max", anmat::JsonValue::Int(max));
  return params;
}

anmat::JsonValue AnnotateParams(const std::string& project, uint64_t id,
                                const std::string& note) {
  anmat::JsonValue params = anmat::JsonValue::Object();
  params.Set("project", anmat::JsonValue::String(project));
  params.Set("id", anmat::JsonValue::Int(static_cast<int64_t>(id)));
  params.Set("note", anmat::JsonValue::String(note));
  return params;
}

bool CallOk(anmat::DaemonClient& client, const std::string& verb,
            anmat::JsonValue params, anmat::ServiceResponse* response) {
  auto r = client.Call(verb, std::move(params));
  if (!r.ok() || !r->ok) return false;
  if (response != nullptr) *response = std::move(r).value();
  return true;
}

/// Generates the data, makes the project with confirmed rules, starts the
/// daemon and sends the priming calls (detect, annotate, stats).
bool SetUp(const Options& options, const std::string& dir, Served* s) {
  s->rule_id = 0;
  s->data = anmat::ZipCityStateDataset(kRows, options.seed, kErrorRate);
  s->csv = dir + "/data.csv";
  s->project_dir = dir + "/project";
  if (!anmat::WriteCsvFile(s->data.relation, s->csv).ok()) return false;
  {
    auto project = anmat::Project::Init(s->project_dir, "perfbench");
    if (!project.ok() || !project->AttachDataset("data", s->csv).ok()) {
      return false;
    }
    anmat::Project::Parameters parameters;
    parameters.min_coverage = 0.4;
    project->set_parameters(parameters);
    anmat::Engine engine(EngineExecution());
    auto sample = s->data.relation.Slice(0, kDiscoverSample);
    if (!sample.ok()) return false;
    auto discovery =
        engine.Discover(sample.value(), project->discovery_options());
    if (!discovery.ok() || discovery->pfds.empty()) return false;
    for (const anmat::DiscoveredPfd& d : discovery->pfds) {
      const uint64_t id = project->AddDiscoveredRule(d, "data");
      if (s->rule_id == 0) s->rule_id = id;
      if (!project->SetRuleStatus(id, anmat::RuleStatus::kConfirmed).ok()) {
        return false;
      }
    }
    if (!project->Save().ok()) return false;
  }  // releases the project lock for the daemon
  // Only the injected errors are kept: the generated relation does not count
  // towards the timed run's memory.
  s->data.relation = anmat::Relation();
  auto daemon = DaemonHarness::Start(dir + "/anmatd.sock");
  if (!daemon.ok()) return false;
  s->daemon = std::move(daemon).value();
  auto reader = anmat::DaemonClient::Connect(dir + "/anmatd.sock");
  auto writer = anmat::DaemonClient::Connect(dir + "/anmatd.sock");
  if (!reader.ok() || !writer.ok()) return false;
  s->reader = std::make_unique<anmat::DaemonClient>(std::move(reader).value());
  s->writer = std::make_unique<anmat::DaemonClient>(std::move(writer).value());
  return CallOk(*s->reader, "detect",
                DetectParams(s->project_dir, kMaxViolations), nullptr) &&
         CallOk(*s->writer, "rules.annotate",
                AnnotateParams(s->project_dir, s->rule_id, "priming"),
                nullptr) &&
         CallOk(*s->reader, "stats", anmat::JsonValue::Object(), nullptr);
}

/// Counters of the served project from the `stats` verb.
struct CacheCounters {
  double hits = 0, misses = 0, fallbacks = 0, automata = 0, states = 0,
         probes = 0, probe_hits = 0;
};

bool ReadStats(anmat::DaemonClient& client, CacheCounters* out) {
  anmat::ServiceResponse response;
  if (!CallOk(client, "stats", anmat::JsonValue::Object(), &response)) {
    return false;
  }
  const anmat::JsonValue* projects = response.result.Get("project_stats");
  if (projects == nullptr || !projects->is_array() || projects->size() != 1) {
    return false;
  }
  const anmat::JsonValue* cache = projects->at(0).Get("automaton_cache");
  if (cache == nullptr) return false;
  const anmat::JsonValue* dispatch = cache->Get("dispatch");
  if (dispatch == nullptr) return false;
  auto num = [](const anmat::JsonValue& o, const char* key) {
    const anmat::JsonValue* v = o.Get(key);
    return v != nullptr && v->is_number() ? v->as_number() : 0.0;
  };
  out->hits = num(*cache, "hits");
  out->misses = num(*cache, "misses");
  out->fallbacks = num(*cache, "fallbacks");
  out->automata = num(*dispatch, "automata");
  out->states = num(*dispatch, "total_states");
  out->probes = num(*dispatch, "probes");
  out->probe_hits = num(*dispatch, "probe_hits");
  return true;
}

/// (row, column) of every cell listed under `array_key`/`cell_key` of a
/// result document; empty when any entry lacks them.
std::vector<anmat::CellRef> CellsOf(const anmat::JsonValue& result,
                                    const char* array_key,
                                    const char* cell_key) {
  std::vector<anmat::CellRef> out;
  const anmat::JsonValue* items = result.Get(array_key);
  if (items == nullptr || !items->is_array()) return out;
  for (const anmat::JsonValue& item : items->items()) {
    const anmat::JsonValue* cell =
        cell_key == nullptr ? &item : item.Get(cell_key);
    const anmat::JsonValue* row = cell == nullptr ? nullptr : cell->Get("row");
    const anmat::JsonValue* column =
        cell == nullptr ? nullptr : cell->Get("column");
    if (row == nullptr || column == nullptr) return {};  // malformed: none
    out.push_back(anmat::CellRef{static_cast<anmat::RowId>(row->as_int()),
                                 static_cast<uint32_t>(column->as_int())});
  }
  return out;
}

/// The repairs a `repair` result lists (cell and value after).
std::vector<anmat::AppliedRepair> RepairsOf(const anmat::JsonValue& result) {
  std::vector<anmat::AppliedRepair> out;
  const std::vector<anmat::CellRef> cells =
      CellsOf(result, "repairs", nullptr);
  const anmat::JsonValue* items = result.Get("repairs");
  for (size_t i = 0; i < cells.size(); ++i) {
    const anmat::JsonValue* after = items->at(i).Get("after");
    anmat::AppliedRepair r;
    r.cell = cells[i];
    if (after != nullptr && after->is_string()) r.after = after->as_string();
    out.push_back(std::move(r));
  }
  return out;
}

}  // namespace

void RunDaemonRw(const Options& options, MetricSet* metrics,
                 Checker* checker) {
  // -- set-up, repeated; the last one is kept --------------------------------
  std::vector<double> setup_s;
  Served served;
  for (int i = 0; i < kSetupRepeats; ++i) {
    served.StopDaemon();  // the previous repeat's
    const std::string dir = options.work_dir + "/setup" + std::to_string(i);
    std::filesystem::create_directories(dir);
    const Clock::time_point t0 = Clock::now();
    const bool ok = SetUp(options, dir, &served);
    setup_s.push_back(MsSince(t0) / 1000.0);
    checker->Attempt();
    if (!checker->Check(ok, "daemon_rw: set-up failed")) return;
  }

  // -- timed run: reader + paired writer -------------------------------------
  CacheCounters before, after;
  if (options.trace) {
    checker->Check(ReadStats(*served.reader, &before),
                   "daemon_rw: stats before the run");
  }
  // Hands one write at a time from the reader to the writer thread.
  std::mutex mu;
  std::condition_variable cv;
  bool write_pending = false, stop_writer = false, record_write = false;
  Clock::time_point write_due, write_done;
  std::vector<double> write_ms, write_late_ms;
  size_t writes_sent = 0, write_failures = 0;
  std::string last_note;

  auto write_loop = [&] {
    for (size_t i = 0;; ++i) {
      Clock::time_point due;
      bool record = false;
      {
        std::unique_lock<std::mutex> lock(mu);
        cv.wait(lock, [&] { return write_pending || stop_writer; });
        if (!write_pending) return;
        due = write_due;
        record = record_write;
      }
      std::this_thread::sleep_until(due);
      const double late_ms = MsSince(due);
      const std::string note = "perfbench write " + std::to_string(i);
      const bool ok = CallOk(
          *served.writer, "rules.annotate",
          AnnotateParams(served.project_dir, served.rule_id, note), nullptr);
      const double ms = MsSince(due);
      std::lock_guard<std::mutex> lock(mu);
      ++writes_sent;
      if (ok) {
        last_note = note;
        if (record) {
          write_ms.push_back(ms);
          write_late_ms.push_back(late_ms);
        }
      } else {
        ++write_failures;
      }
      write_done = Clock::now();
      write_pending = false;
      cv.notify_all();
    }
  };
  std::thread writer_thread(write_loop);

  Tracer tracer(false);
  std::vector<double> op_ms, traced_op_ms, untraced_pass_s, traced_pass_s;
  std::map<std::string, size_t> bodies;  // distinct detect results -> count
  size_t detect_calls = 0, read_failures = 0, overtaken = 0;
  size_t request_bytes = 0, response_bytes = 0;
  ResetPeakRss();
  const std::vector<double> pass_s = RunPasses(
      options.seconds, kMinTimedPasses, [&](size_t pass) -> double {
        tracer.set_enabled(TracedPass(options, pass));
        double pass_ms = 0;
        for (size_t i = 0; i < kDetectsPerPass; ++i) {
          const bool with_write = i % kDetectsPerWrite == 0;
          if (with_write) {
            std::lock_guard<std::mutex> lock(mu);
            write_due = Clock::now() + kWriteDelay;
            record_write = pass > 0;
            write_pending = true;
            cv.notify_all();
          }
          anmat::Result<anmat::ServiceResponse> response =
              anmat::Status::Internal("not sent");
          const double ms = tracer.Span("service.detect", [&] {
            response = served.reader->Call(
                "detect", DetectParams(served.project_dir, kMaxViolations));
          });
          const Clock::time_point detect_done = Clock::now();
          if (with_write) {
            // The next detect goes out once the write is answered; a write
            // answered before its detect took the gate first.
            std::unique_lock<std::mutex> lock(mu);
            cv.wait(lock, [&] { return !write_pending; });
            if (write_done < detect_done && pass > 0) ++overtaken;
          }
          pass_ms += ms;
          ++detect_calls;
          if (!response.ok() || !response->ok) {
            ++read_failures;
            continue;
          }
          if (pass > 0) op_ms.push_back(ms);
          if (tracer.enabled()) traced_op_ms.push_back(ms);
          std::string body = response->result.Dump();
          if (request_bytes == 0) {
            // Frame sizes as sent: the serializers are the daemon's own.
            request_bytes =
                anmat::EncodeFrame(anmat::SerializeServiceRequest(
                                       response->id, "detect",
                                       DetectParams(served.project_dir,
                                                    kMaxViolations)))
                    .size();
            response_bytes =
                anmat::EncodeFrame(anmat::SerializeServiceOk(
                                       response->id, response->result,
                                       response->text))
                    .size();
          }
          ++bodies[std::move(body)];
        }
        if (pass > 0) {
          (tracer.enabled() ? traced_pass_s : untraced_pass_s)
              .push_back(pass_ms / 1000.0);
        }
        return pass_ms / 1000.0;
      });
  {
    std::lock_guard<std::mutex> lock(mu);
    stop_writer = true;
    cv.notify_all();
  }
  writer_thread.join();
  const double peak_rss_mb = PeakRssMb();
  checker->Attempt(detect_calls + writes_sent);
  for (size_t i = 0; i < read_failures; ++i) {
    checker->Fail("daemon_rw: a detect call failed");
  }
  for (size_t i = 0; i < write_failures; ++i) {
    checker->Fail("daemon_rw: an annotate call failed");
  }
  if (options.trace) {
    checker->Check(ReadStats(*served.reader, &after),
                   "daemon_rw: stats after the run");
  }

  // -- after the run: quality calls, then the output checks -----------------
  anmat::ServiceResponse detect_all, repair;
  checker->Attempt(2);
  const bool quality_ok =
      checker->Check(CallOk(*served.reader, "detect",
                            DetectParams(served.project_dir, -1), &detect_all),
                     "daemon_rw: uncapped detect failed") &
      checker->Check(CallOk(*served.reader, "repair",
                            DetectParams(served.project_dir, -1), &repair),
                     "daemon_rw: repair failed");
  served.StopDaemon();

  // Every detect response equals the in-process rendering of the same data
  // and rules.
  auto project = anmat::Project::Open(served.project_dir,
                                      anmat::Project::OpenOptions{true, 10000});
  checker->Attempt();
  if (!checker->Check(project.ok(), "daemon_rw: read-only Project::Open")) {
    return;
  }
  const std::vector<anmat::Pfd> rules = project->ConfirmedPfds();
  {
    auto relation = anmat::ReadCsvFile(served.csv);
    anmat::Engine engine(EngineExecution());
    auto detection = relation.ok() ? engine.Detect(relation.value(), rules)
                                   : anmat::Result<anmat::DetectionResult>(
                                         relation.status());
    checker->Attempt();
    if (checker->Check(detection.ok(), "daemon_rw: in-process detect")) {
      anmat::DetectionResult capped = std::move(detection).value();
      if (capped.violations.size() > static_cast<size_t>(kMaxViolations)) {
        capped.violations.resize(static_cast<size_t>(kMaxViolations));
      }
      const std::string expected =
          anmat::DetectionToJson(relation.value(), rules, capped).Dump();
      for (const auto& [body, count] : bodies) {
        if (body != expected) {
          for (size_t i = 0; i < count; ++i) {
            checker->Fail("daemon_rw: a detect response differs from the "
                          "in-process rendering");
          }
        }
      }
    }
  }
  // The last annotate is visible after a read-only open.
  const anmat::RuleRecord* record = project->rules().Find(served.rule_id);
  checker->Check(!last_note.empty() && record != nullptr &&
                     record->note == last_note,
                 "daemon_rw: the last annotate is not visible after reopening");

  // Quality of the uncapped detect and the repair call.
  anmat::PrecisionRecall pr;
  size_t repairs = 0, correct = 0;
  if (quality_ok) {
    pr = anmat::ScoreSuspects(CellsOf(detect_all.result, "violations",
                                      "suspect"),
                              served.data.ground_truth);
    const std::vector<anmat::AppliedRepair> applied = RepairsOf(repair.result);
    repairs = applied.size();
    correct = CorrectRepairs(applied, served.data.ground_truth);
  }

  if (!options.trace) {
    if (!TailIsSupported(op_ms.size(), 0.95)) {
      checker->Fail("daemon_rw: too few detect calls for op_p95_ms");
    }
    double late_max = 0;
    for (double late : write_late_ms) late_max = std::max(late_max, late);
    std::cout << "# daemon_rw: " << kRows << " rows, " << rules.size()
              << " rules, " << op_ms.size() << " detects, "
              << PassSummary(pass_s) << ", " << write_ms.size()
              << " annotates (writer late by at most " << late_max
              << " ms, " << overtaken
              << " answered before their detect); detection tp=" << pr.true_positives
              << " fp=" << pr.false_positives
              << " fn=" << pr.false_negatives << "; repairs " << correct << "/"
              << repairs << " correct\n";
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
    return;
  }

  // -- traced run: attribution replay of the daemon's detect -----------------
  // The same CSV and rules, in process, part by part: load (csv), column
  // dictionaries (relation), detect on a warm engine, render (anmat). What
  // the round trip costs beyond them is the service layer's residual.
  std::vector<double> load_ms, dict_ms, detect_ms, render_ms, commit_ms;
  anmat::DetectionStats detect_stats;
  double distinct = 0;
  {
    anmat::Engine engine(EngineExecution());
    auto warm = project->LoadDataset("data");
    if (warm.ok()) (void)engine.Detect(warm.value(), rules);
    for (size_t i = 0; i < kReplays; ++i) {
      checker->Attempt();
      anmat::Relation relation;
      bool ok = true;
      load_ms.push_back(tracer.Span("replay.load", [&] {
        auto loaded = project->LoadDataset("data");
        ok = loaded.ok();
        if (ok) relation = std::move(loaded).value();
      }));
      if (!checker->Check(ok, "daemon_rw: replay load")) continue;
      dict_ms.push_back(tracer.Span("replay.dictionary", [&] {
        distinct = 0;
        for (size_t c = 0; c < relation.num_columns(); ++c) {
          distinct += static_cast<double>(relation.dictionary(c).num_values());
        }
      }));
      anmat::DetectionResult detection;
      detect_ms.push_back(tracer.Span("replay.detect", [&] {
        auto d = engine.Detect(relation, rules);
        ok = d.ok();
        if (ok) detection = std::move(d).value();
      }));
      if (!checker->Check(ok, "daemon_rw: replay detect")) continue;
      detect_stats = detection.stats;
      render_ms.push_back(tracer.Span("replay.render", [&] {
        const std::string text =
            anmat::RenderViolationsView(relation, rules, detection,
                                        static_cast<size_t>(kMaxViolations));
        detection.violations.resize(std::min(
            detection.violations.size(), static_cast<size_t>(kMaxViolations)));
        const std::string frame = anmat::EncodeFrame(anmat::SerializeServiceOk(
            1, anmat::DetectionToJson(relation, rules, detection), text));
        ok = !frame.empty();
      }));
    }
  }
  {
    // Project::Save on a copy of the project directory.
    const std::string copy = options.work_dir + "/store-replay";
    std::error_code ec;
    std::filesystem::copy(served.project_dir, copy,
                          std::filesystem::copy_options::recursive, ec);
    auto writable = anmat::Project::Open(copy);
    checker->Attempt();
    if (checker->Check(!ec && writable.ok(), "daemon_rw: opening the copy")) {
      for (size_t i = 0; i < kReplays; ++i) {
        bool ok = true;
        commit_ms.push_back(tracer.Span("replay.commit", [&] {
          ok = writable->AnnotateRule(served.rule_id,
                                      "replay " + std::to_string(i))
                   .ok() &&
               writable->Save().ok();
        }));
        checker->Check(ok, "daemon_rw: replay commit");
      }
    }
  }

  const double roundtrip = Median(traced_op_ms);
  const double replayed = Median(load_ms) + Median(dict_ms) +
                          Median(detect_ms) + Median(render_ms);
  const double read_bytes = static_cast<double>(FileBytes(served.csv));
  double late_max = 0;
  for (double late : write_late_ms) late_max = std::max(late_max, late);
  metrics->Set("csv.read_ms", Median(load_ms));
  metrics->Set("csv.read_bytes", read_bytes);
  metrics->Set("csv.read_mb_per_s", read_bytes / 1e6 / (Median(load_ms) / 1000));
  metrics->Set("relation.dictionary_ms", Median(dict_ms));
  metrics->Set("relation.distinct_values", distinct);
  metrics->Set("discovery.rules", static_cast<double>(rules.size()));
  metrics->Set("pattern.cache_hits", after.hits - before.hits);
  metrics->Set("pattern.cache_misses", after.misses - before.misses);
  metrics->Set("pattern.cache_fallbacks", after.fallbacks - before.fallbacks);
  const double lookups = (after.hits - before.hits) +
                         (after.misses - before.misses) +
                         (after.fallbacks - before.fallbacks);
  metrics->Set("pattern.cache_hit_ratio",
               (after.hits - before.hits) / std::max(1.0, lookups));
  metrics->Set("dispatch.automata", after.automata);
  metrics->Set("dispatch.states", after.states);
  metrics->Set("dispatch.probes", after.probes - before.probes);
  metrics->Set("dispatch.probe_hits", after.probe_hits - before.probe_hits);
  metrics->Set("dispatch.probe_hit_ratio",
               (after.probe_hits - before.probe_hits) /
                   std::max(1.0, after.probes - before.probes));
  metrics->Set("detect.detect_ms", Median(detect_ms));
  metrics->Set("detect.rows_scanned",
               static_cast<double>(detect_stats.rows_scanned));
  metrics->Set("detect.candidate_rows",
               static_cast<double>(detect_stats.candidate_rows));
  metrics->Set("detect.candidate_ratio",
               static_cast<double>(detect_stats.candidate_rows) /
                   std::max<double>(1, detect_stats.rows_scanned));
  metrics->Set("detect.violations",
               static_cast<double>(detect_stats.violations));
  if (const anmat::JsonValue* stats = repair.result.Get("stats")) {
    auto num = [&](const char* key) {
      const anmat::JsonValue* v = stats->Get(key);
      return v != nullptr && v->is_number() ? v->as_number() : 0.0;
    };
    metrics->Set("repair.passes", num("passes"));
    metrics->Set("repair.repairs", num("repairs"));
    metrics->Set("repair.conflicted_cells", num("conflicted_cells"));
  }
  metrics->Set("store.commit_ms", Median(commit_ms));
  metrics->Set("store.commits", static_cast<double>(write_ms.size()));
  metrics->Set("anmat.render_ms", Median(render_ms));
  metrics->Set("service.roundtrip_ms", roundtrip);
  metrics->Set("service.replayed_ms", replayed);
  metrics->Set("service.residual_ms", roundtrip - replayed);
  metrics->Set("service.bytes_per_call",
               static_cast<double>(request_bytes + response_bytes));
  metrics->Set("service.gate_wait_ms",
               Percentile(write_ms, 0.50) - Median(commit_ms));
  metrics->Set("bench.writer_late_max_ms", late_max);
  metrics->Set("bench.untraced_pass_s", Median(untraced_pass_s));
  metrics->Set("bench.traced_pass_s", Median(traced_pass_s));
  metrics->Set("bench.tracing_overhead_ratio",
               Median(traced_pass_s) / Median(untraced_pass_s));
}

}  // namespace perfbench
