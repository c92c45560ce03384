// A8 — anmatd warm engines vs one-shot cold opens.
//
// The service daemon's reason to exist (src/service/): a one-shot CLI
// invocation pays project open (lock + journal check + catalog and rules
// parse) and automaton compilation on every command, while a daemon-hosted
// project pays them once and serves every later request from a warm
// Engine whose engine-wide AutomatonCache already holds every compiled
// pattern. This bench drives the same detect workload both ways — cold:
// spawning the real `anmat` CLI per call, exactly what a script invoking
// the one-shot binary pays; warm: a resident client doing framed-protocol
// round-trips to a live daemon over a unix socket — and checks:
//
//  1. the warm path answers with byte-identical result JSON (the daemon
//     reuses anmat/report.h, so `--connect` is transparent);
//  2. warm total wall-clock beats cold total wall-clock over the same
//     number of calls, socket round-trips included;
//  3. the warm calls answer from the kept detection: the priming call
//     detects (its automaton cache hits show the compile-once lookups),
//     and every later call of the unchanged dataset under the same rules
//     reuses that call's detection state, so the cache's hits and misses
//     do not grow after it (the `stats` verb exposes the counters this
//     bench prints).
//
// Content: the comparison report as JSON. Performance: google-benchmark
// timings for both paths (JSON via --benchmark_format=json, like every
// other bench_* binary).

#include <benchmark/benchmark.h>
#include <unistd.h>

#include <chrono>
#include <filesystem>
#include <iostream>
#include <string>
#include <thread>
#include <vector>

#include "anmat/engine.h"
#include "anmat/project.h"
#include "anmat/report.h"
#include "bench_util.h"
#include "csv/csv_writer.h"
#include "datagen/datasets.h"
#include "service/client.h"
#include "service/daemon.h"

namespace {

using anmat_bench::Banner;
using anmat_bench::CheckOrDie;
using anmat_bench::Sized;

double MillisSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - start)
      .count();
}

/// The seeded on-disk project every A8 measurement runs against.
struct Fixture {
  std::string dir;
  std::string socket_path;
  size_t rows = 0;
  size_t rules = 0;
};

const Fixture& BenchFixture() {
  static const Fixture fixture = [] {
    Fixture f;
    const std::string tag = std::to_string(::getpid());
    f.dir = "/tmp/anmat_bench_a8_" + tag;
    f.socket_path = "/tmp/anmat_bench_a8_" + tag + ".sock";
    std::filesystem::remove_all(f.dir);

    // Duplicate-heavy zip/city/state with injected errors (the A7 shape):
    // several PFDs, non-empty violations, dozens of distinct patterns for
    // the automaton cache to amortize.
    const anmat::Dataset d =
        anmat::ZipCityStateDataset(Sized(20000, 4000), 71, 0.02);
    const std::string csv = f.dir + "/data.csv";

    anmat::Project project = anmat::Project::Init(f.dir, "a8").value();
    CheckOrDie(anmat::WriteCsvFile(d.relation, csv).ok(),
               "writing bench CSV failed");
    CheckOrDie(project.AttachDataset("data", csv).ok(), "attach failed");
    anmat::Project::Parameters parameters;
    parameters.min_coverage = 0.4;
    project.set_parameters(parameters);

    anmat::Engine engine(anmat::ExecutionOptions{1, true, nullptr});
    auto discovery =
        engine.Discover(d.relation, project.discovery_options());
    CheckOrDie(discovery.ok() && !discovery->pfds.empty(),
               "discovery for bench rules failed");
    for (const anmat::DiscoveredPfd& disc : discovery->pfds) {
      const uint64_t id = project.AddDiscoveredRule(disc, "data");
      CheckOrDie(
          project.SetRuleStatus(id, anmat::RuleStatus::kConfirmed).ok(),
          "confirm failed");
    }
    CheckOrDie(project.Save().ok(), "save failed");

    f.rows = d.relation.num_rows();
    f.rules = discovery->pfds.size();
    return f;
  }();
  return fixture;
}

/// Both paths run `detect --max 25 --format json`: the cap keeps the
/// rendered document small on both sides, so the measured difference is
/// the amortization (process spawn + project open + automaton
/// compilation), not payload shuttling. (Uncapped, a 600 KB violations
/// document costs more to serialize and re-parse than a cold open saves —
/// the cap is what a monitoring client would use anyway.)
constexpr int64_t kMaxViolations = 25;

/// Path of the real `anmat` binary (set from argv[0] in main — the bench
/// and the CLI land in the same build directory).
std::string g_cli_path = "./anmat";

/// The one-shot cold path, for real: spawn the CLI, which opens the
/// project, builds a fresh engine, compiles every pattern, detects, and
/// prints the --format json document. Returns its stdout bytes.
std::string ColdDetectJson(const Fixture& f) {
  const std::string command = "'" + g_cli_path + "' detect --project '" +
                              f.dir + "' --max " +
                              std::to_string(kMaxViolations) +
                              " --format json";
  FILE* pipe = ::popen(command.c_str(), "r");
  CheckOrDie(pipe != nullptr, "spawning the CLI failed");
  std::string out;
  char buf[64 * 1024];
  size_t n;
  while ((n = ::fread(buf, 1, sizeof(buf), pipe)) > 0) out.append(buf, n);
  CheckOrDie(::pclose(pipe) == 0, "one-shot CLI detect failed");
  return out;
}

/// A daemon serving the fixture on a background thread, stopped on
/// destruction.
struct DaemonHarness {
  explicit DaemonHarness(const Fixture& f) {
    anmat::Daemon::Options options;
    options.socket_path = f.socket_path;
    options.engine_threads = 1;
    daemon = anmat::Daemon::Start(options).value();
    thread = std::thread([this] { (void)daemon->Serve(); });
  }
  ~DaemonHarness() {
    daemon->RequestStop();
    thread.join();
  }
  std::unique_ptr<anmat::Daemon> daemon;
  std::thread thread;
};

anmat::JsonValue DetectParams(const Fixture& f) {
  anmat::JsonValue params = anmat::JsonValue::Object();
  params.Set("project", anmat::JsonValue::String(f.dir));
  params.Set("max", anmat::JsonValue::Int(kMaxViolations));
  return params;
}

/// One warm round-trip; returns the bytes the CLI's --connect mode would
/// print (pretty JSON + newline), so cold and warm compare byte-for-byte.
std::string WarmDetectJson(anmat::DaemonClient& client, const Fixture& f) {
  auto response = client.Call("detect", DetectParams(f));
  CheckOrDie(response.ok() && response->ok, "warm detect failed");
  return response->result.DumpPretty() + "\n";
}

void WarmVsColdReport() {
  Banner("A8", "daemon warm engines vs one-shot cold detect");
  const Fixture& f = BenchFixture();
  const size_t kCalls = Sized(12, 5);

  // Cold: what `anmat detect --format json` costs per invocation, spawn
  // and all.
  auto t0 = std::chrono::steady_clock::now();
  std::string cold_json;
  for (size_t i = 0; i < kCalls; ++i) cold_json = ColdDetectJson(f);
  const double cold_ms = MillisSince(t0);

  // Warm: the same calls as framed round-trips to a live daemon. One
  // unmeasured priming call opens the project and compiles every pattern;
  // the measured calls ride the warm engine — the steady state a resident
  // daemon serves from.
  DaemonHarness harness(f);
  auto client = anmat::DaemonClient::Connect(f.socket_path);
  CheckOrDie(client.ok(), "connect failed");
  (void)WarmDetectJson(*client, f);
  const auto cache_counters = [&client] {
    auto stats = client->Call("stats", anmat::JsonValue::Object());
    CheckOrDie(stats.ok() && stats->ok, "stats verb failed");
    const anmat::JsonValue& cache =
        *stats->result.Get("project_stats")->at(0).Get("automaton_cache");
    return std::make_pair(cache.GetInt("hits").value(),
                          cache.GetInt("misses").value());
  };
  const std::pair<int64_t, int64_t> primed = cache_counters();
  t0 = std::chrono::steady_clock::now();
  std::string warm_json;
  for (size_t i = 0; i < kCalls; ++i) warm_json = WarmDetectJson(*client, f);
  const double warm_ms = MillisSince(t0);

  CheckOrDie(warm_json == cold_json,
             "daemon detect JSON diverged from the one-shot rendering");

  auto stats = client->Call("stats", anmat::JsonValue::Object());
  CheckOrDie(stats.ok() && stats->ok, "stats verb failed");
  const anmat::JsonValue& cache =
      *stats->result.Get("project_stats")->at(0).Get("automaton_cache");
  const int64_t hits = cache.GetInt("hits").value();
  const int64_t misses = cache.GetInt("misses").value();

  std::cout << "{\n  \"rows\": " << f.rows << ",\n  \"rules\": " << f.rules
            << ",\n  \"calls\": " << kCalls
            << ",\n  \"cold_total_ms\": " << cold_ms
            << ",\n  \"cold_per_call_ms\": " << cold_ms / kCalls
            << ",\n  \"warm_total_ms\": " << warm_ms
            << ",\n  \"warm_per_call_ms\": " << warm_ms / kCalls
            << ",\n  \"warm_speedup\": " << cold_ms / warm_ms
            << ",\n  \"automaton_cache\": {\"hits\": " << hits
            << ", \"misses\": " << misses << ", \"fallbacks\": "
            << cache.GetInt("fallbacks").value() << "}\n}\n";

  // Checks after the numbers so a failure still shows them.
  CheckOrDie(hits > 0, "warm engine shows no automaton cache hits");
  CheckOrDie(hits == primed.first && misses == primed.second,
             "warm calls after the first looked up automata: the kept "
             "detection did not answer them");
  CheckOrDie(warm_ms < cold_ms,
             "warm daemon calls did not beat cold one-shot calls");
}

void BM_ColdOneShotDetect(benchmark::State& state) {
  const Fixture& f = BenchFixture();
  for (auto _ : state) {
    std::string json = ColdDetectJson(f);
    benchmark::DoNotOptimize(json);
  }
}
BENCHMARK(BM_ColdOneShotDetect);

void BM_WarmDaemonDetect(benchmark::State& state) {
  const Fixture& f = BenchFixture();
  DaemonHarness harness(f);
  auto client = anmat::DaemonClient::Connect(f.socket_path);
  CheckOrDie(client.ok(), "connect failed");
  // Prime the host so the measured loop is the steady warm state.
  std::string json = WarmDetectJson(*client, f);
  for (auto _ : state) {
    json = WarmDetectJson(*client, f);
    benchmark::DoNotOptimize(json);
  }
}
BENCHMARK(BM_WarmDaemonDetect);

}  // namespace

int main(int argc, char** argv) {
  const std::string self = argv[0];
  const size_t slash = self.rfind('/');
  g_cli_path =
      (slash == std::string::npos ? std::string(".") : self.substr(0, slash)) +
      "/anmat";
  WarmVsColdReport();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  std::filesystem::remove_all(BenchFixture().dir);
  return 0;
}
