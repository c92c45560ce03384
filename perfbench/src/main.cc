// anmat_perfbench: the end-to-end benchmark.
//
//   anmat_perfbench --workload batch_clean|stream_feed|daemon_rw
//                   --seed N --seconds S --trace 0|1 --work-dir DIR
//                   [--git-sha SHA]
//
// Generates the workload's inputs from the seed under DIR, runs the fixed
// work repeatedly for S seconds, checks every output, and prints one line
// per metric followed by the result line (the last line of stdout):
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// Untraced runs print the end-to-end metrics, traced runs the per-layer
// ones. Exit status 0 only when every check passed. perfbench/run.py builds
// this binary and runs it; see perfbench/NOTES.md.

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <filesystem>
#include <iostream>
#include <string>

#include "common.h"
#include "metrics.h"

namespace {

int Usage(const std::string& why) {
  std::cerr << "anmat_perfbench: " << why << "\n"
            << "usage: anmat_perfbench --workload batch_clean|stream_feed|"
               "daemon_rw --seed N --seconds S --trace 0|1 --work-dir DIR "
               "[--git-sha SHA]\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Options options;
  std::string git_sha;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return Usage("missing value for " + flag);
    const std::string value = argv[++i];
    if (flag == "--workload") {
      options.workload = value;
    } else if (flag == "--seed") {
      options.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      options.seconds = std::strtod(value.c_str(), nullptr);
    } else if (flag == "--trace") {
      options.trace = value == "1";
    } else if (flag == "--work-dir") {
      options.work_dir = value;
    } else if (flag == "--git-sha") {
      git_sha = value;
    } else {
      return Usage("unknown flag " + flag);
    }
  }
  if (options.work_dir.empty()) return Usage("--work-dir is required");
  if (!(options.seconds > 0)) return Usage("--seconds must be positive");

  void (*run)(const perfbench::Options&, perfbench::MetricSet*,
              perfbench::Checker*) = nullptr;
  if (options.workload == "batch_clean") run = perfbench::RunBatchClean;
  if (options.workload == "stream_feed") run = perfbench::RunStreamFeed;
  if (options.workload == "daemon_rw") run = perfbench::RunDaemonRw;
  if (run == nullptr) return Usage("unknown workload '" + options.workload + "'");

  std::cout << perfbench::HostLine(git_sha) << "\n"
            << "# workload=" << options.workload << " seed=" << options.seed
            << " seconds=" << options.seconds
            << " trace=" << (options.trace ? 1 : 0) << "\n";

  std::error_code ec;
  std::filesystem::remove_all(options.work_dir, ec);
  std::filesystem::create_directories(options.work_dir, ec);
  if (ec) return Usage("cannot create " + options.work_dir);

  perfbench::MetricSet metrics(options.trace ? perfbench::PerLayerMetrics()
                                             : perfbench::EndToEndMetrics());
  perfbench::Checker checker;
  run(options, &metrics, &checker);
  std::filesystem::remove_all(options.work_dir, ec);

  // The benchmark's own consistency: every name is in the catalogue and every
  // value is a finite number.
  for (const std::string& name : metrics.Unknown()) {
    checker.Fail("metric outside the catalogue: " + name);
  }
  const auto& catalogue = options.trace ? perfbench::PerLayerMetrics()
                                        : perfbench::EndToEndMetrics();
  for (const perfbench::MetricDef& def : catalogue) {
    if (!std::isfinite(metrics.Get(def.name))) {
      checker.Fail(std::string("metric is not finite: ") + def.name);
      metrics.Set(def.name, 0.0);
    }
  }
  if (checker.attempted() == 0) checker.Fail("no operation was attempted");

  const bool correct = checker.failed() == 0;
  std::cout << metrics.Table();
  std::cout << metrics.ResultJson(correct, std::max<size_t>(1, checker.attempted()),
                                  checker.failed())
            << std::endl;
  return correct ? 0 : 1;
}
