#ifndef PERFBENCH_COMMON_H_
#define PERFBENCH_COMMON_H_

/// \file common.h
/// What the three workloads share: the command line, the clock, the output
/// checks, the span recorder of the traced run, peak-RSS bookkeeping and the
/// fixed engine settings.

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "datagen/error_injector.h"
#include "metrics.h"
#include "relation/relation.h"
#include "util/thread_pool.h"

namespace perfbench {

/// Engine threads in every workload (and in the daemon's engines): fixed so
/// runs on hosts with different core counts measure the same work.
constexpr size_t kEngineThreads = 2;

/// How many times each run repeats its set-up; setup_s is the median.
constexpr int kSetupRepeats = 5;

inline anmat::ExecutionOptions EngineExecution() {
  return anmat::ExecutionOptions{kEngineThreads, true, nullptr};
}

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string work_dir;  ///< working directory, removed at exit
};

using Clock = std::chrono::steady_clock;

inline double MsBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}
inline double MsSince(Clock::time_point start) {
  return MsBetween(start, Clock::now());
}

/// Counts operations and output checks. Every failed check fails the run;
/// the run still prints its numbers so the failure can be read beside them.
class Checker {
 public:
  void Attempt(size_t n = 1) { attempted_ += n; }
  /// Records one failed operation (an error status or a wrong output).
  void Fail(const std::string& what);
  /// Fails unless `ok`; returns `ok`.
  bool Check(bool ok, const std::string& what) {
    if (!ok) Fail(what);
    return ok;
  }
  size_t attempted() const { return attempted_; }
  size_t failed() const { return failed_; }

 private:
  size_t attempted_ = 0;
  size_t failed_ = 0;
};

/// Spans of the traced run, recorded from the benchmark's own code around
/// each call into a layer and kept in memory until the run ends. Disabled,
/// Span() only runs the call.
class Tracer {
 public:
  struct Record {
    std::string name;
    double start_ms = 0;  ///< since the tracer was made
    double end_ms = 0;
  };

  explicit Tracer(bool enabled) : enabled_(enabled), origin_(Clock::now()) {}

  bool enabled() const { return enabled_; }
  void set_enabled(bool on) { enabled_ = on; }

  /// Runs `fn` inside a span called `name`; returns its duration in ms
  /// whether or not tracing is on.
  double Span(const std::string& name, const std::function<void()>& fn);

  /// Sum of the durations of every span called `name`.
  double TotalMs(const std::string& name) const;

  void Clear() { records_.clear(); }

 private:
  bool enabled_;
  Clock::time_point origin_;
  std::vector<Record> records_;
};

/// Peak resident set size since the last ResetPeakRss, in MB. Reset uses
/// /proc/self/clear_refs; where that is refused the reset records the
/// current peak and PeakRssMb reports the growth above it.
void ResetPeakRss();
double PeakRssMb();

/// True when both relations hold the same cells (and column count).
bool SameCells(const anmat::Relation& a, const anmat::Relation& b);

/// How many of `repairs` restore the original value of an injected error.
size_t CorrectRepairs(const std::vector<anmat::AppliedRepair>& repairs,
                      const std::vector<anmat::InjectedError>& truth);

/// Total size in bytes of a file (0 when missing).
uint64_t FileBytes(const std::string& path);

/// Compiler, build type, nproc and engine threads, as a `# host:` line.
std::string HostLine(const std::string& git_sha);

/// Runs `pass(0)`, a warm-up whose outputs are checked but whose timings
/// are not reported (the first pass in a process runs 15-50% slower while
/// the heap grows), then `pass(1)`, `pass(2)`, ... until `seconds` have gone
/// by since the start and at least `min_timed` timed passes ran. Each pass
/// returns the seconds its fixed work took (checks made between operations
/// excluded); the result holds those of the timed passes, in order. Traced
/// runs trace the even timed passes and leave the odd ones untraced, so the
/// tracing overhead is measured inside the same run.
std::vector<double> RunPasses(double seconds, size_t min_timed,
                              const std::function<double(size_t)>& pass);

/// "N timed passes of median M s (quartiles Q1-Q3 s)" for a summary line.
std::string PassSummary(const std::vector<double>& pass_s);

/// Whether timed pass `pass` of a traced run records spans.
inline bool TracedPass(const Options& options, size_t pass) {
  return options.trace && pass > 0 && pass % 2 == 0;
}

/// Per-pass values of the traced run's layer metrics; the run reports the
/// median of each over its traced passes.
class LayerSeries {
 public:
  void Add(const std::string& name, double value) {
    series_[name].push_back(value);
  }
  /// Copies every series' median into `metrics`.
  void Report(MetricSet* metrics) const;

 private:
  std::map<std::string, std::vector<double>> series_;
};

/// The workloads. Each fills `metrics` (end-to-end or per-layer, by
/// options.trace) and records its operations and checks in `checker`.
void RunBatchClean(const Options& options, MetricSet* metrics,
                   Checker* checker);
void RunStreamFeed(const Options& options, MetricSet* metrics,
                   Checker* checker);
void RunDaemonRw(const Options& options, MetricSet* metrics,
                 Checker* checker);

}  // namespace perfbench

#endif  // PERFBENCH_COMMON_H_
