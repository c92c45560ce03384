#include "common.h"

#include <sys/resource.h>
#include <unistd.h>

#include <fstream>
#include <iostream>
#include <sstream>
#include <thread>

#include "stats.h"

namespace perfbench {

void Checker::Fail(const std::string& what) {
  ++failed_;
  // Only the first few are spelled out; the count says the rest.
  if (failed_ <= 10) std::cout << "# CHECK FAILED: " << what << "\n";
}

double Tracer::Span(const std::string& name, const std::function<void()>& fn) {
  if (!enabled_) {
    const Clock::time_point start = Clock::now();
    fn();
    return MsSince(start);
  }
  const size_t index = records_.size();
  records_.push_back(Record{name, MsSince(origin_), 0});
  fn();
  Record& r = records_[index];
  r.end_ms = MsSince(origin_);
  return r.end_ms - r.start_ms;
}

double Tracer::TotalMs(const std::string& name) const {
  double total = 0;
  for (const Record& r : records_) {
    if (r.name == name) total += r.end_ms - r.start_ms;
  }
  return total;
}

namespace {

/// VmHWM (peak RSS) of this process in kB, from /proc/self/status; falls
/// back to getrusage's lifetime peak.
double PeakRssKb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      std::istringstream in(line.substr(6));
      double kb = 0;
      in >> kb;
      return kb;
    }
  }
  struct rusage usage {};
  ::getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss);
}

/// Peak recorded by a reset that could not clear the kernel's mark.
double g_rss_floor_kb = 0;

}  // namespace

void ResetPeakRss() {
  // "5" resets the peak RSS mark to the current RSS (proc(5)).
  std::ofstream clear("/proc/self/clear_refs");
  clear << "5";
  clear.flush();
  g_rss_floor_kb = clear.good() ? 0 : PeakRssKb();
}

double PeakRssMb() {
  const double kb = PeakRssKb();
  return (g_rss_floor_kb > 0 ? kb - g_rss_floor_kb : kb) / 1024.0;
}

bool SameCells(const anmat::Relation& a, const anmat::Relation& b) {
  if (a.num_rows() != b.num_rows() || a.num_columns() != b.num_columns()) {
    return false;
  }
  for (size_t c = 0; c < a.num_columns(); ++c) {
    for (anmat::RowId r = 0; r < a.num_rows(); ++r) {
      if (a.cell(r, c) != b.cell(r, c)) return false;
    }
  }
  return true;
}

size_t CorrectRepairs(const std::vector<anmat::AppliedRepair>& repairs,
                      const std::vector<anmat::InjectedError>& truth) {
  std::map<anmat::CellRef, const std::string*> original;
  for (const anmat::InjectedError& e : truth) original[e.cell] = &e.original;
  size_t correct = 0;
  for (const anmat::AppliedRepair& r : repairs) {
    auto it = original.find(r.cell);
    if (it != original.end() && *it->second == r.after) ++correct;
  }
  return correct;
}

uint64_t FileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary | std::ios::ate);
  if (!in) return 0;
  return static_cast<uint64_t>(in.tellg());
}

std::string HostLine(const std::string& git_sha) {
  std::ostringstream out;
  out << "# host: git=" << (git_sha.empty() ? "unknown" : git_sha)
      << " nproc=" << std::thread::hardware_concurrency()
      << " compiler=\"" << PERFBENCH_COMPILER << "\""
      << " build=" << PERFBENCH_BUILD_TYPE
      << " engine_threads=" << kEngineThreads
      << " flush=every-fsync-issued";
  return out.str();
}

std::vector<double> RunPasses(double seconds, size_t min_timed,
                              const std::function<double(size_t)>& pass) {
  const Clock::time_point start = Clock::now();
  pass(0);
  std::vector<double> durations;
  while (durations.size() < min_timed || MsSince(start) < seconds * 1000) {
    durations.push_back(pass(durations.size() + 1));
  }
  return durations;
}

std::string PassSummary(const std::vector<double>& pass_s) {
  const std::array<double, 2> q = Quartiles(pass_s);
  std::ostringstream out;
  out << pass_s.size() << " timed passes of median " << Median(pass_s)
      << " s (quartiles " << q[0] << "-" << q[1] << " s)";
  return out.str();
}

void LayerSeries::Report(MetricSet* metrics) const {
  for (const auto& [name, values] : series_) {
    metrics->Set(name, Median(values));
  }
}

}  // namespace perfbench
