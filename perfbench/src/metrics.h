#ifndef PERFBENCH_METRICS_H_
#define PERFBENCH_METRICS_H_

/// \file metrics.h
/// The benchmark's metric catalogue and its result line. Header-only and
/// free of the anmat library so perfbench_selftest can check every name.
///
/// Every workload prints every metric of the mode it runs in: the
/// end-to-end metrics untraced (`--trace 0`), the per-layer metrics traced
/// (`--trace 1`). A per-layer metric of a layer the workload does not
/// exercise reads 0 (NOTES.md lists which layers each workload reaches).

#include <cstdio>
#include <map>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

struct MetricDef {
  const char* name;
  const char* unit;
};

/// What a user of ANMAT sees (BENCHMARK.json "end_to_end").
inline const std::vector<MetricDef>& EndToEndMetrics() {
  static const std::vector<MetricDef> defs = {
      {"setup_s", "s"},        {"run_s", "s"},
      {"op_p50_ms", "ms"},     {"op_p95_ms", "ms"},
      {"write_p50_ms", "ms"},  {"peak_rss_mb", "MB"},
      {"detect_f1", "ratio"},  {"repair_precision", "ratio"},
  };
  return defs;
}

/// Single layers, named after the source directories (BENCHMARK.json
/// "per_layer"). Ratios come with their base counts.
inline const std::vector<MetricDef>& PerLayerMetrics() {
  static const std::vector<MetricDef> defs = {
      {"csv.read_ms", "ms"},
      {"csv.read_bytes", "bytes"},
      {"csv.read_mb_per_s", "MB/s"},
      {"csv.write_ms", "ms"},
      {"relation.dictionary_ms", "ms"},
      {"relation.distinct_values", "count"},
      {"discovery.profile_ms", "ms"},
      {"discovery.discover_ms", "ms"},
      {"discovery.discover_ms.zip", "ms"},
      {"discovery.discover_ms.phone", "ms"},
      {"discovery.discover_ms.name", "ms"},
      {"discovery.discover_ms.employee", "ms"},
      {"discovery.discover_ms.compound", "ms"},
      {"discovery.discover_ms.web", "ms"},
      {"discovery.rules", "count"},
      {"pattern.cache_hits", "count"},
      {"pattern.cache_misses", "count"},
      {"pattern.cache_fallbacks", "count"},
      {"pattern.cache_hit_ratio", "ratio"},
      {"dispatch.automata", "count"},
      {"dispatch.states", "count"},
      {"dispatch.probes", "count"},
      {"dispatch.probe_hits", "count"},
      {"dispatch.probe_hit_ratio", "ratio"},
      {"detect.detect_ms", "ms"},
      {"detect.rows_scanned", "count"},
      {"detect.candidate_rows", "count"},
      {"detect.candidate_ratio", "ratio"},
      {"detect.violations", "count"},
      {"detect.append_ms", "ms"},
      {"detect.append_first_p50_ms", "ms"},
      {"detect.append_last_p50_ms", "ms"},
      {"detect.append_growth", "ratio"},
      {"detect.stream_distinct_values", "count"},
      {"detect.stream_conflicts", "count"},
      {"repair.repair_ms", "ms"},
      {"repair.passes", "count"},
      {"repair.repairs", "count"},
      {"repair.conflicted_cells", "count"},
      {"repair.stream_repairs", "count"},
      {"store.commit_ms", "ms"},
      {"store.commits", "count"},
      {"anmat.render_ms", "ms"},
      {"service.roundtrip_ms", "ms"},
      {"service.replayed_ms", "ms"},
      {"service.residual_ms", "ms"},
      {"service.bytes_per_call", "bytes"},
      {"service.gate_wait_ms", "ms"},
      {"bench.writer_late_max_ms", "ms"},
      {"bench.untraced_pass_s", "s"},
      {"bench.traced_pass_s", "s"},
      {"bench.tracing_overhead_ratio", "ratio"},
  };
  return defs;
}

/// A metric name starts with a letter or digit and holds at most 64
/// letters, digits, '_', '.' and '-'.
inline bool ValidMetricName(std::string_view name) {
  if (name.empty() || name.size() > 64) return false;
  auto alnum = [](char c) {
    return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
           (c >= '0' && c <= '9');
  };
  if (!alnum(name[0])) return false;
  for (char c : name) {
    if (!alnum(c) && c != '_' && c != '.' && c != '-') return false;
  }
  return true;
}

/// A unit holds at most 16 letters, digits, '_', '/', '%', '.' and '-'.
inline bool ValidUnit(std::string_view unit) {
  if (unit.empty() || unit.size() > 16) return false;
  for (char c : unit) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '_' || c == '/' ||
                    c == '%' || c == '.' || c == '-';
    if (!ok) return false;
  }
  return true;
}

/// Formats a double with every significant digit (no rounding to a fixed
/// number of decimals).
inline std::string FormatNumber(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

/// The values one run measured, keyed by metric name. The catalogue
/// decides the unit.
class MetricSet {
 public:
  explicit MetricSet(const std::vector<MetricDef>& catalogue)
      : catalogue_(&catalogue) {}

  void Set(const std::string& name, double value) { values_[name] = value; }
  double Get(const std::string& name) const {
    auto it = values_.find(name);
    return it == values_.end() ? 0.0 : it->second;
  }

  /// Names set that the catalogue lacks (a bug in a workload).
  std::vector<std::string> Unknown() const {
    std::vector<std::string> out;
    for (const auto& [name, value] : values_) {
      bool found = false;
      for (const MetricDef& def : *catalogue_) found |= name == def.name;
      if (!found) out.push_back(name);
    }
    return out;
  }

  /// One human-readable line per metric, in catalogue order.
  std::string Table() const {
    std::string out;
    for (const MetricDef& def : *catalogue_) {
      out += "  " + std::string(def.name) + " = " +
             FormatNumber(Get(def.name)) + " " + def.unit + "\n";
    }
    return out;
  }

  /// The result line: {"correct", "attempted", "failed", "metrics"}, every
  /// catalogue metric present.
  std::string ResultJson(bool correct, size_t attempted, size_t failed) const {
    std::string out = "{\"correct\": ";
    out += correct ? "true" : "false";
    out += ", \"attempted\": " + std::to_string(attempted);
    out += ", \"failed\": " + std::to_string(failed);
    out += ", \"metrics\": {";
    bool first = true;
    for (const MetricDef& def : *catalogue_) {
      if (!first) out += ", ";
      first = false;
      out += '"';
      out += def.name;
      out += "\": {\"value\": ";
      out += FormatNumber(Get(def.name));
      out += ", \"unit\": \"";
      out += def.unit;
      out += "\"}";
    }
    out += "}}";
    return out;
  }

 private:
  const std::vector<MetricDef>* catalogue_;
  std::map<std::string, double> values_;
};

}  // namespace perfbench

#endif  // PERFBENCH_METRICS_H_
