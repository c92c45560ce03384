// Tests of the benchmark's own helpers: the order statistics in stats.h
// (against values from Python's statistics module, which the spread check
// uses) and the metric catalogue in metrics.h. Exit status 0 when all pass.
//
//   perfbench/run.py --self-test

#include <algorithm>
#include <cmath>
#include <iostream>
#include <set>
#include <string>
#include <vector>

#include "metrics.h"
#include "stats.h"

namespace {

int g_failures = 0;

void Expect(bool ok, const std::string& what) {
  if (!ok) {
    ++g_failures;
    std::cerr << "FAIL: " << what << "\n";
  }
}

void ExpectNear(double got, double want, const std::string& what) {
  Expect(std::fabs(got - want) <= 1e-9 * std::max(1.0, std::fabs(want)),
         what + ": got " + perfbench::FormatNumber(got) + ", want " +
             perfbench::FormatNumber(want));
}

std::vector<double> Range(int n) {
  std::vector<double> v;
  for (int i = 1; i <= n; ++i) v.push_back(i);
  return v;
}

void TestMedian() {
  using perfbench::Median;
  ExpectNear(Median({}), 0.0, "median of nothing");
  ExpectNear(Median({7}), 7.0, "median of one");
  ExpectNear(Median({3, 1, 2}), 2.0, "odd median");
  ExpectNear(Median({4, 1, 3, 2}), 2.5, "even median averages the middle");
}

void TestPercentile() {
  using perfbench::Percentile;
  const std::vector<double> hundred = Range(100);
  ExpectNear(Percentile(hundred, 0.50), 50, "p50 of 1..100");
  ExpectNear(Percentile(hundred, 0.95), 95, "p95 of 1..100");
  ExpectNear(Percentile(hundred, 1.0), 100, "p100 is the maximum");
  ExpectNear(Percentile({5, 1, 3}, 0.5), 3, "p50 sorts first");
  ExpectNear(Percentile({9}, 0.95), 9, "p95 of one sample");
  ExpectNear(Percentile({}, 0.95), 0, "p95 of nothing");
}

void TestTailRule() {
  using perfbench::SamplesBeyond;
  using perfbench::TailIsSupported;
  // p95 has ten samples beyond it from 200 samples on, not before.
  Expect(SamplesBeyond(200, 0.95) == 10, "200 samples: 10 beyond p95");
  Expect(SamplesBeyond(199, 0.95) == 9, "199 samples: 9 beyond p95");
  Expect(TailIsSupported(200, 0.95), "p95 supported at 200 samples");
  Expect(!TailIsSupported(199, 0.95), "p95 unsupported at 199 samples");
  Expect(TailIsSupported(20, 0.50), "p50 supported at 20 samples");
  Expect(!TailIsSupported(19, 0.50), "p50 unsupported at 19 samples");
  Expect(SamplesBeyond(0, 0.95) == 0, "no samples, none beyond");
  Expect(SamplesBeyond(1000, 0.99) == 10, "1000 samples: 10 beyond p99");
}

void TestQuartiles() {
  using perfbench::Quartiles;
  // Expected values from Python:
  //   statistics.quantiles(values, n=4) -> [q1, q2, q3]
  struct Case {
    std::vector<double> values;
    double q1, q3;
  };
  const std::vector<Case> cases = {
      {{1, 2}, 0.75, 2.25},
      {{1, 2, 3}, 1.0, 3.0},
      {{1, 2, 3, 4}, 1.25, 3.75},
      {{1, 2, 3, 4, 5}, 1.5, 4.5},
      {Range(10), 2.75, 8.25},
      {{10.5, 9.25, 11.0, 10.0, 9.75, 10.25, 12.5, 9.5, 10.75, 11.25},
       9.6875, 11.0625},
  };
  for (const Case& c : cases) {
    const auto q = Quartiles(c.values);
    const std::string n = std::to_string(c.values.size());
    ExpectNear(q[0], c.q1, "q1 of " + n + " samples");
    ExpectNear(q[1], c.q3, "q3 of " + n + " samples");
  }
}

void TestMetricNames() {
  std::set<std::string> seen;
  for (const auto* catalogue :
       {&perfbench::EndToEndMetrics(), &perfbench::PerLayerMetrics()}) {
    for (const perfbench::MetricDef& def : *catalogue) {
      Expect(perfbench::ValidMetricName(def.name),
             std::string("metric name ") + def.name);
      Expect(perfbench::ValidUnit(def.unit),
             std::string("unit of ") + def.name);
      Expect(seen.insert(def.name).second,
             std::string("metric named twice: ") + def.name);
    }
  }
  Expect(seen.count("setup_s") == 1, "setup_s is an end-to-end metric");
  Expect(perfbench::ValidMetricName("a.b_c-9"), "dots, underscores, dashes");
  Expect(!perfbench::ValidMetricName(""), "empty name");
  Expect(!perfbench::ValidMetricName(".leading"), "leading dot");
  Expect(!perfbench::ValidMetricName("has space"), "space");
  Expect(!perfbench::ValidMetricName("slash/name"), "slash");
  Expect(!perfbench::ValidMetricName(std::string(65, 'a')), "65 letters");
  Expect(perfbench::ValidUnit("MB/s") && perfbench::ValidUnit("%"),
         "units with / and %");
}

void TestResultLine() {
  perfbench::MetricSet metrics(perfbench::EndToEndMetrics());
  metrics.Set("run_s", 1.25);
  const std::string line = metrics.ResultJson(true, 3, 0);
  Expect(line.rfind("{\"correct\": true, \"attempted\": 3, \"failed\": 0, "
                    "\"metrics\": {\"setup_s\": {\"value\": 0, \"unit\": "
                    "\"s\"}, \"run_s\": {\"value\": 1.25, \"unit\": \"s\"}",
                    0) == 0,
         "result line layout: " + line);
  Expect(metrics.Unknown().empty(), "catalogue names are known");
  metrics.Set("not.a.metric", 1);
  Expect(metrics.Unknown().size() == 1, "unknown names are reported");
}

}  // namespace

int main() {
  TestMedian();
  TestPercentile();
  TestTailRule();
  TestQuartiles();
  TestMetricNames();
  TestResultLine();
  if (g_failures == 0) std::cout << "perfbench_selftest: all passed\n";
  return g_failures == 0 ? 0 : 1;
}
