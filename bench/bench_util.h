#ifndef ANMAT_BENCH_BENCH_UTIL_H_
#define ANMAT_BENCH_BENCH_UTIL_H_

/// \file bench_util.h
/// Shared helpers for the reproduction benchmarks: every bench binary first
/// prints the *content* artifact it reproduces (the table/figure rows), then
/// runs google-benchmark timings for the algorithmic claims involved.

#include <benchmark/benchmark.h>

#include <cstdlib>
#include <iostream>
#include <string>
#include <utility>
#include <vector>

#include "anmat/engine.h"

namespace anmat_bench {

/// True when ANMAT_BENCH_QUICK is set (tools/bench.sh --quick / the CI
/// smoke job): benches shrink their workloads so the whole suite finishes
/// in seconds. The *checks* still run — only the sizes change.
inline bool QuickMode() {
  const char* v = std::getenv("ANMAT_BENCH_QUICK");
  return v != nullptr && v[0] != '\0' && v[0] != '0';
}

/// `full` normally, `quick` in quick mode.
inline size_t Sized(size_t full, size_t quick) {
  return QuickMode() ? quick : full;
}

/// Prints a banner naming the experiment (matches DESIGN.md's index).
inline void Banner(const std::string& experiment_id,
                   const std::string& description) {
  std::cout << "\n################################################################\n"
            << "# " << experiment_id << ": " << description << "\n"
            << "################################################################\n\n";
}

/// Aborts the bench with a message when reproduction preconditions fail —
/// a bench that silently prints an empty table would read as success.
inline void CheckOrDie(bool ok, const std::string& what) {
  if (!ok) {
    std::cerr << "REPRODUCTION CHECK FAILED: " << what << "\n";
    std::exit(2);
  }
}

/// Serial discovery on `relation` as table `name`, with minimum coverage
/// `gamma` and `violations` the allowed violation ratio; `options` carries
/// any other discovery knob. Aborts the bench on error.
inline std::vector<anmat::DiscoveredPfd> DiscoverOrDie(
    const anmat::Relation& relation, const std::string& name, double gamma,
    double violations, anmat::DiscoveryOptions options = {}) {
  options.table_name = name;
  options.min_coverage = gamma;
  options.allowed_violation_ratio = violations;
  auto result = anmat::Engine().Discover(relation, options);
  CheckOrDie(result.ok(), "discover " + name);
  return std::move(result->pfds);
}

/// The PFDs of `discovered`: the rule set that confirming all of them
/// applies.
inline std::vector<anmat::Pfd> RulesOf(
    const std::vector<anmat::DiscoveredPfd>& discovered) {
  std::vector<anmat::Pfd> rules;
  for (const anmat::DiscoveredPfd& d : discovered) rules.push_back(d.pfd);
  return rules;
}

}  // namespace anmat_bench

#endif  // ANMAT_BENCH_BENCH_UTIL_H_
