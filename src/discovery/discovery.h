#ifndef ANMAT_DISCOVERY_DISCOVERY_H_
#define ANMAT_DISCOVERY_DISCOVERY_H_

/// \file discovery.h
/// The end-to-end PFD discovery driver (Figure 2 of the paper).
///
/// Pipeline per candidate dependency `A → B` (from the profiler):
///   1. pick the token mode for `A` (word tokens vs n-grams — §4: n-grams
///      for single-token code/id columns),
///   2. mine constant rows (inverted list + decision function) and variable
///      rows (candidate segmentations),
///   3. assemble tableaux, compute coverage on detection's serial
///      per-pattern path (`ComputeCoverage`, detect/detector.h), and keep
///      PFDs whose coverage meets the user's minimum coverage `γ` (Figure 2,
///      line 13) and whose violation rate stays within the allowed ratio.

#include <memory>
#include <string>
#include <vector>

#include "detect/detector.h"
#include "discovery/constant_miner.h"
#include "discovery/profiler.h"
#include "discovery/variable_miner.h"
#include "pfd/pfd.h"
#include "relation/relation.h"
#include "util/status.h"

namespace anmat {

/// \brief User-facing discovery parameters (§4 "Parameter Setting").
struct DiscoveryOptions {
  /// Minimum coverage γ: ratio of records participating in the PFD to the
  /// total number of records in the attribute.
  double min_coverage = 0.6;
  /// Ratio of allowed violations among participating records.
  double allowed_violation_ratio = 0.1;

  /// Table name recorded in discovered PFDs.
  std::string table_name = "T";

  /// Mine constant and/or variable PFDs.
  bool mine_constant = true;
  bool mine_variable = true;

  /// Keep at most this many variable rows per dependency (the most general
  /// candidates win).
  size_t max_variable_rows = 1;

  /// Parallel execution: discovery fans out one task per candidate
  /// dependency (each task mines constant + variable rows and computes
  /// coverage), merges per-candidate slots in candidate order and then
  /// applies the canonical stable sort — byte-identical to a serial run.
  /// Also propagated into `profiler.execution` for the profiling pass.
  /// Overridden by `anmat::Engine` with its own configuration.
  ExecutionOptions execution;

  /// Shared compile-once automaton cache (pattern/automaton_cache.h):
  /// coverage computation compiles one matcher per tableau cell per
  /// candidate, so with the cache installed (by `anmat::Engine`, like
  /// `execution`) each distinct pattern is compiled exactly once across
  /// all candidates — and shared with detection/repair afterwards. Null
  /// gives each coverage call a private cache; results are byte-identical
  /// either way.
  std::shared_ptr<AutomatonCache> automata;

  ProfilerOptions profiler;
  ConstantMinerOptions constant_miner;
  VariableMinerOptions variable_miner;
};

/// \brief One discovered PFD with its quality statistics.
struct DiscoveredPfd {
  Pfd pfd;
  CoverageStats stats;
  /// Human-readable provenance: per tableau row, "key::position, frequency"
  /// in the style of the paper's Figure 4.
  std::vector<std::string> provenance;
};

/// \brief The discovery result for a relation.
struct DiscoveryResult {
  std::vector<ColumnProfile> profiles;
  std::vector<DiscoveredPfd> pfds;
  size_t candidates_examined = 0;
};

/// \brief Runs PFD discovery over `relation` (Figure 2 end-to-end).
Result<DiscoveryResult> DiscoverPfds(const Relation& relation,
                                     const DiscoveryOptions& options = {});

}  // namespace anmat

#endif  // ANMAT_DISCOVERY_DISCOVERY_H_
