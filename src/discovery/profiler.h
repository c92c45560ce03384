#ifndef ANMAT_DISCOVERY_PROFILER_H_
#define ANMAT_DISCOVERY_PROFILER_H_

/// \file profiler.h
/// Data profiling and candidate-dependency pruning (Figure 2, line 1 and
/// Figure 3 of the paper).
///
/// Profiling serves two purposes:
///  1. `CandidateDependencies` prunes attribute pairs for which PFDs cannot
///     be found — the paper's example is dropping columns with pure
///     numerical values; we also drop near-key columns as RHS (nothing can
///     determine a unique id) and constant columns as LHS.
///  2. The per-column profile (distinct counts, token structure, dominant
///     patterns with `pattern::position, frequency`) is the content of the
///     paper's Figure 3 profiling view.

#include <cstdint>
#include <string>
#include <vector>

#include "pattern/pattern.h"
#include "relation/relation.h"
#include "util/status.h"
#include "util/thread_pool.h"

namespace anmat {

/// \brief A dominant pattern entry in a column profile — rendered in the
/// Figure-3/4 views as "pattern::position, frequency".
struct PatternProfileEntry {
  std::string pattern;   ///< textual pattern form
  uint32_t position = 0; ///< token index (token mode) / char offset (n-gram)
  size_t frequency = 0;  ///< number of cells containing the pattern
};

/// \brief Profile of one column.
struct ColumnProfile {
  std::string name;
  size_t index = 0;
  size_t rows = 0;
  size_t non_null = 0;
  size_t distinct = 0;
  double numeric_ratio = 0.0;     ///< fraction of non-null numeric cells
  bool single_token = false;      ///< ≥90% of cells are single tokens
  double avg_tokens = 0.0;        ///< mean token count of non-null cells
  Pattern column_pattern;         ///< LGG of all non-null cell signatures
  std::vector<PatternProfileEntry> top_patterns;  ///< dominant signatures

  /// True if the column should be excluded from pattern discovery entirely
  /// (pure numeric per the paper, or effectively empty).
  bool ExcludedFromDiscovery() const;
  /// True if the column is (close to) a key: distinct ≈ non_null.
  bool IsNearKey() const;
  /// True if the column is constant over its non-null cells.
  bool IsConstant() const;
};

/// \brief Options controlling profiling/pruning thresholds.
struct ProfilerOptions {
  double numeric_exclusion_ratio = 0.98;  ///< ≥ this ⇒ pure numeric column
  double near_key_ratio = 0.95;           ///< distinct/non_null ≥ this ⇒ key
  double single_token_ratio = 0.9;
  size_t max_top_patterns = 8;            ///< entries kept per column
  size_t min_non_null = 2;                ///< below this a column is dead

  /// Parallel execution: profiling fans out one task per column, writing
  /// into per-column slots, so the profile vector is byte-identical to a
  /// serial run. Overridden by `anmat::Engine` with its own configuration;
  /// `DiscoverPfds` propagates `DiscoveryOptions::execution` here.
  ExecutionOptions execution;
};

/// \brief Profiles every column of `relation` (column-parallel when
/// `options.execution` allows).
std::vector<ColumnProfile> ProfileRelation(
    const Relation& relation, const ProfilerOptions& options = {});

/// \brief A candidate embedded FD `A → B` (column indices).
struct CandidateDependency {
  size_t lhs_col = 0;
  size_t rhs_col = 0;
};

/// \brief All ordered column pairs surviving the pruning rules
/// (Figure 2, line 1: `Φ := CandidateDependencies(T)`).
std::vector<CandidateDependency> CandidateDependencies(
    const std::vector<ColumnProfile>& profiles,
    const ProfilerOptions& options = {});

}  // namespace anmat

#endif  // ANMAT_DISCOVERY_PROFILER_H_
