#ifndef ANMAT_DISCOVERY_VARIABLE_MINER_H_
#define ANMAT_DISCOVERY_VARIABLE_MINER_H_

/// \file variable_miner.h
/// Mining *variable* PFD tableau rows (`⊥` RHS; λ4/λ5 in the paper).
///
/// A variable PFD says that the substring extracted by the constrained
/// segments functionally determines the RHS attribute — without naming any
/// constants. The miner probes a family of candidate *segmentations* of the
/// LHS column:
///
///   * token mode   — "token at index k determines B" (λ4: the first name,
///     k = 0; also `Last, First` data with k = 1), and "the last token
///     determines B";
///   * n-gram mode  — "the first k characters determine B" (λ5: the first 3
///     digits of a zip code), and "the last k characters determine B".
///
/// Each candidate extracts its key from every distinct LHS value once
/// (`Relation::dictionary`), groups the covered values by key and measures
/// how functional the grouping is from the candidate's (LHS id, RHS id)
/// row counts (`PairCounts`), tolerating the configured violation ratio;
/// the most general passing candidate (smallest k / earliest token) wins.
/// The LHS pattern of a passing candidate folds its keys and contexts over
/// the covered rows in row order, one signature per distinct value.

#include <string>
#include <vector>

#include "discovery/inverted_list.h"
#include "pfd/tableau.h"
#include "relation/relation.h"
#include "util/status.h"

namespace anmat {

/// \brief Options of the variable miner.
struct VariableMinerOptions {
  /// Token indices probed in token mode (plus the last token).
  std::vector<uint32_t> token_positions = {0, 1};
  bool probe_last_token = true;
  /// Prefix/suffix lengths probed in n-gram mode.
  std::vector<size_t> prefix_lengths = {1, 2, 3, 4, 5};
  bool probe_suffixes = true;
  /// A candidate must cover at least this fraction of non-null rows.
  double min_key_coverage = 0.5;
  /// Groups (same key, ≥2 rows) must disagree on at most this fraction of
  /// their rows overall.
  double allowed_violation_ratio = 0.1;
  /// At least this many groups of size ≥ 2 must exist — otherwise the
  /// "dependency" is vacuous (every key unique).
  size_t min_multi_groups = 2;
  /// Additionally require that at least this fraction of covered rows live
  /// in groups of size ≥ 2 (evidence actually tested the dependency).
  double min_tested_fraction = 0.2;
  /// LHS cells longer than this are not covered by any candidate (see the
  /// constant miner's identically-named option).
  size_t max_value_length = 256;
};

/// \brief One mined variable row plus quality measures.
struct MinedVariableRow {
  TableauRow row;
  std::string description;   ///< e.g. "token 0 of name", "prefix 3"
  size_t covered = 0;        ///< rows matching the LHS pattern
  size_t tested = 0;         ///< covered rows in groups of size >= 2
  size_t violations = 0;     ///< rows disagreeing with their group majority
  double violation_ratio = 0.0;

  /// Generality rank used for preferring candidates (lower = preferred).
  int specificity = 0;
};

/// \brief Mines variable tableau rows for a candidate `A → B` from its
/// pair counts, `A` read in `mode`.
Result<std::vector<MinedVariableRow>> MineVariableRows(
    TokenMode mode, const PairCounts& counts,
    const VariableMinerOptions& options = {});

/// \brief Mines variable tableau rows for `lhs_col → rhs_col` of
/// `relation`, counting the pairs first.
Result<std::vector<MinedVariableRow>> MineVariableRows(
    const Relation& relation, size_t lhs_col, size_t rhs_col, TokenMode mode,
    const VariableMinerOptions& options = {});

}  // namespace anmat

#endif  // ANMAT_DISCOVERY_VARIABLE_MINER_H_
