#ifndef ANMAT_DISCOVERY_CONSTANT_MINER_H_
#define ANMAT_DISCOVERY_CONSTANT_MINER_H_

/// \file constant_miner.h
/// Mining *constant* PFD tableau rows (Figure 2 instantiated with the
/// constant decision function).
///
/// For one candidate dependency `A → B`, the miner reads the key lists of
/// `A`'s tokens or n-grams (built once per column over its value
/// dictionary, `ColumnKeyLists`), runs the decision function on every
/// entry against the candidate's (LHS id, RHS id) row counts, and turns
/// each accepted entry into a tableau row whose LHS is the key kept literal
/// with its context generalized from the entry's own values:
///
///   postings of ("Donald" @ token 1) over a Full-Name column
///     → `\A*,\ (Donald)!\A*  ->  M`
///   postings of ("900" @ offset 0) over a zip column
///     → `(900)!\D{2}  ->  Los Angeles`
///
/// Splitting a value around its key and generalizing the context run once
/// per distinct value; the context fold visits the values in row order,
/// as a row-at-a-time fold would (see `GeneralizeSequence`).
/// Redundant rows (an LHS whose language is contained in another accepted
/// row's LHS with the same RHS) are pruned, preferring the more general row.

#include <string>
#include <vector>

#include "discovery/decision.h"
#include "discovery/inverted_list.h"
#include "pfd/tableau.h"
#include "relation/relation.h"
#include "util/status.h"

namespace anmat {

/// \brief How the LHS context around the key is generalized.
enum class ContextStyle {
  kAnyRuns,     ///< words → \A+/\A* runs, symbol anchors kept (paper style)
  kClassExact,  ///< class runs with exact counts (tight, for code columns)
};

/// \brief Options of the constant miner.
struct ConstantMinerOptions {
  DecisionOptions decision;
  /// Effective minimum support is max(decision.min_support,
  /// min_support_ratio * non-null rows): absolute floors are meaningless
  /// across dataset sizes, and fragment keys (low-support n-grams at odd
  /// offsets) would otherwise flood the tableau.
  double min_support_ratio = 0.01;
  /// n-gram lengths probed in kNGrams mode.
  std::vector<size_t> gram_lengths = {2, 3, 4};
  /// Also mine *signature* rules: rows grouped by the class-run signature
  /// of the whole LHS cell (`\LU{6}\D{2} → legacy`). Catches dependencies
  /// carried by value *shape* (length, class layout) rather than content —
  /// the structure n-gram keys cannot see.
  bool mine_signatures = true;
  /// Maximum tableau rows kept per dependency (highest support first).
  size_t max_rows = 64;
  /// Ranked candidates examined by the redundancy-pruning phase. Degenerate
  /// columns (very long near-identical cells) can produce tens of thousands
  /// of accepted entries; only the best ones are worth containment checks.
  size_t max_candidates = 512;
  /// Containment-based pruning is skipped (exact-equality fallback) for
  /// patterns whose minimum length exceeds this: such monster cells
  /// compile to automata with a state per mandatory character, and
  /// containment among them prunes nothing useful.
  uint32_t max_containment_length = 512;
  /// LHS cells longer than this are skipped entirely: a pattern rule keyed
  /// inside a multi-kilobyte blob is never meaningful, and its automaton
  /// would dominate coverage computation and detection.
  size_t max_value_length = 256;
  /// Context style for token mode / n-gram mode respectively.
  ContextStyle token_context = ContextStyle::kAnyRuns;
  ContextStyle gram_context = ContextStyle::kClassExact;
};

/// \brief One mined row plus its provenance (for reports and ranking).
struct MinedRow {
  TableauRow row;
  std::string key_text;      ///< the literal token/n-gram
  uint32_t key_position = 0; ///< token index / char offset
  size_t support = 0;        ///< rows matching the key
  size_t agreeing = 0;       ///< rows agreeing with the dominant RHS
  double violation_ratio = 0.0;
};

/// \brief The key lists the constant miner reads for one LHS column: one
/// per gram length (a single token list in token mode) and the signature
/// list. They depend on the column alone, so every candidate dependency on
/// the column shares them read-only.
struct ColumnKeyLists {
  /// Sizes the lists for `mode` (kTokens or kNGrams) without building
  /// them.
  ColumnKeyLists(TokenMode mode, const ConstantMinerOptions& options);

  /// Lists to build: one per gram length, then the signature list.
  size_t num_slots() const { return gram_lengths.size() + 1; }

  /// Builds list `slot` over `dict` (empty for the signature slot unless
  /// `options.mine_signatures`). Each slot writes only its own list, so the
  /// slots of one column may be built concurrently.
  void BuildSlot(const ColumnDictionary& dict, size_t slot,
                 const ConstantMinerOptions& options);

  TokenMode mode;
  std::vector<size_t> gram_lengths;  ///< option order; {0} in token mode
  std::vector<KeyList> grams;        ///< parallel to `gram_lengths`
  KeyList signatures;                ///< ascending signature text
  std::vector<Pattern> signature_patterns;  ///< parallel to `signatures`
};

/// \brief Mines constant tableau rows for a candidate `A → B` from `A`'s
/// key lists (built with the same `options`) and the candidate's pair
/// counts.
Result<std::vector<MinedRow>> MineConstantRows(
    const ColumnKeyLists& lists, const PairCounts& counts,
    const ConstantMinerOptions& options = {});

/// \brief Mines constant tableau rows for `lhs_col → rhs_col` of
/// `relation`, building the key lists and pair counts first. `mode` is
/// kTokens or kNGrams.
Result<std::vector<MinedRow>> MineConstantRows(
    const Relation& relation, size_t lhs_col, size_t rhs_col, TokenMode mode,
    const ConstantMinerOptions& options = {});

}  // namespace anmat

#endif  // ANMAT_DISCOVERY_CONSTANT_MINER_H_
