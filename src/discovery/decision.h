#ifndef ANMAT_DISCOVERY_DECISION_H_
#define ANMAT_DISCOVERY_DECISION_H_

/// \file decision.h
/// The decision function `f` of the discovery algorithm (Figure 2, line 11).
///
/// Given a key-list entry (one LHS token/n-gram key and its postings) and
/// the candidate's (LHS id, RHS id) row counts, `f` decides whether the
/// entry can form a meaningful tableau row. The knobs mirror §4 "Parameter
/// Setting": a minimum support and an allowed violation ratio (the data is
/// assumed dirty, so a bounded fraction of disagreeing rows is tolerated
/// and later reported as errors).

#include <cstddef>
#include <string>
#include <vector>

#include "discovery/inverted_list.h"

namespace anmat {

/// \brief Parameters of the decision function.
struct DecisionOptions {
  /// Minimum number of voting rows for an entry to be considered at all.
  size_t min_support = 2;
  /// Allowed fraction of voting rows disagreeing with the dominant RHS value
  /// (0.0 = strict FD semantics, 0.1 = tolerate 10% dirty cells).
  double allowed_violation_ratio = 0.1;
  /// The dominant RHS must additionally reach this share of voting rows
  /// (guards against keys with many distinct RHS values where even the
  /// most frequent one is not a real dependency).
  double min_dominance = 0.5;
};

/// \brief Outcome of the decision function on one entry.
struct Decision {
  bool accept = false;
  std::string dominant_rhs;     ///< the RHS constant the entry determines
  size_t support = 0;           ///< voting rows (non-blank RHS)
  size_t agreeing = 0;          ///< voting rows with the dominant RHS
  double violation_ratio = 0.0; ///< 1 - agreeing/support
};

/// \brief The default decision function: the entry forms a (constant)
/// pattern tuple iff its postings overwhelmingly share one RHS value.
///
/// The entry's votes are the rows of its postings' values whose RHS is not
/// blank, counted by RHS value from `counts`. A value posted more than once
/// (consecutively, as lists are built) votes once. Ties for the dominant
/// RHS break on the RHS string, smallest first, not on its id.
Decision DecideConstantEntry(const std::vector<Posting>& postings,
                             const PairCounts& counts,
                             const DecisionOptions& options);

}  // namespace anmat

#endif  // ANMAT_DISCOVERY_DECISION_H_
