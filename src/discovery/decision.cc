#include "discovery/decision.h"

namespace anmat {

Decision DecideConstantEntry(const std::vector<Posting>& postings,
                             const PairCounts& counts,
                             const DecisionOptions& options) {
  Decision d;

  // Gather the (RHS id, rows) votes of every posted value, then sum them
  // by RHS id.
  std::vector<PairCounts::Pair> votes;
  for (size_t i = 0; i < postings.size(); ++i) {
    if (i > 0 && postings[i].value_id == postings[i - 1].value_id) continue;
    for (const PairCounts::Pair& p : counts.of(postings[i].value_id)) {
      if (counts.rhs_blank(p.rhs_id)) continue;
      votes.push_back(p);
      d.support += p.rows;
    }
  }
  if (d.support < options.min_support) return d;
  PairCounts::SumByRhs(&votes);

  // Dominant RHS: most rows; ties break on the RHS string for determinism.
  const ColumnDictionary& rhs = counts.rhs();
  uint32_t dominant = 0;
  size_t best = 0;
  for (const PairCounts::Pair& v : votes) {
    if (v.rows > best ||
        (v.rows == best && rhs.value(v.rhs_id) < rhs.value(dominant))) {
      best = v.rows;
      dominant = v.rhs_id;
    }
  }
  if (best == 0) return d;

  d.dominant_rhs = rhs.value(dominant);
  d.agreeing = best;
  d.violation_ratio =
      1.0 - static_cast<double>(best) / static_cast<double>(d.support);

  const double dominance =
      static_cast<double>(best) / static_cast<double>(d.support);
  d.accept = d.violation_ratio <= options.allowed_violation_ratio &&
             dominance >= options.min_dominance;
  return d;
}

}  // namespace anmat
