#include "detect/reference_detector.h"

#include <algorithm>
#include <map>
#include <string>

#include "detect/detector_internal.h"

namespace anmat {

namespace {

using detect_internal::ResolvedRow;

/// Row `r` matches every pattern cell of `row` (wildcards match anything).
bool MatchesLhs(const Relation& relation, const ResolvedRow& row, RowId r) {
  for (size_t i = 0; i < row.lhs_cols.size(); ++i) {
    const ConstrainedMatcher* matcher = row.lhs_matchers[i].get();
    if (matcher != nullptr &&
        !matcher->Matches(relation.cell(r, row.lhs_cols[i]))) {
      return false;
    }
  }
  return true;
}

/// Row `r`'s equivalence key: per LHS cell in order, the whole value of a
/// wildcard cell or the canonical extraction of a pattern cell. A pattern
/// yields one part per constrained segment, so every key of one tableau
/// row has the same shape and equal keys mean equal cells, part for part.
/// False when some pattern cell has no canonical extraction.
bool ExtractionKey(const Relation& relation, const ResolvedRow& row, RowId r,
                   std::vector<std::string>* key) {
  key->clear();
  Extraction extraction;
  for (size_t i = 0; i < row.lhs_cols.size(); ++i) {
    const std::string_view cell = relation.cell(r, row.lhs_cols[i]);
    const ConstrainedMatcher* matcher = row.lhs_matchers[i].get();
    if (matcher == nullptr) {
      key->emplace_back(cell);
      continue;
    }
    if (!matcher->ExtractCanonical(cell, &extraction)) return false;
    key->insert(key->end(), extraction.begin(), extraction.end());
  }
  return true;
}

/// The RHS split key of row `r`: its RHS cells, each '\x1f'-terminated.
/// Map order over these keys is what breaks majority ties.
std::string RhsKey(const Relation& relation, const ResolvedRow& row,
                   RowId r) {
  std::string key;
  for (size_t col : row.rhs_cols) {
    key.append(relation.cell(r, col));
    key.push_back('\x1f');
  }
  return key;
}

void DetectConstant(const Relation& relation, size_t pfd_index,
                    size_t row_index, const ResolvedRow& row,
                    DetectionResult* result) {
  for (RowId r = 0; r < relation.num_rows(); ++r) {
    if (!MatchesLhs(relation, row, r)) continue;
    ++result->stats.candidate_rows;
    detect_internal::EmitConstantViolation(relation, pfd_index, row_index, row,
                                           r, &result->violations);
  }
}

void DetectVariable(const Relation& relation, size_t pfd_index,
                    size_t row_index, const ResolvedRow& row,
                    DetectionResult* result) {
  std::vector<RowId> matched;
  std::vector<std::vector<std::string>> keys;
  std::vector<std::string> key;
  for (RowId r = 0; r < relation.num_rows(); ++r) {
    if (!MatchesLhs(relation, row, r)) continue;
    ++result->stats.candidate_rows;
    if (ExtractionKey(relation, row, r, &key)) {
      matched.push_back(r);
      keys.push_back(key);
    }
  }

  // Every pair (i, j), i < j, compares its keys. A row joins the group of
  // the first earlier row with an equal key, so each group lists its rows
  // in ascending order.
  constexpr size_t kNone = static_cast<size_t>(-1);
  std::vector<size_t> group_of(matched.size(), kNone);
  std::vector<std::vector<RowId>> groups;
  for (size_t i = 0; i < matched.size(); ++i) {
    if (group_of[i] == kNone) {
      group_of[i] = groups.size();
      groups.push_back({matched[i]});
    }
    for (size_t j = i + 1; j < matched.size(); ++j) {
      ++result->stats.pairs_checked;
      if (keys[i] == keys[j] && group_of[j] == kNone) {
        group_of[j] = group_of[i];
        groups[group_of[i]].push_back(matched[j]);
      }
    }
  }

  for (const std::vector<RowId>& members : groups) {
    std::map<std::string, std::vector<RowId>> by_rhs;
    for (RowId r : members) by_rhs[RhsKey(relation, row, r)].push_back(r);
    if (by_rhs.size() < 2) continue;
    const auto& majority = detect_internal::MajorityBlock(by_rhs);
    const RowId witness = majority.second.front();
    const std::string repair(relation.cell(witness, row.rhs_cols.front()));
    for (const auto& [rhs, rows] : by_rhs) {
      if (rhs == majority.first) continue;
      for (RowId r : rows) {
        detect_internal::EmitPairViolation(relation, pfd_index, row_index,
                                           row, r, witness, repair,
                                           &result->violations);
      }
    }
  }
}

}  // namespace

Result<DetectionResult> ReferenceDetectErrors(const Relation& relation,
                                              const std::vector<Pfd>& pfds) {
  DetectionResult result;
  for (size_t pi = 0; pi < pfds.size(); ++pi) {
    const Pfd& pfd = pfds[pi];
    ANMAT_RETURN_NOT_OK(pfd.Validate(relation.schema()));
    std::vector<size_t> lhs_cols;
    for (const std::string& a : pfd.lhs_attrs()) {
      ANMAT_ASSIGN_OR_RETURN(size_t idx, relation.schema().IndexOf(a));
      lhs_cols.push_back(idx);
    }
    std::vector<size_t> rhs_cols;
    for (const std::string& a : pfd.rhs_attrs()) {
      ANMAT_ASSIGN_OR_RETURN(size_t idx, relation.schema().IndexOf(a));
      rhs_cols.push_back(idx);
    }
    for (size_t ri = 0; ri < pfd.tableau().size(); ++ri) {
      const TableauRow& trow = pfd.tableau().row(ri);
      const ResolvedRow row = detect_internal::ResolveRow(
          trow, lhs_cols, rhs_cols, pfd.lhs_attrs(), pfd.rhs_attrs(),
          /*automata=*/nullptr);
      if (trow.IsConstantRow()) {
        DetectConstant(relation, pi, ri, row, &result);
      } else if (trow.IsVariableRow()) {
        DetectVariable(relation, pi, ri, row, &result);
      }
      // Pattern-valued RHS rows constrain format only: not detected.
    }
  }
  std::sort(result.violations.begin(), result.violations.end(),
            [](const Violation& a, const Violation& b) {
              if (a.pfd_index != b.pfd_index) return a.pfd_index < b.pfd_index;
              if (a.tableau_row != b.tableau_row) {
                return a.tableau_row < b.tableau_row;
              }
              return a.cells < b.cells;
            });
  result.stats.rows_scanned = relation.num_rows() * pfds.size();
  result.stats.violations = result.violations.size();
  return result;
}

}  // namespace anmat
