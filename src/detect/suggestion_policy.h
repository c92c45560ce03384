#ifndef ANMAT_DETECT_SUGGESTION_POLICY_H_
#define ANMAT_DETECT_SUGGESTION_POLICY_H_

/// \file suggestion_policy.h
/// The majority / confidence policy shared by one-shot repair
/// (`RepairErrors`, repair.cc) and streaming clean-on-ingest
/// (`DetectionStream::CleanBatch`, detect/detection_stream.cc).
///
/// §3 of the paper makes a repair *confident* when the violation's
/// suggestion is a constant rule's RHS (always confident under the
/// LHS-is-correct assumption) or a variable row's group majority.
/// Conflicting suggestions for one cell are dropped — the cell is left for
/// the user — so repair never oscillates on a genuinely ambiguous cell.
/// Both repair paths must agree on these rules cell for cell, or streaming
/// and batch cleaning drift apart; keeping the fold here is what pins them
/// together (differentially tested in engine_test.cc).

#include <cstddef>
#include <map>
#include <set>
#include <string>
#include <string_view>

#include "detect/violation.h"

namespace anmat {

/// \brief Per-cell suggestion fold: equal suggestions for a cell merge (the
/// first one's provenance wins), disagreeing suggestions mark the cell
/// conflicted and it keeps no suggestion.
class SuggestionFold {
 public:
  struct Entry {
    std::string value;      ///< the suggested replacement
    size_t pfd_index = 0;   ///< rule that first suggested it
    bool variable = false;  ///< true if any contributing suggestion came
                            ///< from a variable (majority) rule
  };

  /// Adds one suggestion for `cell`. Empty values are ignored (they mean
  /// "no repair known", not "clear the cell").
  void Add(const CellRef& cell, std::string_view value, size_t pfd_index,
           bool variable = false);

  /// Cells whose suggestions disagreed within this fold.
  const std::set<CellRef>& conflicts() const { return conflicts_; }

  /// Surviving suggestions in cell order; conflicted cells are excluded.
  /// Valid until the next `Add`.
  const std::map<CellRef, Entry>& Resolve();

  bool empty() const { return suggestions_.empty(); }

 private:
  std::map<CellRef, Entry> suggestions_;
  std::set<CellRef> conflicts_;
  bool resolved_ = false;
};

}  // namespace anmat

#endif  // ANMAT_DETECT_SUGGESTION_POLICY_H_
