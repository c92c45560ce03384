#include "detect/suggestion_policy.h"

namespace anmat {

void SuggestionFold::Add(const CellRef& cell, std::string_view value,
                         size_t pfd_index, bool variable) {
  if (value.empty()) return;
  if (conflicts_.count(cell) > 0) return;
  auto [it, inserted] = suggestions_.try_emplace(
      cell, Entry{std::string(value), pfd_index, variable});
  if (!inserted) {
    if (it->second.value != value) {
      conflicts_.insert(cell);
    } else {
      it->second.variable |= variable;
    }
  }
  resolved_ = false;
}

const std::map<CellRef, SuggestionFold::Entry>& SuggestionFold::Resolve() {
  if (!resolved_) {
    for (const CellRef& cell : conflicts_) suggestions_.erase(cell);
    resolved_ = true;
  }
  return suggestions_;
}

}  // namespace anmat
