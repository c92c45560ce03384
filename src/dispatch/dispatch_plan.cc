#include "dispatch/dispatch_plan.h"

#include <algorithm>

namespace anmat {

uint32_t ColumnDispatcher::AddPattern(const Pattern& p) {
  const std::string sig = AutomatonCache::KeyOf(p);
  auto [it, inserted] = slot_of_signature_.emplace(
      sig, static_cast<uint32_t>(slots_.size()));
  if (inserted) slots_.push_back(p);
  return it->second;
}

bool UnionFriendly(const Pattern& p) {
  if (p.elements().empty()) return true;
  const PatternElement& first = p.elements().front();
  return first.cls == SymbolClass::kLiteral || first.max != kUnbounded;
}

bool ColumnDispatcher::Compile(AutomatonCache* cache) {
  covered_.assign(slots_.size(), 0);
  std::vector<uint32_t> friendly;  // union-friendly slots, signature order
  for (const auto& [signature, slot] : slot_of_signature_) {
    if (UnionFriendly(slots_[slot])) friendly.push_back(slot);
  }
  // Consecutive signatures per group: a column's first kMaxUnionMembers
  // slots make the same union whatever order its rules were registered in.
  for (size_t first = 0; first < friendly.size(); first += kMaxUnionMembers) {
    const size_t end = std::min(first + kMaxUnionMembers, friendly.size());
    std::vector<const Pattern*> members;
    for (size_t i = first; i < end; ++i) {
      members.push_back(&slots_[friendly[i]]);
    }
    UnionAutomaton u = cache->GetUnion(members);
    Group group;
    group.automaton = std::move(u.automaton);
    // Slots dedup by the same signature GetUnion keys on, so within one
    // group the member -> automaton-id mapping is a bijection.
    group.to_slot.resize(members.size());
    for (size_t i = first; i < end; ++i) {
      group.to_slot[u.slot_of[i - first]] = friendly[i];
      covered_[friendly[i]] = 1;
    }
    groups_.push_back(std::move(group));
  }
  num_covered_ = friendly.size();
  if (groups_.empty()) return false;  // nothing unioned: stay per-pattern
  verdicts_.resize(slots_.size());
  match_ids_.resize(slots_.size());
  compiled_ = true;
  return true;
}

void ColumnDispatcher::ClassifyValues(const ColumnDictionary& dict,
                                      uint32_t first_id) {
  const uint32_t num_values = static_cast<uint32_t>(dict.num_values());
  for (std::vector<int8_t>& v : verdicts_) v.resize(num_values, 0);
  std::vector<uint32_t> hits;
  for (const Group& group : groups_) {
    SharedUnion& shared = *group.automaton;
    MutexLock lock(&shared.mu);
    for (uint32_t id = first_id; id < num_values; ++id) {
      shared.dfa.Classify(dict.value(id), &hits);
      for (uint32_t automaton_id : hits) {
        const uint32_t slot = group.to_slot[automaton_id];
        verdicts_[slot][id] = 1;
        // Each slot lives in exactly one group and ids never re-classify
        // (the `first_id` watermark), so the list stays ascending and
        // duplicate-free.
        match_ids_[slot].push_back(id);
      }
    }
  }
}

}  // namespace anmat
