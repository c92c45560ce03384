#include "dispatch/dispatch_plan.h"

#include <algorithm>

#include "dispatch/pattern_trie.h"

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

bool ColumnDispatcher::Compile(AutomatonCache* cache,
                               size_t max_group_size) {
  covered_.assign(slots_.size(), 0);
  num_covered_ = 0;
  PatternTrie trie;
  for (uint32_t s = 0; s < slots_.size(); ++s) {
    if (UnionFriendly(slots_[s])) trie.Insert(s, slots_[s]);
  }
  // Large trie groups: one walk then classifies against as many rules as
  // possible, and prefix families stay in one union.
  for (std::vector<uint32_t>& slots : trie.Groups(max_group_size)) {
    Group group;
    group.slots = std::move(slots);
    std::vector<const Pattern*> members(group.slots.size());
    for (size_t i = 0; i < group.slots.size(); ++i) {
      members[i] = &slots_[group.slots[i]];
    }
    UnionAutomaton u = cache->GetUnion(members);
    // Slots dedup by the same signature GetUnion keys on, so within one
    // group the member -> automaton-id mapping is a bijection.
    group.to_slot.resize(group.slots.size());
    for (size_t i = 0; i < group.slots.size(); ++i) {
      group.to_slot[u.slot_of[i]] = group.slots[i];
      covered_[group.slots[i]] = 1;
    }
    num_covered_ += group.slots.size();
    group.automaton = std::move(u.automaton);
    groups_.push_back(std::move(group));
  }
  if (groups_.empty()) return false;  // nothing unioned: stay per-pattern
  verdicts_.resize(slots_.size());
  match_ids_.resize(slots_.size());
  compiled_ = true;
  return true;
}

void ColumnDispatcher::ClassifyValues(const ColumnDictionary& dict,
                                      uint32_t first_id,
                                      const DispatchPrefilter& prefilter) {
  const uint32_t num_values = static_cast<uint32_t>(dict.num_values());
  for (std::vector<int8_t>& v : verdicts_) v.resize(num_values, 0);
  std::vector<uint32_t> hits;
  std::vector<uint32_t> ids;
  std::vector<const Pattern*> members;
  for (const Group& group : groups_) {
    const std::vector<uint32_t>* scan_ids = nullptr;
    if (prefilter) {
      // Union of the members' candidate supersets, computed in one index
      // pass: ids outside provably match no member, so skipping them
      // leaves exact 0 verdicts.
      members.clear();
      for (uint32_t slot : group.slots) members.push_back(&slots_[slot]);
      ids = prefilter(members, first_id);
      scan_ids = &ids;
    }
    const size_t count =
        scan_ids != nullptr ? scan_ids->size() : num_values - first_id;
    SharedUnion& shared = *group.automaton;
    MutexLock lock(&shared.mu);
    for (size_t k = 0; k < count; ++k) {
      const uint32_t id =
          scan_ids != nullptr ? (*scan_ids)[k] : first_id + k;
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
