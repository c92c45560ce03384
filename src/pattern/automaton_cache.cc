#include "pattern/automaton_cache.h"

#include <algorithm>

namespace anmat {

std::string AutomatonCache::KeyOf(const Pattern& p) {
  // Pattern::ToString() appends '&'-joined conjuncts, but a Dfa compiles
  // the element sequence only — key on exactly what is compiled.
  std::string key;
  for (const PatternElement& e : p.elements()) key += e.ToString();
  return key;
}

std::shared_ptr<const FrozenDfa> AutomatonCache::Get(const Pattern& p) {
  std::string key = KeyOf(p);
  {
    MutexLock lock(&mu_);
    auto it = dfas_.find(key);
    if (it != dfas_.end()) {
      ++hits_;
      return it->second;
    }
  }
  // Compile outside the lock so first-touches of *distinct* patterns do not
  // serialize; a same-pattern race compiles twice and the first publish
  // wins (the loser's automaton is discarded).
  std::shared_ptr<const FrozenDfa> frozen =
      Dfa::Compile(p).Freeze(max_frozen_states_);
  MutexLock lock(&mu_);
  auto [it, inserted] = dfas_.emplace(std::move(key), std::move(frozen));
  ++misses_;
  if (inserted && it->second == nullptr) ++fallbacks_;
  return it->second;
}

UnionAutomaton AutomatonCache::GetUnion(
    const std::vector<const Pattern*>& patterns) {
  // Signature-sorted, deduplicated member set: the key (and the automaton's
  // internal pattern ids) are insensitive to argument order, so detectors
  // and streams that assemble the same rule set differently share one
  // table. Signatures may contain any byte (literals), so the key joins
  // them length-prefixed rather than with a separator byte.
  std::vector<std::string> sigs(patterns.size());
  for (size_t i = 0; i < patterns.size(); ++i) sigs[i] = KeyOf(*patterns[i]);
  std::vector<std::string> sorted = sigs;
  std::sort(sorted.begin(), sorted.end());
  sorted.erase(std::unique(sorted.begin(), sorted.end()), sorted.end());
  std::string key;
  for (const std::string& s : sorted) {
    key += std::to_string(s.size());
    key += ':';
    key += s;
  }
  UnionAutomaton result;
  result.slot_of.resize(patterns.size());
  for (size_t i = 0; i < patterns.size(); ++i) {
    result.slot_of[i] = static_cast<uint32_t>(
        std::lower_bound(sorted.begin(), sorted.end(), sigs[i]) -
        sorted.begin());
  }
  {
    MutexLock lock(&mu_);
    auto it = unions_.find(key);
    if (it != unions_.end()) {
      ++union_hits_;
      result.automaton = it->second;
      return result;
    }
  }
  // Build outside the lock (same first-publish-wins protocol as Get; the
  // build is only the merged NFA and the start state).
  // One representative Pattern per distinct signature, in signature order.
  std::vector<const Pattern*> members(sorted.size(), nullptr);
  for (size_t i = 0; i < patterns.size(); ++i) {
    if (members[result.slot_of[i]] == nullptr) {
      members[result.slot_of[i]] = patterns[i];
    }
  }
  auto built = std::make_shared<SharedUnion>(members, max_frozen_states_);
  MutexLock lock(&mu_);
  auto [it, inserted] = unions_.emplace(std::move(key), std::move(built));
  ++union_misses_;
  result.automaton = it->second;
  return result;
}

DispatchStats AutomatonCache::dispatch_stats() const {
  DispatchStats stats;
  std::vector<std::shared_ptr<SharedUnion>> unions;
  {
    MutexLock lock(&mu_);
    stats.hits = union_hits_;
    stats.misses = union_misses_;
    for (const auto& [key, u] : unions_) unions.push_back(u);
  }
  // Each union's lock is taken alone, after the cache lock is released, so
  // a stats call waiting on a union that is classifying never blocks
  // `Get` / `GetUnion`.
  stats.automata = unions.size();
  for (const std::shared_ptr<SharedUnion>& ptr : unions) {
    SharedUnion& u = *ptr;
    MutexLock lock(&u.mu);
    stats.total_states += u.dfa.num_materialized_states();
    stats.total_patterns += u.dfa.num_patterns();
    stats.flushes += u.dfa.flushes();
    stats.probes += u.dfa.probes();
    stats.probe_hits += u.dfa.hits();
  }
  return stats;
}

size_t AutomatonCache::entries() const {
  MutexLock lock(&mu_);
  return dfas_.size();
}

size_t AutomatonCache::hits() const {
  MutexLock lock(&mu_);
  return hits_;
}

size_t AutomatonCache::misses() const {
  MutexLock lock(&mu_);
  return misses_;
}

size_t AutomatonCache::fallbacks() const {
  MutexLock lock(&mu_);
  return fallbacks_;
}

}  // namespace anmat
