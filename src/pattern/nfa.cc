#include "pattern/nfa.h"

#include <algorithm>

namespace anmat {

Nfa Nfa::Compile(const Pattern& p) {
  Nfa nfa;
  uint32_t current = nfa.AddState();  // start state 0
  for (const PatternElement& e : p.elements()) {
    // Clamp the mandatory expansion too: a hostile {N} with huge N must not
    // allocate N states (the parser already rejects absurd counts; this
    // guards programmatically-built patterns).
    const uint32_t min = std::min(e.min, kMaxExpandedRepetition);
    const bool unbounded =
        e.max == kUnbounded || e.max > kMaxExpandedRepetition;
    // Mandatory part: `min` chained copies.
    for (uint32_t i = 0; i < min; ++i) {
      uint32_t next = nfa.AddState();
      nfa.states_[current].transitions.push_back(
          Transition{e.cls, e.literal, next});
      current = next;
    }
    if (unbounded) {
      // Loop on the current state: zero or more further repetitions.
      nfa.states_[current].transitions.push_back(
          Transition{e.cls, e.literal, current});
    } else {
      // Optional part: (max - min) copies, each skippable via epsilon to
      // the element's exit state.
      const uint32_t optional = e.max - min;
      if (optional > 0) {
        std::vector<uint32_t> skip_sources;
        skip_sources.push_back(current);
        for (uint32_t i = 0; i < optional; ++i) {
          uint32_t next = nfa.AddState();
          nfa.states_[current].transitions.push_back(
              Transition{e.cls, e.literal, next});
          current = next;
          if (i + 1 < optional) skip_sources.push_back(current);
        }
        for (uint32_t src : skip_sources) {
          nfa.states_[src].epsilon.push_back(current);
        }
      }
    }
  }
  nfa.accept_ = current;
  return nfa;
}

void Nfa::EpsilonClosure(std::vector<uint32_t>* states) const {
  std::vector<bool> visited(states_.size(), false);
  std::vector<uint32_t> stack;
  for (uint32_t s : *states) {
    if (!visited[s]) {
      visited[s] = true;
      stack.push_back(s);
    }
  }
  states->clear();
  while (!stack.empty()) {
    uint32_t s = stack.back();
    stack.pop_back();
    states->push_back(s);
    for (uint32_t t : states_[s].epsilon) {
      if (!visited[t]) {
        visited[t] = true;
        stack.push_back(t);
      }
    }
  }
  std::sort(states->begin(), states->end());
}

void Nfa::Step(const std::vector<uint32_t>& from, char c,
               std::vector<uint32_t>* to) const {
  to->clear();
  for (uint32_t s : from) {
    for (const Transition& t : states_[s].transitions) {
      if (t.MatchesChar(c)) to->push_back(t.target);
    }
  }
  std::sort(to->begin(), to->end());
  to->erase(std::unique(to->begin(), to->end()), to->end());
  EpsilonClosure(to);
}

bool Nfa::Accepts(const std::vector<uint32_t>& states) const {
  return std::binary_search(states.begin(), states.end(), accept_);
}

bool Nfa::Matches(std::string_view s) const {
  std::vector<uint32_t> current{start()};
  EpsilonClosure(&current);
  std::vector<uint32_t> next;
  for (char c : s) {
    Step(current, c, &next);
    if (next.empty()) return false;
    current.swap(next);
  }
  return Accepts(current);
}

std::vector<uint32_t> Nfa::MatchingPrefixLengths(std::string_view s) const {
  std::vector<uint32_t> lengths;
  std::vector<uint32_t> current{start()};
  EpsilonClosure(&current);
  if (Accepts(current)) lengths.push_back(0);
  std::vector<uint32_t> next;
  for (size_t i = 0; i < s.size(); ++i) {
    Step(current, s[i], &next);
    if (next.empty()) break;
    current.swap(next);
    if (Accepts(current)) lengths.push_back(static_cast<uint32_t>(i + 1));
  }
  return lengths;
}

bool NfaMatchesWithConjuncts(const Pattern& p, std::string_view s) {
  if (!Nfa::Compile(p).Matches(s)) return false;
  for (const Pattern& c : p.conjuncts()) {
    if (!NfaMatchesWithConjuncts(c, s)) return false;
  }
  return true;
}

}  // namespace anmat
