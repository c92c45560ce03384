#include "pattern/multi_pattern_dfa.h"

#include <algorithm>

namespace anmat {

namespace {

/// Longest common substring of two needles (classic O(|a|·|b|) rolling-row
/// DP — needles are capped at 64 bytes by RequiredLiteralSubstring, so this
/// is construction-time noise).
std::string LongestCommonSubstring(const std::string& a,
                                   const std::string& b) {
  if (a.empty() || b.empty()) return {};
  std::vector<uint32_t> prev(b.size() + 1, 0), row(b.size() + 1, 0);
  size_t best_len = 0, best_end = 0;  // end position in `a`
  for (size_t i = 1; i <= a.size(); ++i) {
    for (size_t j = 1; j <= b.size(); ++j) {
      row[j] = a[i - 1] == b[j - 1] ? prev[j - 1] + 1 : 0;
      if (row[j] > best_len) {
        best_len = row[j];
        best_end = i;
      }
    }
    std::swap(prev, row);
  }
  return a.substr(best_end - best_len, best_len);
}

}  // namespace

MultiPatternDfa::MultiPatternDfa(const std::vector<const Pattern*>& patterns,
                                 size_t max_states)
    : num_patterns_(patterns.size()),
      max_states_(max_states),
      accept_words_per_state_(
          static_cast<uint32_t>((patterns.size() + 63) / 64)) {
  if (accept_words_per_state_ == 0) accept_words_per_state_ = 1;
  // Merge the per-pattern Thompson NFAs into one disjoint state space.
  std::vector<uint32_t> raw_start_set;
  for (size_t p = 0; p < patterns.size(); ++p) {
    const Nfa nfa = Nfa::Compile(*patterns[p]);
    const uint32_t base = static_cast<uint32_t>(nfa_states_.size());
    for (const Nfa::State& s : nfa.states()) {
      Nfa::State shifted;
      shifted.transitions.reserve(s.transitions.size());
      for (Nfa::Transition t : s.transitions) {
        t.target += base;
        shifted.transitions.push_back(t);
      }
      shifted.epsilon.reserve(s.epsilon.size());
      for (uint32_t e : s.epsilon) shifted.epsilon.push_back(e + base);
      nfa_states_.push_back(std::move(shifted));
      accept_pattern_of_.push_back(-1);
    }
    accept_pattern_of_[base + nfa.accept()] = static_cast<int32_t>(p);
    raw_start_set.push_back(base + nfa.start());
  }
  // Union prefilter: a substring guaranteed by *every* member is guaranteed
  // for any accepted string regardless of which member accepts it, so fold
  // the members' required literals under longest-common-substring. One
  // member with no guaranteed literal sinks the whole filter.
  for (size_t p = 0; p < patterns.size(); ++p) {
    std::string lit = RequiredLiteralSubstring(patterns[p]->elements());
    if (lit.empty()) {
      prefilter_literal_.clear();
      break;
    }
    prefilter_literal_ =
        p == 0 ? std::move(lit)
               : LongestCommonSubstring(prefilter_literal_, lit);
    if (prefilter_literal_.empty()) break;
  }
  BuildAlphabet();
  closure_mark_.assign(nfa_states_.size(), 0);
  EpsilonClosure(&raw_start_set);
  start_set_ = std::move(raw_start_set);
  ResetMemo();
}

void MultiPatternDfa::ResetMemo() const {
  nfa_sets_.Clear();
  // State 0 is the dead state (empty merged-NFA set): all edges loop on
  // itself and never need lazy materialization.
  nfa_sets_.Intern({});
  accept_words_.assign(accept_words_per_state_, 0);
  transitions_.assign(num_classes_, kDead);
  start_state_ = AddDfaState(start_set_);
}

void MultiPatternDfa::BuildAlphabet() {
  // Same fingerprint scheme as Dfa::BuildAlphabet, over the union of every
  // member pattern's predicates: two bytes share a symbol class iff every
  // transition of the *merged* NFA treats them identically.
  bool is_literal[256] = {};
  for (const Nfa::State& state : nfa_states_) {
    for (const Nfa::Transition& t : state.transitions) {
      if (t.cls == SymbolClass::kLiteral) {
        is_literal[static_cast<unsigned char>(t.literal)] = true;
      }
    }
  }
  int fingerprint_class[512];
  std::fill(std::begin(fingerprint_class), std::end(fingerprint_class), -1);
  num_classes_ = 0;
  class_rep_.clear();
  for (int b = 0; b < 256; ++b) {
    const char c = static_cast<char>(b);
    const int fp =
        is_literal[b] ? 256 + b : static_cast<int>(ClassOfChar(c));
    if (fingerprint_class[fp] < 0) {
      fingerprint_class[fp] = static_cast<int>(num_classes_++);
      class_rep_.push_back(c);
    }
    byte_class_[b] = static_cast<uint8_t>(fingerprint_class[fp]);
  }
}

void MultiPatternDfa::EpsilonClosure(std::vector<uint32_t>* states) const {
  if (++closure_epoch_ == 0) {  // wrapped: stale marks could alias
    std::fill(closure_mark_.begin(), closure_mark_.end(), 0);
    closure_epoch_ = 1;
  }
  std::vector<uint32_t>& stack = closure_stack_;
  stack.clear();
  for (uint32_t s : *states) {
    if (closure_mark_[s] != closure_epoch_) {
      closure_mark_[s] = closure_epoch_;
      stack.push_back(s);
    }
  }
  states->clear();
  while (!stack.empty()) {
    uint32_t s = stack.back();
    stack.pop_back();
    states->push_back(s);
    for (uint32_t t : nfa_states_[s].epsilon) {
      if (closure_mark_[t] != closure_epoch_) {
        closure_mark_[t] = closure_epoch_;
        stack.push_back(t);
      }
    }
  }
  std::sort(states->begin(), states->end());
}

void MultiPatternDfa::Step(const std::vector<uint32_t>& from, char c,
                           std::vector<uint32_t>* to) const {
  to->clear();
  for (uint32_t s : from) {
    for (const Nfa::Transition& t : nfa_states_[s].transitions) {
      if (t.MatchesChar(c)) to->push_back(t.target);
    }
  }
  std::sort(to->begin(), to->end());
  to->erase(std::unique(to->begin(), to->end()), to->end());
  EpsilonClosure(to);
}

uint32_t MultiPatternDfa::AddDfaState(std::vector<uint32_t> nfa_set) const {
  bool inserted = false;
  const uint32_t id = nfa_sets_.Intern(std::move(nfa_set), &inserted);
  if (!inserted) return id;
  accept_words_.resize(accept_words_.size() + accept_words_per_state_, 0);
  uint64_t* words = &accept_words_[static_cast<size_t>(id) *
                                   accept_words_per_state_];
  for (uint32_t s : nfa_sets_.set(id)) {
    const int32_t p = accept_pattern_of_[s];
    if (p >= 0) words[p >> 6] |= 1ull << (p & 63);
  }
  transitions_.resize(transitions_.size() + num_classes_, kUnset);
  return id;
}

uint32_t MultiPatternDfa::Transition(uint32_t from, uint32_t cls) const {
  std::vector<uint32_t> to;
  Step(nfa_sets_.set(from), class_rep_[cls], &to);
  const uint32_t id = to.empty() ? kDead : AddDfaState(std::move(to));
  // AddDfaState may grow transitions_; the edge's slot already existed.
  transitions_[static_cast<size_t>(from) * num_classes_ + cls] = id;
  return id;
}

bool MultiPatternDfa::AppendAccepted(uint32_t state,
                                     std::vector<uint32_t>* out) const {
  const uint64_t* words =
      &accept_words_[static_cast<size_t>(state) * accept_words_per_state_];
  for (uint32_t w = 0; w < accept_words_per_state_; ++w) {
    uint64_t bits = words[w];
    while (bits) {
      const int bit = __builtin_ctzll(bits);
      out->push_back((w << 6) + static_cast<uint32_t>(bit));
      bits &= bits - 1;
    }
  }
  return !out->empty();
}

bool MultiPatternDfa::Matches(std::string_view s, uint32_t id) const {
  std::vector<uint32_t> hits;
  Classify(s, &hits);
  return std::binary_search(hits.begin(), hits.end(), id);
}

}  // namespace anmat
