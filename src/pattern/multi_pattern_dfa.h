#ifndef ANMAT_PATTERN_MULTI_PATTERN_DFA_H_
#define ANMAT_PATTERN_MULTI_PATTERN_DFA_H_

/// \file multi_pattern_dfa.h
/// Union automata: one scan classifies a string against many patterns.
///
/// Detection cost grows linearly with rule count when every confirmed rule
/// walks its own `Dfa` over the cell value. The pattern language is
/// regular, so a *set* of element sequences compiles into one union
/// automaton whose states carry accept *bitsets*: a single forward scan of
/// the value yields the full set of matching patterns at once — the
/// classic amortization for large fixed rule sets probed by every incoming
/// value.
///
/// `MultiPatternDfa` merges the per-pattern Thompson NFAs (state ids
/// offset per pattern, one accept state each) and runs the same lazy
/// subset construction as `Dfa` (dfa.h) over the combined byte-class
/// alphabet: two bytes share a symbol class iff every transition predicate
/// of every member pattern treats them identically. Each materialized DFA
/// state records which patterns' accept states its NFA set contains, as a
/// packed bitset over pattern ids.
///
/// Construction is lazy only: a union materializes exactly the subset
/// states the classified values walk, never the whole reachable automaton
/// (whose size multiplies with the member count, while the states real
/// column values visit stay few). `Classify` is an inline table walk that
/// leaves it only on an edge not yet materialized. Memory is bounded by
/// `max_states`: once the memo holds that many states, the next `Classify`
/// first drops every state but the dead and start states and carries on —
/// exact, because states are pure functions of their NFA sets (a regex
/// engine's DFA cache flush).
///
/// Like `Dfa`, the lazy tables grow behind a const interface, so a
/// `MultiPatternDfa` is single-owner; `AutomatonCache::GetUnion` shares one
/// engine-wide behind a mutex (`SharedUnion`, automaton_cache.h).
///
/// Classification is exactly equivalent to matching each pattern's element
/// sequence independently (differential-tested against N independent `Dfa`
/// walks in tests/dispatch_test.cc, flushing included); conjuncts are out
/// of scope here, the same contract as `Dfa`.

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "pattern/dfa.h"
#include "pattern/nfa.h"
#include "pattern/pattern.h"
#include "util/simd.h"

namespace anmat {

/// \brief Lazily-determinized union automaton over a fixed set of pattern
/// element sequences. Pattern ids are positions in the constructor's list.
class MultiPatternDfa {
 public:
  /// Compiles the union over `patterns` (not owned; only read during
  /// construction). Conjuncts are ignored, exactly like `Dfa::Compile`.
  /// `max_states` bounds the memo (see the file comment).
  explicit MultiPatternDfa(const std::vector<const Pattern*>& patterns,
                           size_t max_states = kDefaultMaxFrozenStates);

  size_t num_patterns() const { return num_patterns_; }

  /// Clears `*out` and fills it with the ids (ascending) of every pattern
  /// whose element sequence accepts `s`. One table lookup per byte plus a
  /// bitset decode at the end; values lacking the union's shared mandatory
  /// literal are rejected without a walk. Drops the memo first when it
  /// holds `max_states` states. NOT safe for concurrent callers (lazy memo
  /// tables).
  void Classify(std::string_view s, std::vector<uint32_t>* out) const {
    ++probes_;
    out->clear();
    if (!prefilter_literal_.empty() &&
        !simd::ContainsLiteral(s, prefilter_literal_)) {
      return;
    }
    if (nfa_sets_.size() >= max_states_) {
      ++flushes_;
      ResetMemo();
    }
    uint32_t state = start_state_;
    for (const char c : s) {
      const uint32_t cls = byte_class_[static_cast<unsigned char>(c)];
      uint32_t next = transitions_[static_cast<size_t>(state) * num_classes_ +
                                   cls];
      if (next == kUnset) next = Transition(state, cls);
      state = next;
      if (state == kDead) return;
    }
    if (AppendAccepted(state, out)) ++hits_;
  }

  /// Convenience for tests: does pattern `id` accept `s`?
  bool Matches(std::string_view s, uint32_t id) const;

  /// Introspection (benchmarks / tests / dispatch stats).
  size_t num_symbol_classes() const { return num_classes_; }
  /// States currently held (dead and start states included).
  size_t num_materialized_states() const { return nfa_sets_.size(); }
  /// Lifetime `Classify` calls / calls that returned a non-empty set.
  uint64_t probes() const { return probes_; }
  uint64_t hits() const { return hits_; }
  /// Times the memo reached `max_states` and was dropped.
  uint64_t flushes() const { return flushes_; }

  /// Union prefilter needle: the longest substring guaranteed to occur in
  /// every string accepted by *any* member pattern — the fold of the
  /// members' `RequiredLiteralSubstring`s under longest-common-substring.
  /// Empty whenever any member guarantees nothing (then no filter is
  /// sound). `Classify` rejects values lacking it without a table walk.
  const std::string& prefilter_literal() const { return prefilter_literal_; }

 private:
  static constexpr uint32_t kDead = 0;    ///< DFA state for the empty set
  static constexpr uint32_t kUnset = 0xFFFFFFFFu;  ///< lazy-edge sentinel

  void BuildAlphabet();
  /// Drops every state, then re-adds the dead and start states.
  void ResetMemo() const;
  /// Epsilon-closes `*states` over the merged NFA (sorted ascending).
  void EpsilonClosure(std::vector<uint32_t>* states) const;
  /// One merged-NFA step on byte `c` (sorted, deduped, epsilon-closed).
  void Step(const std::vector<uint32_t>& from, char c,
            std::vector<uint32_t>* to) const;
  /// Interns an epsilon-closed merged-NFA set, returning its DFA state id.
  uint32_t AddDfaState(std::vector<uint32_t> nfa_set) const;
  /// Materializes the target of `from` on symbol class `cls` (the edge is
  /// still `kUnset`).
  uint32_t Transition(uint32_t from, uint32_t cls) const;
  /// Appends the ids accepted in `state` to `*out`; true when any.
  bool AppendAccepted(uint32_t state, std::vector<uint32_t>* out) const;

  size_t num_patterns_ = 0;
  size_t max_states_ = kDefaultMaxFrozenStates;
  uint32_t accept_words_per_state_ = 1;  ///< (num_patterns_ + 63) / 64

  /// Mandatory-literal needle shared by every member (empty = no filter).
  std::string prefilter_literal_;

  /// The merged NFA: every member pattern's states, ids offset so they are
  /// disjoint; `accept_pattern_of_[s]` is the pattern whose accept state
  /// `s` is (-1 otherwise).
  std::vector<Nfa::State> nfa_states_;
  std::vector<int32_t> accept_pattern_of_;
  /// Union start set: each member's (offset) start state, epsilon-closed.
  std::vector<uint32_t> start_set_;

  /// Combined byte-class alphabet (same fingerprint scheme as `Dfa`).
  uint8_t byte_class_[256] = {};
  uint32_t num_classes_ = 1;
  std::vector<char> class_rep_;

  /// Lazy subset-construction tables (mutable, same shape as `Dfa`).
  mutable std::vector<uint32_t> transitions_;
  /// Packed accept bitsets, `accept_words_per_state_` words per state.
  mutable std::vector<uint64_t> accept_words_;
  mutable SubsetTable nfa_sets_;
  mutable uint32_t start_state_ = kDead;

  /// Epsilon-closure scratch: `closure_mark_[s] == closure_epoch_` marks
  /// NFA state `s` visited in the current closure, so no step clears it.
  mutable std::vector<uint32_t> closure_mark_;
  mutable uint32_t closure_epoch_ = 0;
  mutable std::vector<uint32_t> closure_stack_;

  mutable uint64_t probes_ = 0;
  mutable uint64_t hits_ = 0;
  mutable uint64_t flushes_ = 0;
};

}  // namespace anmat

#endif  // ANMAT_PATTERN_MULTI_PATTERN_DFA_H_
