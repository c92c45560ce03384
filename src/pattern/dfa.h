#ifndef ANMAT_PATTERN_DFA_H_
#define ANMAT_PATTERN_DFA_H_

/// \file dfa.h
/// Lazy deterministic automaton over an `Nfa`.
///
/// The NFA simulation in nfa.cc allocates, sorts and epsilon-closes a state
/// set for every input character — fine as a semantic reference, far too
/// slow for the detect/discover hot paths that probe millions of cell
/// values. `Dfa` removes all per-character work:
///
///   1. *Alphabet compression*: the pattern language only distinguishes
///      bytes by their generalization-tree class (\LU/\LL/\D/\S) and by the
///      literal characters the pattern mentions, so the 256-byte alphabet
///      collapses into a handful of symbol-equivalence classes, computed
///      once at construction (`byte_class_`).
///   2. *Lazy subset construction*: DFA states are epsilon-closed NFA state
///      sets, discovered on demand and memoized; the dense transition table
///      (`state × symbol-class → state`) is filled in the first time each
///      edge is taken. Matching a string is then one table lookup per byte.
///
/// Only states reachable from the inputs actually seen are ever built, so
/// construction stays cheap even for patterns whose full DFA would be
/// large. Accept membership is a per-state bit, which makes
/// `MatchingPrefixLengths` a single forward scan.
///
/// The memo tables grow lazily behind a const interface (`mutable`); a
/// `Dfa` is therefore NOT safe for concurrent use from multiple threads.
/// For shared concurrent probing, `Freeze()` (pattern/frozen_dfa.h) runs
/// the subset construction eagerly and emits an immutable `FrozenDfa`.

#include <cstdint>
#include <memory>
#include <string_view>
#include <vector>

#include "pattern/nfa.h"
#include "pattern/pattern.h"

namespace anmat {

class FrozenDfa;

/// Default cap on eagerly materialized states in `Dfa::Freeze` — far above
/// anything the paper's pattern language produces (tens of states), so it
/// only guards against pathological inputs.
inline constexpr size_t kDefaultMaxFrozenStates = 4096;

/// \brief The subset-construction memo shared by `Dfa` and
/// `MultiPatternDfa`: interns sorted, epsilon-closed NFA state sets as
/// dense DFA state ids. Lookup is one hash probe into an open-addressed
/// table of ids, so interning stays O(|set|) however many states exist.
class SubsetTable {
 public:
  /// The id of `set`, appending it as the next id on first sight.
  /// `*inserted` (optional) reports whether it was new.
  uint32_t Intern(std::vector<uint32_t> set, bool* inserted = nullptr);
  const std::vector<uint32_t>& set(uint32_t id) const { return sets_[id]; }
  size_t size() const { return sets_.size(); }
  /// Forgets every set (ids restart at 0).
  void Clear();

 private:
  void Rehash(size_t buckets);

  std::vector<std::vector<uint32_t>> sets_;
  std::vector<uint64_t> hashes_;  ///< per id, for probing and rehashing
  /// Open-addressed buckets holding id + 1 (0 = empty); a power of two,
  /// kept at most half full.
  std::vector<uint32_t> buckets_;
};

/// \brief Lazily-determinized automaton for one pattern's element sequence
/// (conjuncts are compiled separately, exactly like `Nfa`).
class Dfa {
 public:
  /// Compiles the element sequence of `p` (via `Nfa::Compile`).
  static Dfa Compile(const Pattern& p);

  /// Wraps an already-compiled NFA.
  explicit Dfa(Nfa nfa);

  /// Full-string match: one table lookup per byte.
  bool Matches(std::string_view s) const;

  /// All prefix lengths L such that s[0, L) is accepted, ascending — the
  /// same contract as `Nfa::MatchingPrefixLengths`.
  std::vector<uint32_t> MatchingPrefixLengths(std::string_view s) const;

  /// Allocation-free variant: clears `*out` and fills it with the matching
  /// prefix lengths. Returns the number of lengths found. Callers in tight
  /// loops reuse the scratch vector.
  size_t ScanPrefixes(std::string_view s, std::vector<uint32_t>* out) const;

  /// Eagerly materializes every reachable DFA state (bounded subset
  /// construction) and emits an immutable `FrozenDfa` safe for lock-free
  /// concurrent probes, with accept decisions and prefix sets identical to
  /// this automaton's. Returns null when more than `max_states` states are
  /// reachable — callers keep using (per-thread) lazy automata then.
  /// Defined in frozen_dfa.cc.
  std::shared_ptr<const FrozenDfa> Freeze(
      size_t max_states = kDefaultMaxFrozenStates) const;

  /// Single-step interface for walks over a product of automata
  /// (containment.cc). States are ids; `kDead` is the state without a
  /// continuation, and it loops on every byte. `Next` materializes the edge
  /// on first use, like `Matches`. Bytes with equal `ByteClass` drive every
  /// transition identically.
  static constexpr uint32_t kDead = 0;  ///< DFA state for the empty set
  uint32_t start_state() const { return start_state_; }
  uint32_t Next(uint32_t state, char c) const {
    return Transition(state, ByteClass(c));
  }
  bool IsAccepting(uint32_t state) const { return accept_[state] != 0; }
  uint32_t ByteClass(char c) const {
    return byte_class_[static_cast<unsigned char>(c)];
  }

  /// Introspection (benchmarks / tests).
  size_t num_symbol_classes() const { return num_classes_; }
  size_t num_materialized_states() const { return accept_.size(); }

  /// The mandatory-literal prefilter needle (see
  /// `RequiredLiteralSubstring`): non-empty only when compiled from a
  /// `Pattern` whose element sequence guarantees the substring. `Matches`
  /// rejects inputs lacking it without touching the automaton; `Freeze`
  /// copies it into the frozen table.
  const std::string& required_literal() const { return required_literal_; }

 private:
  static constexpr uint32_t kUnset = 0xFFFFFFFFu;  ///< lazy-edge sentinel

  void BuildAlphabet();
  /// Interns an epsilon-closed NFA set, returning its DFA state id (const:
  /// touches only the mutable lazy tables).
  uint32_t AddDfaState(std::vector<uint32_t> nfa_set) const;

  /// The target of `from` on symbol class `cls`, materializing it (and any
  /// newly-discovered DFA state) on first use.
  uint32_t Transition(uint32_t from, uint32_t cls) const;

  Nfa nfa_;

  /// Mandatory-literal prefilter needle (empty = no prefilter).
  std::string required_literal_;

  /// byte value -> symbol-equivalence class id.
  uint8_t byte_class_[256] = {};
  uint32_t num_classes_ = 1;
  /// One representative byte per class (drives the NFA step when a new edge
  /// is materialized).
  std::vector<char> class_rep_;

  /// Dense lazy transition table: transitions_[state * num_classes_ + cls].
  mutable std::vector<uint32_t> transitions_;
  mutable std::vector<uint8_t> accept_;
  /// The epsilon-closed NFA set of each materialized DFA state.
  mutable SubsetTable nfa_sets_;

  uint32_t start_state_ = kDead;
};

/// \brief Recursively flattens `p`'s conjunct tree into `*out` (the pattern
/// itself is NOT included). A string matches `p` with conjuncts iff it
/// matches `p`'s element sequence and every pattern collected here.
void FlattenConjuncts(const Pattern& p, std::vector<const Pattern*>* out);

/// \brief DFA-backed equivalent of `NfaMatchesWithConjuncts`.
bool DfaMatchesWithConjuncts(const Pattern& p, std::string_view s);

}  // namespace anmat

#endif  // ANMAT_PATTERN_DFA_H_
