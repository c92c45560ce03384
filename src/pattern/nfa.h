#ifndef ANMAT_PATTERN_NFA_H_
#define ANMAT_PATTERN_NFA_H_

/// \file nfa.h
/// Thompson-style NFA compilation of patterns.
///
/// The pattern language (no alternation except the class hierarchy, no
/// nested quantified groups) compiles to very small automata: one chain of
/// states per element, with loops for unbounded repetition. Conjunction is
/// handled by the callers (matcher / containment) by simulating each
/// conjunct's automaton and intersecting outcomes.
///
/// The per-character simulation here is the *semantic reference*: hot paths
/// match through the lazily-determinized `Dfa` (dfa.h), which is
/// differential-tested against this implementation (tests/dfa_test.cc).
/// Containment checking (containment.cc) walks a product of those lazy
/// `Dfa`s and is tested against brute-force enumeration with this matcher
/// (tests/containment_test.cc).

#include <cstdint>
#include <string_view>
#include <vector>

#include "pattern/pattern.h"

namespace anmat {

/// Cap on expanding bounded repetitions: an element {0,1000000} would
/// otherwise create a million states. Bounds above the cap are treated as
/// unbounded, which over-approximates (sound for error *candidate*
/// generation; in practice data cells are far shorter). Mandatory counts
/// above the cap are clamped to it.
inline constexpr uint32_t kMaxExpandedRepetition = 4096;

/// \brief A compiled automaton for one pattern's element sequence.
///
/// States are integers; state 0 is the start. Transitions are labelled with
/// a `PatternElement`-like symbol (class or literal); epsilon transitions
/// connect optional parts.
class Nfa {
 public:
  struct Transition {
    SymbolClass cls;
    char literal;  ///< valid when cls == kLiteral
    uint32_t target;

    bool MatchesChar(char c) const {
      return cls == SymbolClass::kLiteral ? literal == c
                                          : ClassMatchesChar(cls, c);
    }
  };

  struct State {
    std::vector<Transition> transitions;
    std::vector<uint32_t> epsilon;
  };

  /// Compiles the element sequence of `p` (conjuncts are ignored here;
  /// compile them separately).
  static Nfa Compile(const Pattern& p);

  const std::vector<State>& states() const { return states_; }
  uint32_t start() const { return 0; }
  uint32_t accept() const { return accept_; }
  size_t num_states() const { return states_.size(); }

  /// Epsilon-closure of `states` (in-place, using a visited bitmap).
  void EpsilonClosure(std::vector<uint32_t>* states) const;

  /// One simulation step: from closed state set `from`, consuming `c`,
  /// produces the epsilon-closed successor set in `to`.
  void Step(const std::vector<uint32_t>& from, char c,
            std::vector<uint32_t>* to) const;

  /// True if the state set contains the accept state.
  bool Accepts(const std::vector<uint32_t>& states) const;

  /// Full-string simulation. O(|s| * states).
  bool Matches(std::string_view s) const;

  /// All prefix lengths L such that s[0, L) is accepted. Sorted ascending.
  /// O(|s| * states). Used for segment split enumeration.
  std::vector<uint32_t> MatchingPrefixLengths(std::string_view s) const;

 private:
  uint32_t AddState() {
    states_.emplace_back();
    return static_cast<uint32_t>(states_.size() - 1);
  }

  std::vector<State> states_;
  uint32_t accept_ = 0;
};

/// \brief Matches a pattern including its conjuncts.
bool NfaMatchesWithConjuncts(const Pattern& p, std::string_view s);

}  // namespace anmat

#endif  // ANMAT_PATTERN_NFA_H_
