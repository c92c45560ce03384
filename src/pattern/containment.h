#ifndef ANMAT_PATTERN_CONTAINMENT_H_
#define ANMAT_PATTERN_CONTAINMENT_H_

/// \file containment.h
/// Pattern containment `P ⊆ P'` and constrained-pattern restriction
/// `Q ⊆ Q'` (§2 of the paper).
///
/// General regular-expression containment is PSPACE-complete; the paper's
/// restricted language makes it cheap. A pattern compiles to one lazy `Dfa`
/// for its element sequence and one per conjunct (`ContainmentAutomaton`).
/// `L(P) ⊆ L(Q)` is then decided exactly by a walk over the product of P's
/// automata with one automaton of Q: the walk follows one byte per joint
/// byte class (bytes that every automaton in the product treats alike) and
/// reports non-containment on reaching a state that P accepts and Q
/// rejects. Conjunction on the right, `P ⊆ Q1 & Q2`, is decided as
/// containment in every conjunct.
///
/// Compiling once pays off when one pattern is checked against many:
/// transitions materialized by one walk are reused by every later walk on
/// the same `ContainmentAutomaton`.

#include <cstdint>
#include <vector>

#include "pattern/constrained_pattern.h"
#include "pattern/dfa.h"
#include "pattern/pattern.h"

namespace anmat {

/// \brief A pattern compiled for containment checks: one lazy `Dfa` for the
/// element sequence, one per conjunct of the flattened conjunct tree.
///
/// Like `Dfa`, it grows its tables behind a const interface and is NOT safe
/// for concurrent use.
class ContainmentAutomaton {
 public:
  explicit ContainmentAutomaton(const Pattern& p);

 private:
  friend bool PatternContains(const ContainmentAutomaton& q,
                              const ContainmentAutomaton& p);

  /// `L(this) ⊆ L(q)`, for one automaton `q` of the containing pattern.
  bool ContainedIn(const Dfa& q) const;

  /// The element sequence's automaton, then one per flattened conjunct.
  std::vector<Dfa> dfas_;
  /// Bounds on the length of the compiled language's strings, valid only
  /// when `exact_bounds_`: conjunct-free, and every repetition bound within
  /// the NFA expansion cap (so the language is non-empty and these are its
  /// shortest and longest lengths). `max_length_` is UINT64_MAX when
  /// unbounded.
  bool exact_bounds_ = false;
  uint64_t min_length_ = 0;
  uint64_t max_length_ = 0;
};

/// \brief Language containment on compiled patterns: every string matching
/// `p` matches `q`. Grows the lazy tables of both arguments.
bool PatternContains(const ContainmentAutomaton& q,
                     const ContainmentAutomaton& p);

/// \brief Language containment: every string matching `p` matches `q`
/// (compiles both patterns for this one check).
bool PatternContains(const Pattern& q, const Pattern& p);

/// \brief Language equivalence: mutual containment.
bool PatternEquivalent(const Pattern& a, const Pattern& b);

/// \brief Restriction on constrained patterns: `sub ⊆ sup` iff for all
/// strings s, s', `s ≡_sub s'` implies `s ≡_sup s'`.
///
/// Deciding this exactly for arbitrary segmentations is subtle; we implement
/// the sound, practically-complete rule the paper's examples rely on
/// (Example 2: Q2 ⊆ Q1):
///   * the embedded pattern of `sub` must be contained in that of `sup`, and
///   * `sup`'s constrained region must be a prefix/suffix-aligned subset of
///     `sub`'s: every constrained segment of `sup` is covered by constrained
///     segments of `sub` under the alignment of the two segment lists
///     (checked structurally segment-by-segment).
/// Returns false when the structural alignment cannot be established, which
/// never wrongly *confirms* a restriction.
bool ConstrainedRestricts(const ConstrainedPattern& sub,
                          const ConstrainedPattern& sup);

}  // namespace anmat

#endif  // ANMAT_PATTERN_CONTAINMENT_H_
