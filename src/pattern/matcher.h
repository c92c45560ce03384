#ifndef ANMAT_PATTERN_MATCHER_H_
#define ANMAT_PATTERN_MATCHER_H_

/// \file matcher.h
/// Matching, constrained-segment extraction, and ≡_Q equivalence.
///
/// `PatternMatcher` / `ConstrainedMatcher` pre-compile a pattern once and
/// then answer queries over many strings — the shape discovery and
/// detection need (one pattern, a column of values).
///
/// Both matchers optionally compile through an `AutomatonCache`
/// (pattern/automaton_cache.h): automata then come out as shared frozen
/// tables, compiled once per cache lifetime, and a matcher whose slots all
/// froze may be probed from many threads at once. Without a cache, or for
/// a pattern too large to freeze (the cache counts those in
/// `fallbacks()`), a slot is a private lazy `Dfa` whose memo grows under
/// the const interface, so only one thread may probe it. A matcher keeps no
/// per-query state of its own (per-string scratch lives on the caller's
/// stack). Results are byte-identical either way.

#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "pattern/constrained_pattern.h"
#include "pattern/dfa.h"
#include "pattern/pattern.h"

namespace anmat {

class AutomatonCache;
class FrozenDfa;

/// \brief One automaton slot of a matcher: a shared immutable `FrozenDfa`
/// out of the cache when available, a private lazy `Dfa` otherwise.
class CompiledDfa {
 public:
  /// Compiles `p`'s element sequence — through `cache` when non-null (and
  /// the pattern freezes), privately otherwise.
  CompiledDfa(const Pattern& p, AutomatonCache* cache);

  bool Matches(std::string_view s) const;
  size_t ScanPrefixes(std::string_view s, std::vector<uint32_t>* out) const;

 private:
  std::shared_ptr<const FrozenDfa> frozen_;
  std::optional<Dfa> lazy_;  ///< engaged iff `frozen_` is null
};

/// \brief Compiled matcher for a plain pattern (including conjuncts).
///
/// Matching is DFA-backed (see dfa.h): one dense table lookup per byte,
/// with `Nfa` kept as the semantic reference implementation (differential-
/// tested in dfa_test.cc). Conjuncts — at any nesting depth — are flattened
/// into a list of independent automata that must all accept.
class PatternMatcher {
 public:
  explicit PatternMatcher(const Pattern& pattern,
                          AutomatonCache* cache = nullptr);

  /// s ↦ P : does the whole string match?
  bool Matches(std::string_view s) const;

  const Pattern& pattern() const { return pattern_; }

 private:
  Pattern pattern_;
  CompiledDfa dfa_;
  std::vector<CompiledDfa> conjunct_dfas_;
};

/// \brief The tuple of substrings covered by the constrained segments in one
/// particular split of the input.
using Extraction = std::vector<std::string>;

/// \brief Compiled matcher for a constrained pattern.
///
/// Extraction semantics: a matching string can in general be split across
/// the segments in several ways; each split induces one `Extraction`. The
/// paper (Example 2) treats `s(Q)` as the *set* of extractions and defines
/// `s ≡_Q s'` by non-empty intersection. `ExtractAll` enumerates the set
/// (deduplicated, capped); `ExtractCanonical` returns the leftmost-greedy
/// split, which is the deterministic key used for blocking.
class ConstrainedMatcher {
 public:
  explicit ConstrainedMatcher(const ConstrainedPattern& pattern,
                              AutomatonCache* cache = nullptr);

  const ConstrainedPattern& pattern() const { return pattern_; }

  /// s ↦ Q : does the string match the embedded pattern?
  bool Matches(std::string_view s) const;

  /// All distinct extraction tuples, up to `cap` (then truncated). Empty if
  /// the string does not match.
  std::vector<Extraction> ExtractAll(std::string_view s,
                                     size_t cap = 64) const;

  /// The leftmost-greedy extraction (each segment takes the longest feasible
  /// prefix). Returns false if the string does not match.
  bool ExtractCanonical(std::string_view s, Extraction* out) const;

  /// s ≡_Q s' : both match and the extraction sets intersect.
  bool Equivalent(std::string_view a, std::string_view b) const;

 private:
  /// All per-position match structure of one string, computed in a single
  /// right-to-left pass and shared by extraction/enumeration (no repeated
  /// automaton simulation, no substring copies):
  ///   feasible[j] — sorted positions p such that segments j..k-1 can cover
  ///                 s[p..n); feasible[k] = {n};
  ///   lengths[j][p] — the matching prefix lengths of segment j's automaton
  ///                 starting at position p (ascending).
  struct SplitPlan {
    std::vector<std::vector<uint32_t>> feasible;
    std::vector<std::vector<std::vector<uint32_t>>> lengths;
  };

  /// Fills `*plan`; returns false if the string cannot match at all.
  bool ComputeSplitPlan(std::string_view s, SplitPlan* plan) const;

  void EnumerateSplits(std::string_view s, const SplitPlan& plan, size_t seg,
                       uint32_t pos, Extraction* current,
                       std::vector<Extraction>* out, size_t cap) const;

  ConstrainedPattern pattern_;
  std::vector<CompiledDfa> segment_dfas_;
  CompiledDfa embedded_dfa_;
};

/// \brief One-shot helpers (compile + query); prefer the classes for loops.
bool MatchesPattern(const Pattern& p, std::string_view s);
bool MatchesConstrained(const ConstrainedPattern& q, std::string_view s);

}  // namespace anmat

#endif  // ANMAT_PATTERN_MATCHER_H_
