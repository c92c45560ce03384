#include "pattern/containment.h"

#include <cstdint>
#include <string>
#include <unordered_set>
#include <vector>

#include "pattern/nfa.h"

namespace anmat {

namespace {

/// Refines the byte partition `classes` (`num_classes` classes, numbered by
/// their first byte) by `dfa`'s symbol classes: afterwards two bytes share
/// a class iff they did before and `dfa` maps them to the same class.
/// Returns the new class count (at most 256: every class holds a byte).
uint32_t RefineClasses(const Dfa& dfa, uint8_t classes[256],
                       uint32_t num_classes) {
  const size_t dfa_classes = dfa.num_symbol_classes();
  std::vector<int> renumber(num_classes * dfa_classes, -1);
  uint32_t count = 0;
  for (int b = 0; b < 256; ++b) {
    int& id = renumber[classes[b] * dfa_classes +
                       dfa.ByteClass(static_cast<char>(b))];
    if (id < 0) id = static_cast<int>(count++);
    classes[b] = static_cast<uint8_t>(id);
  }
  return count;
}

}  // namespace

ContainmentAutomaton::ContainmentAutomaton(const Pattern& p) {
  dfas_.emplace_back(Nfa::Compile(p));
  std::vector<const Pattern*> conjuncts;
  FlattenConjuncts(p, &conjuncts);
  for (const Pattern* c : conjuncts) dfas_.emplace_back(Nfa::Compile(*c));

  exact_bounds_ = conjuncts.empty();
  for (const PatternElement& e : p.elements()) {
    const bool unbounded = e.max == kUnbounded;
    exact_bounds_ = exact_bounds_ && e.min <= kMaxExpandedRepetition &&
                    (unbounded || (e.min <= e.max &&
                                   e.max <= kMaxExpandedRepetition));
    min_length_ += e.min;
    max_length_ = unbounded || max_length_ == UINT64_MAX
                      ? UINT64_MAX
                      : max_length_ + e.max;
  }
}

bool ContainmentAutomaton::ContainedIn(const Dfa& q) const {
  // Edges: one byte per joint class, the bytes every automaton of the
  // product maps to the same symbol class. Class ids number classes by
  // their first byte, so the first byte of each class is where the next
  // unused id appears.
  uint8_t joint[256] = {};
  uint32_t num_classes = 1;
  for (const Dfa& dfa : dfas_) {
    num_classes = RefineClasses(dfa, joint, num_classes);
  }
  RefineClasses(q, joint, num_classes);
  std::string edges;
  for (int b = 0; b < 256; ++b) {
    if (joint[b] == edges.size()) edges.push_back(static_cast<char>(b));
  }

  // Depth-first walk over state tuples (this pattern's states..., q's),
  // visited set keyed by the packed tuple. A tuple where every automaton
  // of this pattern accepts and q does not is reached by a string in
  // L(this) \ L(q). A tuple with a dead state of this pattern has no
  // continuation in L(this) and is not expanded.
  const size_t width = dfas_.size() + 1;
  const auto pack = [width](const uint32_t* tuple) {
    return std::string(reinterpret_cast<const char*>(tuple),
                       width * sizeof(uint32_t));
  };
  std::vector<uint32_t> next(width);
  for (size_t i = 0; i < dfas_.size(); ++i) next[i] = dfas_[i].start_state();
  next.back() = q.start_state();
  std::unordered_set<std::string> visited{pack(next.data())};
  std::vector<uint32_t> stack = next;  // tuples, `width` states each
  std::vector<uint32_t> cur(width);
  while (!stack.empty()) {
    cur.assign(stack.end() - width, stack.end());
    stack.resize(stack.size() - width);

    bool accepts = true;
    for (size_t i = 0; i < dfas_.size() && accepts; ++i) {
      accepts = dfas_[i].IsAccepting(cur[i]);
    }
    if (accepts && !q.IsAccepting(cur.back())) return false;

    for (const char c : edges) {
      bool alive = true;
      for (size_t i = 0; i < dfas_.size() && alive; ++i) {
        next[i] = dfas_[i].Next(cur[i], c);
        alive = next[i] != Dfa::kDead;
      }
      if (!alive) continue;
      next.back() = q.Next(cur.back(), c);
      if (visited.insert(pack(next.data())).second) {
        stack.insert(stack.end(), next.begin(), next.end());
      }
    }
  }
  return true;
}

bool PatternContains(const ContainmentAutomaton& q,
                     const ContainmentAutomaton& p) {
  // Necessary condition on exact bounds: L(p) ⊆ L(q) needs p's shortest
  // and longest strings to fit q's bounds.
  if (p.exact_bounds_ && q.exact_bounds_ &&
      (p.min_length_ < q.min_length_ || p.max_length_ > q.max_length_)) {
    return false;
  }
  for (const Dfa& q_component : q.dfas_) {
    if (!p.ContainedIn(q_component)) return false;
  }
  return true;
}

bool PatternContains(const Pattern& q, const Pattern& p) {
  return PatternContains(ContainmentAutomaton(q), ContainmentAutomaton(p));
}

bool PatternEquivalent(const Pattern& a, const Pattern& b) {
  const ContainmentAutomaton compiled_a(a);
  const ContainmentAutomaton compiled_b(b);
  return PatternContains(compiled_a, compiled_b) &&
         PatternContains(compiled_b, compiled_a);
}

bool ConstrainedRestricts(const ConstrainedPattern& sub,
                          const ConstrainedPattern& sup) {
  // Necessary condition: embedded containment.
  if (!PatternContains(sup.EmbeddedPattern(), sub.EmbeddedPattern())) {
    return false;
  }
  if (!sub.HasConstrained() || !sup.HasConstrained()) {
    // A pattern without constrained segments relates all matching strings;
    // `sub ⊆ sup` then requires sup to also relate them all.
    return !sup.HasConstrained();
  }

  // Structural alignment: walk sup's segments and greedily cover them with
  // sub's segments such that every constrained segment of sup is covered
  // only by constrained segments of sub. We align on the *prefix* of
  // constrained segments: each constrained segment of sup must correspond
  // to a consecutive run of sub segments whose concatenated pattern is
  // contained in it, all of them constrained.
  //
  // This validates the paper's canonical use (Q2 ⊆ Q1 in Example 2:
  // sub = (\LU\LL*\ )!\A*\ (\LU\LL*)!,  sup = (\LU\LL*\ )!\A*):
  // equality on *more* extracted components implies equality on fewer when
  // the shared components align positionally.
  const auto& sub_segs = sub.segments();
  const auto& sup_segs = sup.segments();

  size_t si = 0;  // cursor into sub_segs
  for (size_t qi = 0; qi < sup_segs.size(); ++qi) {
    const PatternSegment& sup_seg = sup_segs[qi];
    if (sup_seg.constrained) {
      // Must be covered by exactly one constrained sub segment with a
      // contained pattern (1:1 alignment keeps the check sound).
      if (si >= sub_segs.size() || !sub_segs[si].constrained) return false;
      if (!PatternContains(sup_seg.pattern, sub_segs[si].pattern)) {
        return false;
      }
      ++si;
    } else {
      // Unconstrained sup segment: absorb a maximal run of sub segments
      // (constrained or not — extra constraints in sub only *refine* the
      // equivalence) whose concatenation is contained in it.
      std::vector<PatternElement> concat;
      size_t run_end = si;
      // Greedily absorb while the concatenation stays contained and we do
      // not steal the sub segment needed by the next constrained sup
      // segment. Simplest sound approach: absorb until the concatenation
      // is contained and the remaining sub segments still outnumber the
      // remaining constrained sup segments.
      size_t remaining_sup_constrained = 0;
      for (size_t j = qi + 1; j < sup_segs.size(); ++j) {
        if (sup_segs[j].constrained) ++remaining_sup_constrained;
      }
      while (run_end < sub_segs.size()) {
        size_t remaining_sub = sub_segs.size() - run_end;
        if (remaining_sub <= remaining_sup_constrained) break;
        const auto& es = sub_segs[run_end].pattern.elements();
        concat.insert(concat.end(), es.begin(), es.end());
        ++run_end;
        // Stop early if the next sub segment is constrained and the next
        // sup segment is constrained too — leave it for the 1:1 match.
      }
      Pattern run_pattern(concat);
      if (!PatternContains(sup_seg.pattern, run_pattern)) return false;
      si = run_end;
    }
  }
  return si == sub_segs.size();
}

}  // namespace anmat
