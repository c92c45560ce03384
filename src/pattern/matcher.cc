#include "pattern/matcher.h"

#include <algorithm>
#include <set>

#include "pattern/automaton_cache.h"

namespace anmat {

namespace {

/// A private automaton for `p`'s element sequence: a copy of the cache's
/// prototype, or a fresh compile without a cache.
Dfa CompileSlot(const Pattern& p, AutomatonCache* cache) {
  return cache != nullptr ? cache->Get(p) : Dfa::Compile(p);
}

}  // namespace

PatternMatcher::PatternMatcher(const Pattern& pattern, AutomatonCache* cache)
    : pattern_(pattern), dfa_(CompileSlot(pattern_, cache)) {
  // Conjuncts at any depth are an AND over independent automata; flatten
  // the tree once so Matches() is a flat loop.
  std::vector<const Pattern*> conjuncts;
  FlattenConjuncts(pattern_, &conjuncts);
  conjunct_dfas_.reserve(conjuncts.size());
  for (const Pattern* c : conjuncts) {
    conjunct_dfas_.push_back(CompileSlot(*c, cache));
  }
}

bool PatternMatcher::Matches(std::string_view s) const {
  if (!dfa_.Matches(s)) return false;
  for (const Dfa& c : conjunct_dfas_) {
    if (!c.Matches(s)) return false;
  }
  return true;
}

ConstrainedMatcher::ConstrainedMatcher(const ConstrainedPattern& pattern,
                                       AutomatonCache* cache)
    : pattern_(pattern),
      embedded_dfa_(CompileSlot(pattern_.EmbeddedPattern(), cache)) {
  segment_dfas_.reserve(pattern.segments().size());
  for (const PatternSegment& seg : pattern.segments()) {
    segment_dfas_.push_back(CompileSlot(seg.pattern, cache));
  }
}

bool ConstrainedMatcher::Matches(std::string_view s) const {
  return embedded_dfa_.Matches(s);
}

bool ConstrainedMatcher::ComputeSplitPlan(std::string_view s,
                                          SplitPlan* plan) const {
  const size_t k = segment_dfas_.size();
  const uint32_t n = static_cast<uint32_t>(s.size());
  plan->feasible.assign(k + 1, {});
  plan->feasible[k] = {n};
  plan->lengths.assign(k, {});
  for (size_t j = k; j-- > 0;) {
    std::vector<bool> next_ok(n + 1, false);
    for (uint32_t p : plan->feasible[j + 1]) next_ok[p] = true;
    std::vector<std::vector<uint32_t>>& seg_lengths = plan->lengths[j];
    seg_lengths.resize(n + 1);
    size_t prev_count = 0;
    for (uint32_t p = 0; p <= n; ++p) {
      // One DFA forward scan yields every prefix length at once (the scan
      // self-terminates at the dead state, i.e. after the segment's maximum
      // length); memoized here for the enumeration/extraction passes.
      // Adjacent start positions see near-identical suffixes, so the
      // previous scan's count is a tight reserve for this one.
      seg_lengths[p].reserve(prev_count);
      prev_count =
          segment_dfas_[j].ScanPrefixes(s.substr(p, n - p), &seg_lengths[p]);
      for (uint32_t len : seg_lengths[p]) {
        if (next_ok[p + len]) {
          plan->feasible[j].push_back(p);
          break;
        }
      }
    }
    if (plan->feasible[j].empty()) return false;
  }
  // The whole string matches iff position 0 is feasible for segment 0.
  return std::binary_search(plan->feasible[0].begin(),
                            plan->feasible[0].end(), 0u);
}

void ConstrainedMatcher::EnumerateSplits(std::string_view s,
                                         const SplitPlan& plan, size_t seg,
                                         uint32_t pos, Extraction* current,
                                         std::vector<Extraction>* out,
                                         size_t cap) const {
  if (out->size() >= cap) return;
  const size_t k = segment_dfas_.size();
  if (seg == k) {
    if (pos == s.size()) out->push_back(*current);
    return;
  }
  const std::vector<uint32_t>& lengths = plan.lengths[seg][pos];
  const std::vector<uint32_t>& next_feasible = plan.feasible[seg + 1];
  const bool constrained = pattern_.segments()[seg].constrained;
  for (uint32_t len : lengths) {
    const uint32_t end = pos + len;
    if (!std::binary_search(next_feasible.begin(), next_feasible.end(), end)) {
      continue;
    }
    if (constrained) current->emplace_back(s.substr(pos, len));
    EnumerateSplits(s, plan, seg + 1, end, current, out, cap);
    if (constrained) current->pop_back();
    if (out->size() >= cap) return;
  }
}

std::vector<Extraction> ConstrainedMatcher::ExtractAll(std::string_view s,
                                                       size_t cap) const {
  std::vector<Extraction> out;
  SplitPlan plan;
  if (!ComputeSplitPlan(s, &plan)) return out;
  Extraction current;
  EnumerateSplits(s, plan, 0, 0, &current, &out, cap);
  // Deduplicate (different splits can extract identical tuples, e.g. when
  // only unconstrained segments differ).
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

bool ConstrainedMatcher::ExtractCanonical(std::string_view s,
                                          Extraction* out) const {
  SplitPlan plan;
  if (!ComputeSplitPlan(s, &plan)) return false;
  out->clear();
  uint32_t pos = 0;
  const size_t k = segment_dfas_.size();
  for (size_t seg = 0; seg < k; ++seg) {
    const std::vector<uint32_t>& lengths = plan.lengths[seg][pos];
    const std::vector<uint32_t>& next_feasible = plan.feasible[seg + 1];
    // Greedy: take the longest feasible length.
    bool found = false;
    for (size_t i = lengths.size(); i-- > 0;) {
      const uint32_t end = pos + lengths[i];
      if (std::binary_search(next_feasible.begin(), next_feasible.end(),
                             end)) {
        if (pattern_.segments()[seg].constrained) {
          out->emplace_back(s.substr(pos, lengths[i]));
        }
        pos = end;
        found = true;
        break;
      }
    }
    if (!found) return false;  // unreachable given ComputeSplitPlan
  }
  return pos == s.size();
}

bool ConstrainedMatcher::Equivalent(std::string_view a,
                                    std::string_view b) const {
  // Fast path: canonical extractions equal.
  Extraction ca, cb;
  const bool ma = ExtractCanonical(a, &ca);
  const bool mb = ExtractCanonical(b, &cb);
  if (!ma || !mb) return false;
  if (ca == cb) return true;
  // Full semantics: non-empty intersection of extraction sets.
  const std::vector<Extraction> ea = ExtractAll(a);
  if (ea.size() <= 1) {
    // Extraction of `a` is unambiguous and differs from b's canonical one;
    // still need b's full set.
    const std::vector<Extraction> eb = ExtractAll(b);
    for (const Extraction& x : ea) {
      if (std::binary_search(eb.begin(), eb.end(), x)) return true;
    }
    return false;
  }
  const std::vector<Extraction> eb = ExtractAll(b);
  std::set<Extraction> sb(eb.begin(), eb.end());
  for (const Extraction& x : ea) {
    if (sb.count(x) > 0) return true;
  }
  return false;
}

bool MatchesPattern(const Pattern& p, std::string_view s) {
  return PatternMatcher(p).Matches(s);
}

bool MatchesConstrained(const ConstrainedPattern& q, std::string_view s) {
  return ConstrainedMatcher(q).Matches(s);
}

}  // namespace anmat
