#include "pattern/generalizer.h"

#include <algorithm>
#include <string>
#include <unordered_map>
#include <vector>

#include "util/string_util.h"

namespace anmat {

Pattern GeneralizeString(std::string_view s, GeneralizationLevel level) {
  std::vector<PatternElement> elements;
  if (level == GeneralizationLevel::kLiteral) {
    for (char c : s) elements.push_back(PatternElement::Literal(c));
    Pattern p(std::move(elements));
    p.Normalize();
    return p;
  }
  // Class runs. Letters and digits collapse to class runs; symbols are kept
  // as literals (separators are the structural skeleton of codes/ids).
  size_t i = 0;
  while (i < s.size()) {
    const char c = s[i];
    const SymbolClass cls = ClassOfChar(c);
    if (cls == SymbolClass::kSymbol) {
      elements.push_back(PatternElement::Literal(c));
      ++i;
      continue;
    }
    size_t run = 1;
    while (i + run < s.size() && ClassOfChar(s[i + run]) == cls) ++run;
    const uint32_t n = static_cast<uint32_t>(run);
    if (level == GeneralizationLevel::kClassExact) {
      elements.push_back(PatternElement::Class(cls, n, n));
    } else {
      elements.push_back(PatternElement::Class(cls, 1, kUnbounded));
    }
    i += run;
  }
  Pattern p(std::move(elements));
  p.Normalize();
  return p;
}

namespace {

/// Alignment scoring for Needleman-Wunsch over pattern elements.
/// Higher is better; gaps cost.
int PairScore(const PatternElement& a, const PatternElement& b) {
  if (a.cls == SymbolClass::kLiteral && b.cls == SymbolClass::kLiteral) {
    return a.literal == b.literal ? 4 : (ClassOfChar(a.literal) ==
                                         ClassOfChar(b.literal)
                                             ? 2
                                             : 0);
  }
  if (a.cls == SymbolClass::kLiteral || b.cls == SymbolClass::kLiteral) {
    const PatternElement& lit = a.cls == SymbolClass::kLiteral ? a : b;
    const PatternElement& cls = a.cls == SymbolClass::kLiteral ? b : a;
    if (cls.cls == SymbolClass::kAny ||
        ClassContains(cls.cls, ClassOfChar(lit.literal)) ||
        cls.cls == ClassOfChar(lit.literal)) {
      return 2;
    }
    return 0;
  }
  if (a.cls == b.cls) return 3;
  return 0;  // different classes join to \A — possible but costly
}

constexpr int kGapCost = -1;

/// Joins two aligned elements: class join + count-range union.
PatternElement JoinElements(const PatternElement& a, const PatternElement& b) {
  PatternElement out;
  if (a.cls == SymbolClass::kLiteral && b.cls == SymbolClass::kLiteral &&
      a.literal == b.literal) {
    out = PatternElement::Literal(a.literal);
  } else {
    SymbolClass ca =
        a.cls == SymbolClass::kLiteral ? ClassOfChar(a.literal) : a.cls;
    SymbolClass cb =
        b.cls == SymbolClass::kLiteral ? ClassOfChar(b.literal) : b.cls;
    out = PatternElement::Class(JoinClasses(ca, cb));
  }
  out.min = std::min(a.min, b.min);
  out.max = (a.max == kUnbounded || b.max == kUnbounded)
                ? kUnbounded
                : std::max(a.max, b.max);
  return out;
}

/// An element widened so that it can also match the empty string (used for
/// alignment gaps).
PatternElement WidenToOptional(const PatternElement& e) {
  PatternElement out = e;
  out.min = 0;
  return out;
}

}  // namespace

Pattern Lgg(const Pattern& a, const Pattern& b) {
  const auto& ea = a.elements();
  const auto& eb = b.elements();
  const size_t n = ea.size();
  const size_t m = eb.size();

  // Needleman-Wunsch DP over one flat (n+1) x (m+1) table, row-major.
  const size_t width = m + 1;
  std::vector<int> score((n + 1) * width, 0);
  auto at = [&](size_t i, size_t j) -> int& { return score[i * width + j]; };
  for (size_t i = 1; i <= n; ++i) at(i, 0) = at(i - 1, 0) + kGapCost;
  for (size_t j = 1; j <= m; ++j) at(0, j) = at(0, j - 1) + kGapCost;
  for (size_t i = 1; i <= n; ++i) {
    for (size_t j = 1; j <= m; ++j) {
      const int match = at(i - 1, j - 1) + PairScore(ea[i - 1], eb[j - 1]);
      const int del = at(i - 1, j) + kGapCost;
      const int ins = at(i, j - 1) + kGapCost;
      at(i, j) = std::max({match, del, ins});
    }
  }

  // Traceback, building the joined sequence back-to-front.
  std::vector<PatternElement> rev;
  size_t i = n;
  size_t j = m;
  while (i > 0 || j > 0) {
    if (i > 0 && j > 0 &&
        at(i, j) == at(i - 1, j - 1) + PairScore(ea[i - 1], eb[j - 1])) {
      rev.push_back(JoinElements(ea[i - 1], eb[j - 1]));
      --i;
      --j;
    } else if (i > 0 && at(i, j) == at(i - 1, j) + kGapCost) {
      rev.push_back(WidenToOptional(ea[i - 1]));
      --i;
    } else {
      rev.push_back(WidenToOptional(eb[j - 1]));
      --j;
    }
  }
  std::reverse(rev.begin(), rev.end());
  Pattern out(std::move(rev));
  out.Normalize();
  return out;
}

Pattern FlattenToAnyRuns(const Pattern& p) {
  std::vector<PatternElement> out;
  bool in_run = false;
  uint32_t run_min = 0;
  auto flush_run = [&]() {
    if (!in_run) return;
    out.push_back(PatternElement::Class(SymbolClass::kAny,
                                        run_min > 0 ? 1 : 0, kUnbounded));
    in_run = false;
    run_min = 0;
  };
  for (const PatternElement& e : p.elements()) {
    const bool symbol_literal =
        e.cls == SymbolClass::kLiteral && IsSymbol(e.literal);
    if (symbol_literal) {
      flush_run();
      out.push_back(e);
    } else {
      in_run = true;
      run_min += e.min;
    }
  }
  flush_run();
  Pattern result(std::move(out));
  result.Normalize();
  return result;
}

Pattern GeneralizeValues(const std::vector<std::string>& values,
                         GeneralizationLevel level) {
  Pattern acc;
  bool first = true;
  for (const std::string& v : values) {
    Pattern sig = GeneralizeString(v, level);
    if (first) {
      acc = std::move(sig);
      first = false;
    } else {
      acc = Lgg(acc, sig);
    }
  }
  return acc;
}

Pattern GeneralizeSequence(const std::vector<std::string_view>& values,
                           const std::vector<uint32_t>& sequence,
                           GeneralizationLevel level) {
  // Values with equal signatures share one slot. `fixed_at[s]` is the
  // accumulator version at which folding slot s last left it unchanged:
  // repeating that step cannot change it either.
  constexpr uint32_t kUnseen = ~uint32_t{0};
  constexpr uint64_t kNever = ~uint64_t{0};
  std::vector<uint32_t> slot_of(values.size(), kUnseen);
  std::unordered_map<std::string, uint32_t> slot_by_text;
  std::vector<Pattern> signatures;
  std::vector<uint64_t> fixed_at;
  uint64_t version = 0;
  Pattern acc;
  for (const uint32_t v : sequence) {
    if (slot_of[v] == kUnseen) {
      Pattern sig = GeneralizeString(values[v], level);
      auto [it, inserted] = slot_by_text.try_emplace(
          sig.ToString(), static_cast<uint32_t>(signatures.size()));
      if (inserted) {
        signatures.push_back(std::move(sig));
        fixed_at.push_back(kNever);
      }
      slot_of[v] = it->second;
    }
    const uint32_t slot = slot_of[v];
    if (fixed_at[slot] == version) continue;
    if (version == 0) {
      acc = signatures[slot];
      ++version;
      continue;
    }
    Pattern joined = Lgg(acc, signatures[slot]);
    if (joined == acc) {
      fixed_at[slot] = version;
    } else {
      acc = std::move(joined);
      ++version;
    }
  }
  return acc;
}

}  // namespace anmat
