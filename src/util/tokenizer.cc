#include "util/tokenizer.h"

#include "util/string_util.h"

namespace anmat {

std::vector<Token> Tokenize(std::string_view value, bool keep_punctuation) {
  std::vector<Token> tokens;
  size_t i = 0;
  uint32_t index = 0;
  while (i < value.size()) {
    while (i < value.size() && IsSpace(value[i])) ++i;
    size_t start = i;
    while (i < value.size() && !IsSpace(value[i])) ++i;
    if (i > start) {
      std::string_view raw = value.substr(start, i - start);
      size_t lo = 0;
      size_t hi = raw.size();
      if (!keep_punctuation) {
        while (lo < hi && IsSymbol(raw[lo])) ++lo;
        while (hi > lo && IsSymbol(raw[hi - 1])) --hi;
        if (lo == hi) continue;  // pure punctuation token: drop
      }
      tokens.push_back(Token{std::string(raw.substr(lo, hi - lo)), index,
                             static_cast<uint32_t>(start + lo)});
      ++index;
    }
  }
  return tokens;
}

std::vector<Token> NGrams(std::string_view value, size_t n) {
  std::vector<Token> grams;
  if (n == 0 || value.size() < n) return grams;
  grams.reserve(value.size() - n + 1);
  for (size_t i = 0; i + n <= value.size(); ++i) {
    grams.push_back(Token{std::string(value.substr(i, n)),
                          static_cast<uint32_t>(i),
                          static_cast<uint32_t>(i)});
  }
  return grams;
}

std::vector<Token> PrefixGrams(std::string_view value, size_t max_len) {
  std::vector<Token> grams;
  const size_t limit = std::min(max_len, value.size());
  grams.reserve(limit);
  for (size_t n = 1; n <= limit; ++n) {
    grams.push_back(Token{std::string(value.substr(0, n)), 0, 0});
  }
  return grams;
}

bool IsSingleToken(std::string_view value) {
  std::string_view t = TrimView(value);
  if (t.empty()) return false;
  for (char c : t) {
    if (IsSpace(c)) return false;
  }
  return true;
}

}  // namespace anmat
