#ifndef ANMAT_UTIL_TOKENIZER_H_
#define ANMAT_UTIL_TOKENIZER_H_

/// \file tokenizer.h
/// The `Tokenize` and `NGrams` functions of the discovery algorithm
/// (Figure 2, lines 6-7).
///
/// Discovery works either on *tokens* (for multi-word attributes like full
/// names or addresses) or on *n-grams* (for single-token code/id attributes,
/// e.g. zip codes, phone numbers, ChEMBL ids — §4: "n-grams are mainly used
/// to extract patterns from attributes that contain single token").
/// Every token/n-gram carries its position, which the discovered tableau
/// rows need to anchor patterns ("pattern::position" in Figure 4).

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace anmat {

/// \brief A token (or n-gram) with its position within the cell value.
///
/// For word tokens, `position` is the token index (first token = 0) and
/// `offset` the character offset; for n-grams, `position` equals the
/// character offset at which the n-gram starts.
struct Token {
  std::string text;
  uint32_t position = 0;  ///< token index (tokens) / char offset (n-grams)
  uint32_t offset = 0;    ///< character offset in the original value

  bool operator==(const Token& other) const {
    return text == other.text && position == other.position &&
           offset == other.offset;
  }
};

/// \brief Splits a value into word tokens.
///
/// Separators are whitespace; punctuation adjacent to a word is kept
/// attached when `keep_punctuation`, otherwise trailing/leading punctuation
/// is stripped into its own position-less oblivion (dropped). The paper's
/// full-name example tokenizes "Holloway, Donald E." into
/// ["Holloway,", "Donald", "E."] — punctuation kept — so the default keeps
/// it.
std::vector<Token> Tokenize(std::string_view value,
                            bool keep_punctuation = true);

/// \brief All n-grams of length `n` with their character offsets.
///
/// Returns an empty vector when the value is shorter than `n`.
std::vector<Token> NGrams(std::string_view value, size_t n);

/// \brief Prefix n-grams only (offset 0), for lengths 1..max_len — the
/// cheap subset the variable miner probes for "first k characters determine"
/// hypotheses (like λ5's `\D{3}` prefix of a zip code).
std::vector<Token> PrefixGrams(std::string_view value, size_t max_len);

/// \brief True if the value consists of a single token (no internal
/// whitespace); routes the column to n-gram mode.
bool IsSingleToken(std::string_view value);

}  // namespace anmat

#endif  // ANMAT_UTIL_TOKENIZER_H_
