#ifndef ANMAT_DISCOVERY_INVERTED_LIST_H_
#define ANMAT_DISCOVERY_INVERTED_LIST_H_

/// \file inverted_list.h
/// The hash-based inverted list `H` of the discovery algorithm (Figure 2,
/// lines 4-8).
///
/// For a candidate dependency `A → B`, the key is a token (or n-gram) of
/// `t[A]` together with its position, and each posting is the triple of the
/// paper's line 8: tuple id, position of the token in `t[A]`, and the
/// corresponding `t[B]` (whole value — the decision function may further
/// tokenize it).

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "relation/relation.h"
#include "util/tokenizer.h"

namespace anmat {

/// \brief One posting: where a key occurred and what the RHS was.
struct Posting {
  RowId row = 0;
  uint32_t lhs_position = 0;  ///< token index / char offset within t[A]
  std::string rhs_value;      ///< t[B], the full RHS cell
};

/// \brief Key of an inverted-list entry: the token text anchored at a
/// position. Anchoring by position is what lets a discovered tableau row
/// place the token inside a pattern (e.g. `John` at token 0 of `name`
/// becomes `(John)!\ \A*`).
struct TokenKey {
  std::string text;
  uint32_t position = 0;

  bool operator==(const TokenKey& other) const {
    return position == other.position && text == other.text;
  }
};

struct TokenKeyHash {
  size_t operator()(const TokenKey& k) const;
};

/// \brief The inverted list `H` plus per-key statistics.
class InvertedList {
 public:
  using Map = std::unordered_map<TokenKey, std::vector<Posting>, TokenKeyHash>;

  /// Inserts one posting (Figure 2, line 8).
  void Insert(TokenKey key, Posting posting);

  const Map& entries() const { return entries_; }
  size_t size() const { return entries_.size(); }

  /// Keys in deterministic order (support desc, then text/position asc) —
  /// discovery output must not depend on hash iteration order.
  std::vector<const Map::value_type*> SortedEntries() const;

 private:
  Map entries_;
};

/// \brief Tokenization mode chosen per LHS column (Figure 2 line 6 offers
/// `Tokenize(t[A]) | NGrams(t[A])`).
enum class TokenMode {
  kTokens,  ///< word tokens — multi-word attributes
  kNGrams,  ///< fixed-length character n-grams — single-token code columns
  kPrefix,  ///< prefix grams only — cheap "first k chars determine" probes
};

/// \brief Builds the inverted list for columns `lhs_col → rhs_col`.
///
/// `gram_len` applies to kNGrams (exact length) and kPrefix (max length).
/// Empty LHS or RHS cells are skipped (they cannot support a pattern), as
/// are LHS cells longer than `max_value_length` (0 = unlimited): patterns
/// over multi-kilobyte blobs are never meaningful rules, and their automata
/// would dominate every later phase.
InvertedList BuildInvertedList(const Relation& relation, size_t lhs_col,
                               size_t rhs_col, TokenMode mode,
                               size_t gram_len, size_t max_value_length = 0);

}  // namespace anmat

#endif  // ANMAT_DISCOVERY_INVERTED_LIST_H_
