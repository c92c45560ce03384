#ifndef ANMAT_DISCOVERY_INVERTED_LIST_H_
#define ANMAT_DISCOVERY_INVERTED_LIST_H_

/// \file inverted_list.h
/// The hash-based inverted list `H` of the discovery algorithm (Figure 2,
/// lines 4-8), built over a column's value dictionary.
///
/// The key of an entry is a token (or n-gram) of `t[A]` together with its
/// position. Figure 2 line 8 posts a (tuple id, position, `t[B]`) triple
/// per row; here a posting is a (value id, position) pair per *distinct*
/// value of `A` (`Relation::dictionary`), and the value's rows stand
/// behind it. The lists depend on `A` alone, so they are built once per
/// LHS column, token mode and gram length, and every candidate dependency
/// `A → B` reads them. The RHS side is a `PairCounts` per candidate: the
/// row counts of each (LHS value id, RHS value id) pair, which the
/// decision function sums over an entry's postings.

#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "pattern/pattern.h"
#include "relation/relation.h"

namespace anmat {

/// \brief One posting: a distinct LHS value holding the key, and where.
struct Posting {
  uint32_t value_id = 0;  ///< id in the LHS column's dictionary
  uint32_t offset = 0;    ///< character offset of the key in that value
};

/// \brief One entry of a key list: the token text anchored at a position,
/// and the distinct values holding it there. Anchoring by position is what
/// lets a discovered tableau row place the token inside a pattern (e.g.
/// `John` at token 0 of `name` becomes `(John)!\ \A*`).
struct KeyEntry {
  std::string text;
  uint32_t position = 0;  ///< token index / char offset within t[A]
  std::vector<Posting> postings;  ///< ascending value id
  size_t rows = 0;  ///< rows of the postings' values, summed
};

/// \brief A key list: every key of one column in one token mode and gram
/// length, in order of first occurrence (value id, then position).
using KeyList = std::vector<KeyEntry>;

/// \brief Tokenization mode chosen per LHS column (Figure 2 line 6 offers
/// `Tokenize(t[A]) | NGrams(t[A])`).
enum class TokenMode {
  kTokens,  ///< word tokens — multi-word attributes
  kNGrams,  ///< fixed-length character n-grams — single-token code columns
  kPrefix,  ///< prefix grams only — cheap "first k chars determine" probes
};

/// \brief True if a value can carry a key: not blank, and not longer than
/// `max_value_length` (0 = unlimited).
bool CarriesKeys(std::string_view value, size_t max_value_length);

/// \brief Builds the key list of a column from its dictionary: each
/// distinct value is tokenized or n-grammed once.
///
/// `gram_len` applies to kNGrams (exact length) and kPrefix (max length).
/// Blank values are skipped (they cannot support a pattern), as are values
/// longer than `max_value_length` (0 = unlimited): patterns over
/// multi-kilobyte blobs are never meaningful rules, and their automata
/// would dominate every later phase.
KeyList BuildKeyList(const ColumnDictionary& dict, TokenMode mode,
                     size_t gram_len, size_t max_value_length = 0);

/// \brief Groups a column's distinct values by the class-run signature of
/// the whole value (`GeneralizeString` at kClassExact): one entry per
/// signature, text = the signature's text, position and offsets 0, in
/// ascending text order. `patterns` receives entry i's signature at i.
/// Blank and over-long values are skipped as in `BuildKeyList`.
KeyList BuildSignatureList(const ColumnDictionary& dict,
                           size_t max_value_length,
                           std::vector<Pattern>* patterns);

/// \brief Row counts of the (LHS value id, RHS value id) pairs of a
/// candidate dependency `A → B`, from one pass over the rows. Rows with a
/// blank `A` are not counted; rows with a blank `B` are, and `rhs_blank`
/// tells them apart (the constant decision skips them, the variable miner
/// scores them). Views the relation's dictionaries: keep the relation
/// unmodified while this lives.
class PairCounts {
 public:
  struct Pair {
    uint32_t rhs_id = 0;
    uint32_t rows = 0;
  };

  PairCounts(const Relation& relation, size_t lhs_col, size_t rhs_col);

  const ColumnDictionary& lhs() const { return *lhs_; }
  const ColumnDictionary& rhs() const { return *rhs_; }

  /// The pairs of LHS value `lhs_id`, ascending RHS id.
  std::span<const Pair> of(uint32_t lhs_id) const {
    return std::span<const Pair>(pairs_).subspan(
        begin_[lhs_id], begin_[lhs_id + 1] - begin_[lhs_id]);
  }

  /// True if RHS value `rhs_id` is blank.
  bool rhs_blank(uint32_t rhs_id) const { return rhs_blank_[rhs_id]; }

  /// Sorts `pairs` (gathered from several LHS values) by RHS id and sums
  /// the rows of equal ids into one pair.
  static void SumByRhs(std::vector<Pair>* pairs);

 private:
  const ColumnDictionary* lhs_;
  const ColumnDictionary* rhs_;
  /// The pairs of LHS id i are [begin_[i], begin_[i + 1]).
  std::vector<uint32_t> begin_;
  std::vector<Pair> pairs_;
  std::vector<bool> rhs_blank_;
};

}  // namespace anmat

#endif  // ANMAT_DISCOVERY_INVERTED_LIST_H_
