#ifndef ANMAT_DETECT_PATTERN_INDEX_H_
#define ANMAT_DETECT_PATTERN_INDEX_H_

/// \file pattern_index.h
/// Per-column index "supporting regular expressions" (§3 of the paper).
///
/// The paper creates, for each column appearing on the LHS of some PFD, an
/// index that limits violation checks to tuples matching `tp[A]`. For our
/// restricted pattern language the natural index keys are:
///
///   * the *class-run signature* of each cell ("90001" → `\D{5}`) — a
///     query pattern retrieves only signatures its language can intersect
///     (checked on an abstraction of the signature), then verifies with the
///     real matcher; and
///   * a token inverted index — when the query pattern contains literal
///     token anchors (e.g. `(Donald)!` at token 1), candidates are narrowed
///     to rows containing that token.
///
/// Retrieval is a superset of the true match set; `Lookup` verifies every
/// candidate with the automaton-backed `PatternMatcher`, so its results are
/// exact.
///
/// Detection seeds candidates from the index where the multi-pattern
/// dispatcher (dispatch/dispatch_plan.h) does not: a seed cell whose slot
/// no union automaton covers, the rows a stream appends after its first
/// batch (`CandidateSuperset` over posting tails), and discovery's coverage
/// checks, which compile no unions. The dispatcher classifies every
/// distinct value of its column itself.

#include <atomic>
#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "pattern/constrained_pattern.h"
#include "pattern/pattern.h"
#include "relation/relation.h"

namespace anmat {

class AutomatonCache;

/// \brief Index over one column's values.
///
/// Construction and verification run over the column's value *dictionary*
/// (`Relation::dictionary`): each distinct value is generalized, tokenized
/// and trigrammed exactly once, and its posting list is appended wholesale —
/// on duplicate-heavy columns this collapses the build from O(rows) pattern
/// work to O(distinct values). Verification likewise matches each distinct
/// value once and reuses the verdict for every row holding it.
class PatternIndex {
 public:
  /// Builds the index for column `col` of `relation` in one pass over the
  /// column dictionary. `automata` (optional, not owned, must outlive the
  /// index) backs `Lookup`'s verification matchers with copies of cached
  /// automata so repeated lookups of one pattern compile it exactly once.
  PatternIndex(const Relation& relation, size_t col,
               AutomatonCache* automata = nullptr);

  /// Streaming constructor: starts empty over an externally grown
  /// dictionary (not owned; must outlive the index and stay in sync with
  /// `relation`'s column `col`). Feed rows with `AppendRows` after each
  /// dictionary extension. Used by `DetectionStream`.
  PatternIndex(const Relation& relation, size_t col,
               const ColumnDictionary* external_dict,
               AutomatonCache* automata = nullptr);

  /// Appends rows [first_row, end_row) to the postings. Only valid on
  /// streaming-constructed indexes; rows must arrive in ascending order,
  /// already present in the dictionary. Each *new* distinct
  /// value pays the signature/token/trigram work once; rows repeating a
  /// known value only extend cached posting lists — O(new distinct values)
  /// pattern work per batch, and the resulting index is indistinguishable
  /// from a bulk build over all rows.
  void AppendRows(RowId first_row, RowId end_row);

  size_t column() const { return col_; }

  /// Rows whose cell matches `q`'s embedded pattern (exact; verified).
  std::vector<RowId> Lookup(const ConstrainedPattern& q) const;
  std::vector<RowId> Lookup(const Pattern& p) const;

  /// The unverified candidate superset for `p`, restricted to rows
  /// >= `min_row` (posting lists are ascending, so the tail is cheap).
  /// Exposed for the streaming detector, which verifies candidates through
  /// its own cross-batch memo instead of `Lookup`'s per-call verification.
  std::vector<RowId> CandidateSuperset(const Pattern& p, RowId min_row) const;

  /// Statistics for benchmarking the §3 claim (index vs scan).
  size_t num_signatures() const { return by_signature_.size(); }
  size_t num_tokens() const { return by_token_.size(); }

  /// Candidates produced before verification on the last Lookup (for
  /// observing prefilter selectivity in benches). Atomic so concurrent
  /// Lookups on a shared index are race-free, but the value observed under
  /// concurrency is whichever Lookup stored last.
  size_t last_candidates() const {
    return last_candidates_.load(std::memory_order_relaxed);
  }

 private:
  std::vector<RowId> VerifyCandidates(const std::vector<RowId>& candidates,
                                      const Pattern& p) const;

  /// Strategy 1 of the candidate search: the rarest literal-anchor posting
  /// list, borrowed from the index (no copy), or nullptr when anchors give
  /// no bound. Sets `*provably_empty` when a mandatory trigram is absent.
  const std::vector<RowId>* BestAnchorPostings(const Pattern& p,
                                               bool* provably_empty) const;

  /// Strategy 2: rows (>= `min_row`) whose signature is length-compatible
  /// with `p`, sorted ascending.
  std::vector<RowId> SignatureCandidates(const Pattern& p,
                                         RowId min_row) const;

  /// The dictionary the index is built over (external in streaming mode).
  const ColumnDictionary& Dict() const;

  const Relation* relation_;
  size_t col_;
  const ColumnDictionary* external_dict_ = nullptr;
  AutomatonCache* automata_ = nullptr;  ///< not owned; may be null
  /// signature text -> rows with that exact class-run signature
  std::unordered_map<std::string, std::vector<RowId>> by_signature_;
  /// token text -> rows containing the token
  std::unordered_map<std::string, std::vector<RowId>> by_token_;
  /// character trigram (3 bytes packed big-endian into a uint32_t) -> rows
  /// whose value contains it. Catches literal anchors embedded inside larger
  /// tokens (the n-gram rules: "900" inside "90001"), which the token index
  /// cannot see. The packed key avoids a std::string allocation per cell
  /// position on both build and probe.
  std::unordered_map<uint32_t, std::vector<RowId>> by_trigram_;
  /// signature text -> one sample value with that signature (for the
  /// signature-level compatibility test)
  std::unordered_map<std::string, std::string> signature_sample_;
  /// Streaming mode: per-value-id posting-list targets, so a row repeating a
  /// known value appends in O(#keys) pointer chases with no pattern work.
  /// Pointers into the node-based maps above stay valid across rehash.
  struct IdPostings {
    std::vector<RowId>* signature = nullptr;
    std::vector<std::vector<RowId>*> tokens;
    std::vector<std::vector<RowId>*> trigrams;
  };
  std::vector<IdPostings> id_postings_;
  mutable std::atomic<size_t> last_candidates_{0};
};

}  // namespace anmat

#endif  // ANMAT_DETECT_PATTERN_INDEX_H_
