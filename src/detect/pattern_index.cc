#include "detect/pattern_index.h"

#include <algorithm>
#include <cassert>

#include "pattern/generalizer.h"
#include "pattern/matcher.h"
#include "util/string_util.h"
#include "util/tokenizer.h"

namespace anmat {

namespace {

/// Packs 3 bytes starting at `s[i]` into the trigram key.
uint32_t PackTrigram(std::string_view s, size_t i) {
  return (static_cast<uint32_t>(static_cast<unsigned char>(s[i])) << 16) |
         (static_cast<uint32_t>(static_cast<unsigned char>(s[i + 1])) << 8) |
         static_cast<uint32_t>(static_cast<unsigned char>(s[i + 2]));
}

/// A mandatory literal run of a pattern: maximal literal non-symbol
/// characters of length >= 2 (shorter anchors are not selective).
/// `whole_token` when whitespace or a value edge bounds the run on both
/// sides in every matching value, so the run is itself a token (Tokenize
/// splits on whitespace only); otherwise it may be part of a longer token
/// ("HumanResource" in "HumanResources") and only its trigrams bound the
/// candidates.
struct LiteralAnchor {
  std::string text;
  bool whole_token;
};

/// An element that always consumes at least one whitespace character.
bool IsMandatorySpace(const PatternElement& e) {
  return e.cls == SymbolClass::kLiteral && IsSpace(e.literal) && e.min > 0;
}

std::vector<LiteralAnchor> LiteralAnchors(const Pattern& p) {
  const std::vector<PatternElement>& elements = p.elements();
  std::vector<LiteralAnchor> anchors;
  std::string current;
  bool bounded_before = true;  // the value's start
  for (size_t i = 0; i <= elements.size(); ++i) {
    const bool at_end = i == elements.size();
    if (!at_end) {
      const PatternElement& e = elements[i];
      if (e.cls == SymbolClass::kLiteral && !IsSymbol(e.literal) &&
          e.min == e.max) {
        current.append(e.min, e.literal);
        continue;
      }
    }
    const bool bounded_after = at_end || IsMandatorySpace(elements[i]);
    if (current.size() >= 2) {
      anchors.push_back(
          LiteralAnchor{current, bounded_before && bounded_after});
    }
    current.clear();
    bounded_before = !at_end && IsMandatorySpace(elements[i]);
  }
  return anchors;
}

/// Cheap compatibility test between a query pattern and a cell signature:
/// can a string with this exact class-run signature possibly match the
/// pattern? We over-approximate via length bounds plus a per-class
/// requirement: every class the pattern *requires* (min > 0 elements that
/// are a class or literal) must be available. Precise filtering is not
/// needed — candidates are verified afterwards.
bool SignatureCompatible(const Pattern& query, const Pattern& signature) {
  const uint32_t sig_min = signature.MinLength();
  const uint32_t sig_max = signature.MaxLength();
  const uint32_t q_min = query.MinLength();
  const uint32_t q_max = query.MaxLength();
  // Signatures built from single values have sig_min == sig_max == |value|.
  if (sig_max < q_min) return false;
  if (q_max != kUnbounded && sig_min > q_max) return false;
  return true;
}

}  // namespace

PatternIndex::PatternIndex(const Relation& relation, size_t col,
                           const ColumnDictionary* external_dict,
                           AutomatonCache* automata)
    : relation_(&relation),
      col_(col),
      external_dict_(external_dict),
      automata_(automata) {}

const ColumnDictionary& PatternIndex::Dict() const {
  return external_dict_ != nullptr ? *external_dict_
                                   : relation_->dictionary(col_);
}

void PatternIndex::AppendRows(RowId first_row, RowId end_row) {
  const ColumnDictionary& dict = Dict();
  std::vector<std::string> value_tokens;
  std::vector<uint32_t> value_trigrams;
  for (RowId r = first_row; r < end_row; ++r) {
    const uint32_t id = dict.value_id(r);
    if (id >= id_postings_.size()) {
      // Rows arrive in ascending order, so a value's first occurrence is
      // seen before any repeat and ids appear sequentially.
      assert(id == id_postings_.size());
      const std::string& cell = dict.value(id);
      IdPostings entry;

      const std::string sig =
          GeneralizeString(cell, GeneralizationLevel::kClassExact).ToString();
      auto [sig_it, sig_inserted] = by_signature_.try_emplace(sig);
      entry.signature = &sig_it->second;
      if (sig_inserted) signature_sample_.emplace(sig, cell);
      signature_ids_[sig].push_back(id);

      value_tokens.clear();
      for (const Token& t : Tokenize(cell)) value_tokens.push_back(t.text);
      std::sort(value_tokens.begin(), value_tokens.end());
      value_tokens.erase(
          std::unique(value_tokens.begin(), value_tokens.end()),
          value_tokens.end());
      for (const std::string& t : value_tokens) {
        entry.tokens.push_back(&by_token_[t]);
      }

      value_trigrams.clear();
      for (size_t i = 0; i + 3 <= cell.size(); ++i) {
        value_trigrams.push_back(PackTrigram(cell, i));
      }
      std::sort(value_trigrams.begin(), value_trigrams.end());
      value_trigrams.erase(
          std::unique(value_trigrams.begin(), value_trigrams.end()),
          value_trigrams.end());
      for (uint32_t t : value_trigrams) {
        entry.trigrams.push_back(&by_trigram_[t]);
      }

      id_postings_.push_back(std::move(entry));
    }
    const IdPostings& entry = id_postings_[id];
    entry.signature->push_back(r);
    for (std::vector<RowId>* posting : entry.tokens) posting->push_back(r);
    for (std::vector<RowId>* posting : entry.trigrams) posting->push_back(r);
  }
}

PatternIndex::PatternIndex(const Relation& relation, size_t col,
                           AutomatonCache* automata)
    : relation_(&relation), col_(col), automata_(automata) {
  const ColumnDictionary& dict = relation.dictionary(col);
  // Scratch sets of per-value distinct token/trigram keys (one value can
  // repeat a token; its rows must be posted once per key).
  std::vector<std::string> value_tokens;
  std::vector<uint32_t> value_trigrams;
  for (uint32_t id = 0; id < dict.num_values(); ++id) {
    const std::string& cell = dict.value(id);
    const std::vector<RowId>& rows = dict.rows(id);
    const std::string sig =
        GeneralizeString(cell, GeneralizationLevel::kClassExact).ToString();
    auto [it, inserted] = by_signature_.try_emplace(sig);
    it->second.insert(it->second.end(), rows.begin(), rows.end());
    if (inserted) signature_sample_.emplace(sig, cell);
    signature_ids_[sig].push_back(id);

    value_tokens.clear();
    for (const Token& t : Tokenize(cell)) value_tokens.push_back(t.text);
    std::sort(value_tokens.begin(), value_tokens.end());
    value_tokens.erase(std::unique(value_tokens.begin(), value_tokens.end()),
                       value_tokens.end());
    for (const std::string& t : value_tokens) {
      auto& posting = by_token_[t];
      posting.insert(posting.end(), rows.begin(), rows.end());
    }

    value_trigrams.clear();
    for (size_t i = 0; i + 3 <= cell.size(); ++i) {
      value_trigrams.push_back(PackTrigram(cell, i));
    }
    std::sort(value_trigrams.begin(), value_trigrams.end());
    value_trigrams.erase(
        std::unique(value_trigrams.begin(), value_trigrams.end()),
        value_trigrams.end());
    for (uint32_t t : value_trigrams) {
      auto& posting = by_trigram_[t];
      posting.insert(posting.end(), rows.begin(), rows.end());
    }
  }
  // Distinct values interleave arbitrarily across rows; restore ascending
  // row order per posting list (each row appears exactly once per list, so
  // a sort suffices — no dedup needed).
  for (auto& [sig, rows] : by_signature_) std::sort(rows.begin(), rows.end());
  for (auto& [tok, rows] : by_token_) std::sort(rows.begin(), rows.end());
  for (auto& [tri, rows] : by_trigram_) std::sort(rows.begin(), rows.end());
}

std::vector<RowId> PatternIndex::VerifyCandidates(
    const std::vector<RowId>& candidates, const Pattern& p) const {
  last_candidates_.store(candidates.size(), std::memory_order_relaxed);
  PatternMatcher matcher(p, automata_);
  const ColumnDictionary& dict = Dict();
  // Match each distinct value at most once; candidates holding the same
  // value reuse the verdict.
  std::vector<int8_t> verdict(dict.num_values(), -1);
  std::vector<RowId> out;
  for (RowId r : candidates) {
    const uint32_t id = dict.value_id(r);
    if (verdict[id] < 0) {
      verdict[id] = matcher.Matches(dict.value(id)) ? 1 : 0;
    }
    if (verdict[id]) out.push_back(r);
  }
  return out;
}

namespace {

/// Copies the tail of an ascending posting list starting at `min_row`.
std::vector<RowId> PostingTail(const std::vector<RowId>& rows, RowId min_row) {
  auto begin = min_row == 0
                   ? rows.begin()
                   : std::lower_bound(rows.begin(), rows.end(), min_row);
  return std::vector<RowId>(begin, rows.end());
}

}  // namespace

const std::vector<RowId>* PatternIndex::BestAnchorPostings(
    const Pattern& p, bool* provably_empty) const {
  // A mandatory literal run must occur in every matching value, so the
  // rarest posting list among (a) the anchor's token, when the anchor is a
  // whole token, and (b) the anchor's trigrams bounds the candidates. A
  // required trigram absent from the index proves the result is empty.
  *provably_empty = false;
  const std::vector<RowId>* best = nullptr;
  for (const LiteralAnchor& anchor : LiteralAnchors(p)) {
    const std::string& a = anchor.text;
    const std::vector<RowId>* anchor_best = nullptr;
    if (anchor.whole_token) {
      if (auto it = by_token_.find(a); it != by_token_.end()) {
        anchor_best = &it->second;
      }
    }
    for (size_t i = 0; i + 3 <= a.size(); ++i) {
      auto it = by_trigram_.find(PackTrigram(a, i));
      if (it == by_trigram_.end()) {
        // This trigram of a mandatory anchor occurs nowhere.
        *provably_empty = true;
        return nullptr;
      }
      if (anchor_best == nullptr || it->second.size() < anchor_best->size()) {
        anchor_best = &it->second;
      }
    }
    // Anchors shorter than 3 chars that are not whole tokens have no
    // posting list; they simply contribute no candidate bound.
    if (anchor_best != nullptr &&
        (best == nullptr || anchor_best->size() < best->size())) {
      best = anchor_best;
    }
  }
  return best;
}

std::vector<RowId> PatternIndex::SignatureCandidates(const Pattern& p,
                                                     RowId min_row) const {
  // Strategy 2: signature prefilter — keep rows whose signature is length-
  // compatible with the query.
  std::vector<RowId> candidates;
  for (const auto& [sig_text, rows] : by_signature_) {
    // Parse back the signature (cheap: signatures are tiny) — build from a
    // sample instead to avoid a parser dependency here.
    const Pattern sig = GeneralizeString(signature_sample_.at(sig_text),
                                         GeneralizationLevel::kClassExact);
    if (SignatureCompatible(p, sig)) {
      // Insert the tail directly — PostingTail would materialize it only
      // to be copied into `candidates` again.
      auto begin = min_row == 0
                       ? rows.begin()
                       : std::lower_bound(rows.begin(), rows.end(), min_row);
      candidates.insert(candidates.end(), begin, rows.end());
    }
  }
  std::sort(candidates.begin(), candidates.end());
  return candidates;
}

std::vector<RowId> PatternIndex::CandidateSuperset(const Pattern& p,
                                                   RowId min_row) const {
  // Strategy 1: literal anchors.
  bool provably_empty = false;
  if (const std::vector<RowId>* best = BestAnchorPostings(p, &provably_empty);
      best != nullptr) {
    return PostingTail(*best, min_row);
  }
  if (provably_empty) return {};
  return SignatureCandidates(p, min_row);
}

std::vector<uint32_t> PatternIndex::CandidateValueIds(const Pattern& p,
                                                      uint32_t min_id) const {
  // The anchor strategy can prove global emptiness (a mandatory trigram
  // occurs nowhere); its row-level posting bound does not translate to
  // value ids, so the id filter itself is signature-compatibility only.
  bool provably_empty = false;
  BestAnchorPostings(p, &provably_empty);
  if (provably_empty) return {};
  std::vector<uint32_t> candidates;
  for (const auto& [sig_text, ids] : signature_ids_) {
    const Pattern sig = GeneralizeString(signature_sample_.at(sig_text),
                                         GeneralizationLevel::kClassExact);
    if (SignatureCompatible(p, sig)) {
      // Per-signature id lists are ascending (appended in id order).
      auto begin = min_id == 0
                       ? ids.begin()
                       : std::lower_bound(ids.begin(), ids.end(), min_id);
      candidates.insert(candidates.end(), begin, ids.end());
    }
  }
  std::sort(candidates.begin(), candidates.end());
  return candidates;
}

std::vector<uint32_t> PatternIndex::CandidateValueIds(
    const std::vector<const Pattern*>& patterns, uint32_t min_id) const {
  std::vector<uint32_t> candidates;
  for (const auto& [sig_text, ids] : signature_ids_) {
    const Pattern sig = GeneralizeString(signature_sample_.at(sig_text),
                                         GeneralizationLevel::kClassExact);
    bool any = false;
    for (const Pattern* p : patterns) {
      if (SignatureCompatible(*p, sig)) {
        any = true;
        break;
      }
    }
    if (!any) continue;
    auto begin = min_id == 0
                     ? ids.begin()
                     : std::lower_bound(ids.begin(), ids.end(), min_id);
    candidates.insert(candidates.end(), begin, ids.end());
  }
  std::sort(candidates.begin(), candidates.end());
  return candidates;
}

std::vector<RowId> PatternIndex::Lookup(const Pattern& p) const {
  // Verify the anchor posting list in place when one exists — low-
  // selectivity anchors can cover most rows, and CandidateSuperset would
  // copy the whole list just for VerifyCandidates to filter it. Falling
  // back goes straight to the signature prefilter (no second anchor scan).
  bool provably_empty = false;
  if (const std::vector<RowId>* best = BestAnchorPostings(p, &provably_empty);
      best != nullptr) {
    return VerifyCandidates(*best, p);
  }
  if (provably_empty) {
    // Keep last_candidates() accurate: this lookup had zero candidates.
    last_candidates_.store(0, std::memory_order_relaxed);
    return {};
  }
  return VerifyCandidates(SignatureCandidates(p, 0), p);
}

std::vector<RowId> PatternIndex::Lookup(const ConstrainedPattern& q) const {
  return Lookup(q.EmbeddedPattern());
}

}  // namespace anmat
