#include "discovery/variable_miner.h"

#include <algorithm>
#include <string>
#include <string_view>
#include <unordered_map>

#include "pattern/generalizer.h"
#include "util/string_util.h"
#include "util/tokenizer.h"

namespace anmat {

namespace {

/// A candidate segmentation of the LHS values: each non-blank distinct value
/// either yields an extracted key (plus its surrounding context pieces) or
/// is not covered by the candidate. Pieces view the dictionary's values.
struct CandidateExtraction {
  // Parallel vectors over covered distinct values, ascending value id.
  std::vector<uint32_t> values;
  std::vector<std::string_view> keys;
  std::vector<std::string_view> prefixes;  // context before the key
  std::vector<std::string_view> suffixes;  // context after the key
  size_t covered_rows = 0;
  std::string description;
  int specificity = 0;

  void Add(const ColumnDictionary& dict, uint32_t id, size_t offset,
           size_t length) {
    const std::string_view value = dict.value(id);
    values.push_back(id);
    keys.push_back(value.substr(offset, length));
    prefixes.push_back(value.substr(0, offset));
    suffixes.push_back(value.substr(offset + length));
    covered_rows += dict.rows(id).size();
  }
};

/// Token-at-index-k extraction (k = kLastToken means the last token).
constexpr uint32_t kLastToken = 0xFFFFFFFFu;

/// Token candidates for `indexes` (kLastToken allowed), each distinct value
/// tokenized once for all of them.
std::vector<CandidateExtraction> ExtractTokenCandidates(
    const ColumnDictionary& dict, const std::vector<uint32_t>& indexes,
    size_t max_value_length) {
  std::vector<CandidateExtraction> out(indexes.size());
  for (size_t c = 0; c < indexes.size(); ++c) {
    const uint32_t index = indexes[c];
    out[c].description = index == kLastToken
                             ? "last token"
                             : "token " + std::to_string(index);
    out[c].specificity = index == kLastToken ? 100 : static_cast<int>(index);
  }
  for (uint32_t id = 0; id < dict.num_values(); ++id) {
    if (!CarriesKeys(dict.value(id), max_value_length)) continue;
    const std::vector<Token> tokens = Tokenize(dict.value(id));
    // Keying on "the" first/last token is only meaningful when there are at
    // least two tokens (otherwise the key is the whole value and the PFD
    // degenerates to a plain FD).
    if (tokens.size() < 2) continue;
    for (size_t c = 0; c < indexes.size(); ++c) {
      const uint32_t idx = indexes[c] == kLastToken
                               ? static_cast<uint32_t>(tokens.size() - 1)
                               : indexes[c];
      if (idx >= tokens.size()) continue;
      out[c].Add(dict, id, tokens[idx].offset, tokens[idx].text.size());
    }
  }
  return out;
}

/// First-k / last-k characters extraction for single-token code columns.
CandidateExtraction ExtractGramCandidate(const ColumnDictionary& dict,
                                         size_t k, bool suffix_key,
                                         size_t max_value_length) {
  CandidateExtraction out;
  out.description = (suffix_key ? "suffix " : "prefix ") + std::to_string(k);
  out.specificity = static_cast<int>(k) + (suffix_key ? 1000 : 0);
  for (uint32_t id = 0; id < dict.num_values(); ++id) {
    const std::string_view value = dict.value(id);
    if (!CarriesKeys(value, max_value_length)) continue;
    // The key must be a strict part of the value, or the PFD would
    // degenerate to a plain FD on the whole value.
    if (value.size() <= k) continue;
    out.Add(dict, id, suffix_key ? value.size() - k : 0, k);
  }
  return out;
}

/// Evaluates how functionally the extracted keys determine the RHS column.
struct FunctionalScore {
  size_t covered = 0;
  size_t tested = 0;
  size_t violations = 0;
  size_t multi_groups = 0;
  double violation_ratio = 0.0;
};

FunctionalScore ScoreCandidate(const CandidateExtraction& cand,
                               const PairCounts& counts) {
  FunctionalScore score;
  score.covered = cand.covered_rows;
  // Group the covered values by key, then sum each group's (RHS id, rows)
  // pairs.
  std::unordered_map<std::string_view, uint32_t> group_of;
  std::vector<std::vector<uint32_t>> groups;
  for (size_t i = 0; i < cand.values.size(); ++i) {
    auto [it, inserted] = group_of.try_emplace(
        cand.keys[i], static_cast<uint32_t>(groups.size()));
    if (inserted) groups.emplace_back();
    groups[it->second].push_back(cand.values[i]);
  }
  std::vector<PairCounts::Pair> pairs;
  for (const std::vector<uint32_t>& members : groups) {
    pairs.clear();
    for (const uint32_t id : members) {
      const auto of = counts.of(id);
      pairs.insert(pairs.end(), of.begin(), of.end());
    }
    PairCounts::SumByRhs(&pairs);
    size_t total = 0;
    size_t best = 0;
    for (const PairCounts::Pair& p : pairs) {
      total += p.rows;
      best = std::max<size_t>(best, p.rows);
    }
    if (total >= 2) {
      ++score.multi_groups;
      score.tested += total;
      score.violations += total - best;
    }
  }
  score.violation_ratio =
      score.tested == 0 ? 1.0
                        : static_cast<double>(score.violations) /
                              static_cast<double>(score.tested);
  return score;
}

/// Builds the constrained pattern `prefix (key-signature)! suffix` where the
/// key signature generalizes the extracted keys and the contexts generalize
/// the surrounding pieces, each folded over the covered rows in row order.
ConstrainedPattern BuildVariableLhs(const CandidateExtraction& cand,
                                    const ColumnDictionary& dict) {
  constexpr uint32_t kUncovered = 0xFFFFFFFFu;
  std::vector<uint32_t> piece_of(dict.num_values(), kUncovered);
  for (size_t i = 0; i < cand.values.size(); ++i) {
    piece_of[cand.values[i]] = static_cast<uint32_t>(i);
  }
  std::vector<uint32_t> sequence;
  sequence.reserve(cand.covered_rows);
  for (RowId r = 0; r < dict.num_rows(); ++r) {
    const uint32_t piece = piece_of[dict.value_id(r)];
    if (piece != kUncovered) sequence.push_back(piece);
  }
  const Pattern key_sig = GeneralizeSequence(cand.keys, sequence);
  const Pattern prefix = GeneralizeSequence(cand.prefixes, sequence);
  const Pattern suffix = GeneralizeSequence(cand.suffixes, sequence);

  std::vector<PatternSegment> segments;
  if (!prefix.elements().empty()) {
    segments.push_back(PatternSegment{prefix, false});
  }
  segments.push_back(PatternSegment{key_sig, true});
  if (!suffix.elements().empty()) {
    segments.push_back(PatternSegment{suffix, false});
  }
  return ConstrainedPattern(std::move(segments));
}

}  // namespace

Result<std::vector<MinedVariableRow>> MineVariableRows(
    const Relation& relation, size_t lhs_col, size_t rhs_col, TokenMode mode,
    const VariableMinerOptions& options) {
  if (lhs_col >= relation.num_columns() || rhs_col >= relation.num_columns()) {
    return Status::OutOfRange("column index out of range");
  }
  if (lhs_col == rhs_col) {
    return Status::InvalidArgument("LHS and RHS columns must differ");
  }
  return MineVariableRows(mode, PairCounts(relation, lhs_col, rhs_col),
                          options);
}

Result<std::vector<MinedVariableRow>> MineVariableRows(
    TokenMode mode, const PairCounts& counts,
    const VariableMinerOptions& options) {
  // Non-blank rows: the coverage denominator.
  const ColumnDictionary& dict = counts.lhs();
  size_t non_null = 0;
  for (uint32_t id = 0; id < dict.num_values(); ++id) {
    if (!TrimView(dict.value(id)).empty()) non_null += dict.rows(id).size();
  }
  if (non_null < 2) return std::vector<MinedVariableRow>{};

  std::vector<CandidateExtraction> candidates;
  if (mode == TokenMode::kTokens) {
    std::vector<uint32_t> indexes = options.token_positions;
    if (options.probe_last_token) indexes.push_back(kLastToken);
    candidates =
        ExtractTokenCandidates(dict, indexes, options.max_value_length);
  } else {
    for (size_t k : options.prefix_lengths) {
      candidates.push_back(ExtractGramCandidate(
          dict, k, /*suffix_key=*/false, options.max_value_length));
      if (options.probe_suffixes) {
        candidates.push_back(ExtractGramCandidate(
            dict, k, /*suffix_key=*/true, options.max_value_length));
      }
    }
  }

  std::vector<MinedVariableRow> passing;
  for (const CandidateExtraction& cand : candidates) {
    if (cand.values.empty()) continue;
    const double coverage =
        static_cast<double>(cand.covered_rows) / static_cast<double>(non_null);
    if (coverage < options.min_key_coverage) continue;

    const FunctionalScore score = ScoreCandidate(cand, counts);
    if (score.multi_groups < options.min_multi_groups) continue;
    if (score.tested == 0 ||
        static_cast<double>(score.tested) /
                static_cast<double>(score.covered) <
            options.min_tested_fraction) {
      continue;
    }
    if (score.violation_ratio > options.allowed_violation_ratio) continue;

    MinedVariableRow m;
    m.row.lhs.push_back(TableauCell::Of(BuildVariableLhs(cand, dict)));
    m.row.rhs.push_back(TableauCell::Wildcard());
    m.description = cand.description;
    m.covered = score.covered;
    m.tested = score.tested;
    m.violations = score.violations;
    m.violation_ratio = score.violation_ratio;
    m.specificity = cand.specificity;
    passing.push_back(std::move(m));
  }

  // Prefer the most general candidate: lowest specificity, then highest
  // coverage. Callers typically keep only the first row.
  std::sort(passing.begin(), passing.end(),
            [](const MinedVariableRow& a, const MinedVariableRow& b) {
              if (a.specificity != b.specificity) {
                return a.specificity < b.specificity;
              }
              return a.covered > b.covered;
            });
  return passing;
}

}  // namespace anmat
