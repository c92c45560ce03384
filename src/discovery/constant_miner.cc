#include "discovery/constant_miner.h"

#include <algorithm>
#include <optional>
#include <string_view>

#include "pattern/containment.h"
#include "pattern/generalizer.h"
#include "pattern/matcher.h"
#include "util/string_util.h"

namespace anmat {

namespace {

/// An accepted entry's context pieces: each posted value split around its
/// key, and the row-order sequence of those values over the entry's rows
/// with a non-blank RHS (the rows a row-at-a-time split visited).
struct ContextParts {
  std::vector<std::string_view> prefixes;  ///< one per posting
  std::vector<std::string_view> suffixes;
  std::vector<uint32_t> sequence;  ///< piece index per row, row order
};

ContextParts SplitContexts(const KeyEntry& entry, const PairCounts& counts) {
  const ColumnDictionary& lhs = counts.lhs();
  const ColumnDictionary& rhs = counts.rhs();
  ContextParts parts;
  std::vector<std::pair<RowId, uint32_t>> rows;
  for (const Posting& p : entry.postings) {
    const std::string_view value = lhs.value(p.value_id);
    const auto piece = static_cast<uint32_t>(parts.prefixes.size());
    parts.prefixes.push_back(value.substr(0, p.offset));
    parts.suffixes.push_back(value.substr(p.offset + entry.text.size()));
    for (const RowId r : lhs.rows(p.value_id)) {
      if (!counts.rhs_blank(rhs.value_id(r))) rows.emplace_back(r, piece);
    }
  }
  std::sort(rows.begin(), rows.end());
  parts.sequence.reserve(rows.size());
  for (const auto& [row, piece] : rows) parts.sequence.push_back(piece);
  return parts;
}

Pattern GeneralizeContext(const std::vector<std::string_view>& pieces,
                          const std::vector<uint32_t>& sequence,
                          ContextStyle style) {
  Pattern p = GeneralizeSequence(pieces, sequence);
  if (style == ContextStyle::kAnyRuns) p = FlattenToAnyRuns(p);
  return p;
}

/// Builds the LHS constrained pattern: generalized prefix, literal key
/// (constrained), generalized suffix.
ConstrainedPattern BuildLhsPattern(const Pattern& prefix,
                                   const std::string& key,
                                   const Pattern& suffix) {
  std::vector<PatternSegment> segments;
  if (!prefix.elements().empty()) {
    segments.push_back(PatternSegment{prefix, false});
  }
  segments.push_back(PatternSegment{LiteralPattern(key), true});
  if (!suffix.elements().empty()) {
    segments.push_back(PatternSegment{suffix, false});
  }
  return ConstrainedPattern(std::move(segments));
}

}  // namespace

ColumnKeyLists::ColumnKeyLists(TokenMode mode,
                               const ConstantMinerOptions& options)
    : mode(mode),
      gram_lengths(mode == TokenMode::kTokens ? std::vector<size_t>{0}
                                              : options.gram_lengths),
      grams(gram_lengths.size()) {}

void ColumnKeyLists::BuildSlot(const ColumnDictionary& dict, size_t slot,
                               const ConstantMinerOptions& options) {
  if (slot < grams.size()) {
    grams[slot] = BuildKeyList(dict, mode, gram_lengths[slot],
                               options.max_value_length);
  } else if (options.mine_signatures) {
    signatures = BuildSignatureList(dict, options.max_value_length,
                                    &signature_patterns);
  }
}

Result<std::vector<MinedRow>> MineConstantRows(
    const Relation& relation, size_t lhs_col, size_t rhs_col, TokenMode mode,
    const ConstantMinerOptions& options) {
  if (lhs_col >= relation.num_columns() || rhs_col >= relation.num_columns()) {
    return Status::OutOfRange("column index out of range");
  }
  if (lhs_col == rhs_col) {
    return Status::InvalidArgument("LHS and RHS columns must differ");
  }
  ColumnKeyLists lists(mode, options);
  for (size_t slot = 0; slot < lists.num_slots(); ++slot) {
    lists.BuildSlot(relation.dictionary(lhs_col), slot, options);
  }
  return MineConstantRows(lists, PairCounts(relation, lhs_col, rhs_col),
                          options);
}

Result<std::vector<MinedRow>> MineConstantRows(
    const ColumnKeyLists& lists, const PairCounts& counts,
    const ConstantMinerOptions& options) {
  if (lists.mode == TokenMode::kPrefix) {
    return Status::InvalidArgument(
        "the constant miner takes tokens or n-grams");
  }

  std::vector<MinedRow> mined;

  // Support floor scaled by the column's non-null size (see header).
  const ColumnDictionary& lhs = counts.lhs();
  size_t non_null = 0;
  for (uint32_t id = 0; id < lhs.num_values(); ++id) {
    if (!TrimView(lhs.value(id)).empty()) non_null += lhs.rows(id).size();
  }
  DecisionOptions decision_options = options.decision;
  decision_options.min_support = std::max(
      decision_options.min_support,
      static_cast<size_t>(options.min_support_ratio *
                          static_cast<double>(non_null)));

  const ContextStyle style = lists.mode == TokenMode::kTokens
                                 ? options.token_context
                                 : options.gram_context;
  for (const KeyList& list : lists.grams) {
    // Accepted entries in support order (support desc, then text, then
    // position); an entry whose rows cannot reach the floor is cut before
    // any counting.
    std::vector<std::pair<const KeyEntry*, Decision>> accepted;
    for (const KeyEntry& entry : list) {
      if (entry.rows < decision_options.min_support) continue;
      Decision decision =
          DecideConstantEntry(entry.postings, counts, decision_options);
      if (decision.accept) accepted.emplace_back(&entry, std::move(decision));
    }
    std::sort(accepted.begin(), accepted.end(),
              [](const auto& a, const auto& b) {
                if (a.second.support != b.second.support) {
                  return a.second.support > b.second.support;
                }
                if (a.first->text != b.first->text) {
                  return a.first->text < b.first->text;
                }
                return a.first->position < b.first->position;
              });
    for (const auto& [entry, decision] : accepted) {
      const ContextParts parts = SplitContexts(*entry, counts);
      const Pattern prefix =
          GeneralizeContext(parts.prefixes, parts.sequence, style);
      const Pattern suffix =
          GeneralizeContext(parts.suffixes, parts.sequence, style);

      MinedRow m;
      m.row.lhs.push_back(
          TableauCell::Of(BuildLhsPattern(prefix, entry->text, suffix)));
      m.row.rhs.push_back(TableauCell::Of(ConstrainedPattern::Unconstrained(
          LiteralPattern(decision.dominant_rhs))));
      m.key_text = entry->text;
      m.key_position = entry->position;
      m.support = decision.support;
      m.agreeing = decision.agreeing;
      m.violation_ratio = decision.violation_ratio;
      mined.push_back(std::move(m));
    }
  }

  // Signature pass: the values grouped by the class-run signature of the
  // whole value, decided the same way. The "key" of such a rule is the
  // signature text itself; the LHS tableau cell constrains the whole
  // (pattern-shaped) value.
  for (size_t i = 0; i < lists.signatures.size(); ++i) {
    const KeyEntry& entry = lists.signatures[i];
    if (entry.rows < decision_options.min_support) continue;
    const Decision decision =
        DecideConstantEntry(entry.postings, counts, decision_options);
    if (!decision.accept) continue;
    MinedRow m;
    m.row.lhs.push_back(TableauCell::Of(
        ConstrainedPattern::WholePattern(lists.signature_patterns[i])));
    m.row.rhs.push_back(TableauCell::Of(ConstrainedPattern::Unconstrained(
        LiteralPattern(decision.dominant_rhs))));
    m.key_text = entry.text;
    m.key_position = 0;
    m.support = decision.support;
    m.agreeing = decision.agreeing;
    m.violation_ratio = decision.violation_ratio;
    mined.push_back(std::move(m));
  }

  // Rank: support desc, then *anchored* keys first (position 0 — the shape
  // the paper's Table 3 reports, e.g. `850\D{7}` rather than `\D50\D{7}`),
  // then shorter key (more general), then text.
  std::sort(mined.begin(), mined.end(), [](const MinedRow& a,
                                           const MinedRow& b) {
    if (a.support != b.support) return a.support > b.support;
    if (a.key_position != b.key_position) {
      return a.key_position < b.key_position;
    }
    if (a.key_text.size() != b.key_text.size()) {
      return a.key_text.size() < b.key_text.size();
    }
    return a.key_text < b.key_text;
  });

  if (mined.size() > options.max_candidates) {
    mined.resize(options.max_candidates);
  }

  // Redundancy pruning: drop a row whose LHS language is comparable
  // (contained either way) with an already-kept row's LHS carrying the same
  // RHS constant — the kept (higher-ranked) row subsumes the rule. Checking
  // both directions removes unanchored mirror keys of equal support (e.g.
  // `\D50\D{7}` once `850\D{7}` is kept). Each LHS is compiled at most
  // once, on its first check; a kept row's automaton keeps the transitions
  // earlier checks materialized for every later one.
  struct PruneKey {
    std::string rhs;
    Pattern lhs;
    std::optional<ContainmentAutomaton> automaton;

    const ContainmentAutomaton& Compiled() {
      if (!automaton) automaton.emplace(lhs);
      return *automaton;
    }
  };
  std::vector<MinedRow> kept;
  std::vector<PruneKey> kept_keys;
  for (MinedRow& candidate : mined) {
    bool redundant = false;
    PruneKey cand;
    candidate.row.rhs[0].IsConstant(&cand.rhs);
    cand.lhs = candidate.row.lhs[0].pattern().EmbeddedPattern();
    for (PruneKey& existing : kept_keys) {
      if (existing.rhs != cand.rhs) continue;
      if (cand.lhs.MinLength() > options.max_containment_length ||
          existing.lhs.MinLength() > options.max_containment_length) {
        // Monster patterns: containment costs too much for what it prunes;
        // drop only exact duplicates.
        if (existing.lhs == cand.lhs) {
          redundant = true;
          break;
        }
        continue;
      }
      if (PatternContains(existing.Compiled(), cand.Compiled()) ||
          PatternContains(cand.Compiled(), existing.Compiled())) {
        redundant = true;
        break;
      }
    }
    if (!redundant) {
      kept.push_back(std::move(candidate));
      kept_keys.push_back(std::move(cand));
      if (kept.size() >= options.max_rows) break;
    }
  }
  return kept;
}

}  // namespace anmat
