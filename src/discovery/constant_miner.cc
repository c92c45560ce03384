#include "discovery/constant_miner.h"

#include <algorithm>
#include <map>
#include <optional>
#include <set>

#include "pattern/containment.h"
#include "pattern/generalizer.h"
#include "pattern/matcher.h"
#include "util/string_util.h"

namespace anmat {

namespace {

/// Splits each posting's LHS cell into (prefix, key, suffix) around the key
/// occurrence and generalizes prefixes/suffixes across the entry group.
struct ContextParts {
  std::vector<std::string> prefixes;
  std::vector<std::string> suffixes;
  bool valid = true;
};

ContextParts SplitContexts(const Relation& relation, size_t lhs_col,
                           const TokenKey& key,
                           const std::vector<Posting>& postings,
                           TokenMode mode) {
  ContextParts parts;
  std::set<RowId> seen;
  for (const Posting& p : postings) {
    if (!seen.insert(p.row).second) continue;  // one occurrence per row
    const std::string_view cell = relation.cell(p.row, lhs_col);
    size_t offset;
    if (mode == TokenMode::kTokens) {
      // Recover the character offset of the key token in this row's cell.
      const std::vector<Token> tokens = Tokenize(cell);
      if (key.position >= tokens.size() ||
          tokens[key.position].text != key.text) {
        parts.valid = false;
        return parts;
      }
      offset = tokens[key.position].offset;
    } else {
      offset = key.position;  // n-gram positions are character offsets
      if (cell.compare(offset, key.text.size(), key.text) != 0) {
        parts.valid = false;
        return parts;
      }
    }
    parts.prefixes.emplace_back(cell.substr(0, offset));
    parts.suffixes.emplace_back(cell.substr(offset + key.text.size()));
  }
  return parts;
}

Pattern GeneralizeContext(const std::vector<std::string>& pieces,
                          ContextStyle style) {
  Pattern p = GeneralizeValues(pieces, GeneralizationLevel::kClassExact);
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

Result<std::vector<MinedRow>> MineConstantRows(
    const Relation& relation, size_t lhs_col, size_t rhs_col, TokenMode mode,
    const ConstantMinerOptions& options) {
  if (lhs_col >= relation.num_columns() || rhs_col >= relation.num_columns()) {
    return Status::OutOfRange("column index out of range");
  }
  if (lhs_col == rhs_col) {
    return Status::InvalidArgument("LHS and RHS columns must differ");
  }

  std::vector<MinedRow> mined;

  // Support floor scaled by the column's non-null size (see header).
  size_t non_null = 0;
  for (std::string_view cell : relation.column(lhs_col)) {
    if (!TrimView(cell).empty()) ++non_null;
  }
  DecisionOptions decision_options = options.decision;
  decision_options.min_support = std::max(
      decision_options.min_support,
      static_cast<size_t>(options.min_support_ratio *
                          static_cast<double>(non_null)));

  std::vector<size_t> gram_lengths = options.gram_lengths;
  if (mode == TokenMode::kTokens) gram_lengths = {0};  // single pass

  for (size_t gram_len : gram_lengths) {
    const InvertedList list =
        BuildInvertedList(relation, lhs_col, rhs_col, mode, gram_len,
                          options.max_value_length);
    for (const auto* entry : list.SortedEntries()) {
      const TokenKey& key = entry->first;
      const std::vector<Posting>& postings = entry->second;

      const Decision decision =
          DecideConstantEntry(postings, decision_options);
      if (!decision.accept) continue;

      const ContextParts parts =
          SplitContexts(relation, lhs_col, key, postings, mode);
      if (!parts.valid) continue;

      const ContextStyle style = mode == TokenMode::kTokens
                                     ? options.token_context
                                     : options.gram_context;
      const Pattern prefix = GeneralizeContext(parts.prefixes, style);
      const Pattern suffix = GeneralizeContext(parts.suffixes, style);

      MinedRow m;
      m.row.lhs.push_back(
          TableauCell::Of(BuildLhsPattern(prefix, key.text, suffix)));
      m.row.rhs.push_back(TableauCell::Of(ConstrainedPattern::Unconstrained(
          LiteralPattern(decision.dominant_rhs))));
      m.key_text = key.text;
      m.key_position = key.position;
      m.support = decision.support;
      m.agreeing = decision.agreeing;
      m.violation_ratio = decision.violation_ratio;
      mined.push_back(std::move(m));
    }
  }

  // Signature pass: group rows by the class-run signature of the whole LHS
  // cell and apply the same decision function. The "key" of such a rule is
  // the signature text itself; the LHS tableau cell constrains the whole
  // (pattern-shaped) value.
  if (options.mine_signatures) {
    std::map<std::string, std::vector<Posting>> by_signature;
    std::map<std::string, Pattern> signature_patterns;
    const auto& lhs_values = relation.column(lhs_col);
    const auto& rhs_values = relation.column(rhs_col);
    for (RowId r = 0; r < relation.num_rows(); ++r) {
      if (TrimView(lhs_values[r]).empty() || TrimView(rhs_values[r]).empty()) {
        continue;
      }
      if (options.max_value_length > 0 &&
          lhs_values[r].size() > options.max_value_length) {
        continue;
      }
      Pattern sig =
          GeneralizeString(lhs_values[r], GeneralizationLevel::kClassExact);
      std::string sig_text = sig.ToString();
      by_signature[sig_text].push_back(
          Posting{r, 0, std::string(rhs_values[r])});
      signature_patterns.try_emplace(std::move(sig_text), std::move(sig));
    }
    for (const auto& [sig_text, postings] : by_signature) {
      const Decision decision =
          DecideConstantEntry(postings, decision_options);
      if (!decision.accept) continue;
      MinedRow m;
      m.row.lhs.push_back(TableauCell::Of(
          ConstrainedPattern::WholePattern(signature_patterns.at(sig_text))));
      m.row.rhs.push_back(TableauCell::Of(ConstrainedPattern::Unconstrained(
          LiteralPattern(decision.dominant_rhs))));
      m.key_text = sig_text;
      m.key_position = 0;
      m.support = decision.support;
      m.agreeing = decision.agreeing;
      m.violation_ratio = decision.violation_ratio;
      mined.push_back(std::move(m));
    }
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
