#include "discovery/profiler.h"

#include <algorithm>
#include <map>

#include "csv/type_inference.h"
#include "pattern/generalizer.h"
#include "util/string_util.h"
#include "util/tokenizer.h"

namespace anmat {

bool ColumnProfile::ExcludedFromDiscovery() const {
  if (non_null < 2) return true;
  if (numeric_ratio >= 0.98) return true;  // paper: drop pure-numeric columns
  return false;
}

bool ColumnProfile::IsNearKey() const {
  if (non_null == 0) return false;
  return static_cast<double>(distinct) / static_cast<double>(non_null) >= 0.95;
}

bool ColumnProfile::IsConstant() const { return non_null > 0 && distinct <= 1; }

namespace {

/// Profiles one column (the per-task unit of the column-parallel fan-out;
/// touches only column `c` of the relation plus its lazily-built, lock-
/// guarded dictionary).
ColumnProfile ProfileColumn(const Relation& relation, size_t c,
                            const ProfilerOptions& options) {
  ColumnProfile p;
  p.name = relation.schema().column(c).name;
  p.index = c;
  p.rows = relation.num_rows();

  const ColumnTypeStats type_stats = ComputeColumnTypeStats(relation, c);
  p.non_null = type_stats.total - type_stats.nulls;
  p.numeric_ratio = type_stats.NumericRatio();

  size_t distinct_cells = 0;
  size_t single_token_cells = 0;
  size_t token_total = 0;
  // Signature histogram at the exact level; key = pattern text.
  std::map<std::string, PatternProfileEntry> signature_hist;
  Pattern column_pattern;
  bool first = true;

  // One tokenize/generalize pass per *distinct* value (ids follow first
  // occurrence, so the Lgg fold visits new signatures in the same order a
  // row-at-a-time scan would); per-row statistics weight each distinct
  // value by its row count.
  const ColumnDictionary& dict = relation.dictionary(c);
  for (uint32_t id = 0; id < dict.num_values(); ++id) {
    const std::string& cell = dict.value(id);
    if (TrimView(cell).empty()) continue;
    const size_t count = dict.rows(id).size();
    ++distinct_cells;
    const std::vector<Token> tokens = Tokenize(cell);
    token_total += tokens.size() * count;
    if (tokens.size() == 1) single_token_cells += count;

    Pattern sig = GeneralizeString(cell, GeneralizationLevel::kClassExact);
    const std::string sig_text = sig.ToString();
    auto [it, inserted] = signature_hist.try_emplace(
        sig_text, PatternProfileEntry{sig_text, 0, 0});
    it->second.frequency += count;

    if (first) {
      column_pattern = std::move(sig);
      first = false;
    } else {
      column_pattern = Lgg(column_pattern, sig);
    }
  }

  p.distinct = distinct_cells;
  p.single_token =
      p.non_null > 0 &&
      static_cast<double>(single_token_cells) /
              static_cast<double>(p.non_null) >=
          options.single_token_ratio;
  p.avg_tokens = p.non_null > 0 ? static_cast<double>(token_total) /
                                      static_cast<double>(p.non_null)
                                : 0.0;
  p.column_pattern = std::move(column_pattern);

  // Keep the most frequent signatures (stable order: frequency desc, then
  // pattern text asc for determinism).
  std::vector<PatternProfileEntry> entries;
  entries.reserve(signature_hist.size());
  for (auto& [text, entry] : signature_hist) entries.push_back(entry);
  std::sort(entries.begin(), entries.end(),
            [](const PatternProfileEntry& a, const PatternProfileEntry& b) {
              if (a.frequency != b.frequency) return a.frequency > b.frequency;
              return a.pattern < b.pattern;
            });
  if (entries.size() > options.max_top_patterns) {
    entries.resize(options.max_top_patterns);
  }
  p.top_patterns = std::move(entries);
  return p;
}

}  // namespace

std::vector<ColumnProfile> ProfileRelation(const Relation& relation,
                                           const ProfilerOptions& options) {
  // One task per column, one slot per column: the merged vector is
  // byte-identical to the serial loop regardless of task timing.
  std::vector<ColumnProfile> profiles(relation.num_columns());
  ParallelFor(options.execution, relation.num_columns(), [&](size_t c) {
    profiles[c] = ProfileColumn(relation, c, options);
  });
  return profiles;
}

std::vector<CandidateDependency> CandidateDependencies(
    const std::vector<ColumnProfile>& profiles,
    const ProfilerOptions& options) {
  std::vector<CandidateDependency> candidates;
  for (const ColumnProfile& lhs : profiles) {
    if (lhs.non_null < options.min_non_null) continue;
    if (lhs.numeric_ratio >= options.numeric_exclusion_ratio &&
        !lhs.single_token) {
      continue;  // pure numeric multi-token: no pattern structure
    }
    if (lhs.IsConstant()) continue;  // a constant LHS determines trivially
    for (const ColumnProfile& rhs : profiles) {
      if (lhs.index == rhs.index) continue;
      if (rhs.non_null < options.min_non_null) continue;
      if (rhs.IsNearKey()) continue;   // nothing meaningfully determines a key
      if (rhs.IsConstant()) continue;  // trivially determined
      candidates.push_back(CandidateDependency{lhs.index, rhs.index});
    }
  }
  return candidates;
}

}  // namespace anmat
