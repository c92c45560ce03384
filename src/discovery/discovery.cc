#include "discovery/discovery.h"

#include <algorithm>
#include <optional>
#include <set>
#include <utility>

namespace anmat {

namespace {

/// Renders the Figure-4 style provenance line for one mined constant row.
std::string ConstantProvenance(const MinedRow& m) {
  return m.key_text + "::" + std::to_string(m.key_position) + ", " +
         std::to_string(m.support);
}

/// §4: n-grams for single-token columns (codes/ids), word tokens otherwise.
TokenMode ModeOf(const ColumnProfile& profile) {
  return profile.single_token ? TokenMode::kNGrams : TokenMode::kTokens;
}

/// Mines one candidate dependency end-to-end (constant + variable rows,
/// coverage filtering) — the per-task unit of the candidate-parallel
/// fan-out. Returns the 0..2 surviving PFDs in constant-before-variable
/// order, exactly as the serial loop appended them.
Result<std::vector<DiscoveredPfd>> MineCandidate(
    const Relation& relation, const ColumnProfile& lhs_profile,
    const CandidateDependency& cand, const DiscoveryOptions& options,
    const ConstantMinerOptions& cm, const VariableMinerOptions& vm,
    AutomatonCache* automata, const ColumnIndexes& lhs_indexes,
    const std::optional<ColumnKeyLists>& key_lists) {
  std::vector<DiscoveredPfd> out;
  const std::string& lhs_name = relation.schema().column(cand.lhs_col).name;
  const std::string& rhs_name = relation.schema().column(cand.rhs_col).name;
  // The RHS side of both miners: one row pass over the candidate's pair of
  // columns.
  const PairCounts counts(relation, cand.lhs_col, cand.rhs_col);

  // ---- Constant PFD for this dependency --------------------------------
  if (options.mine_constant) {
    ANMAT_ASSIGN_OR_RETURN(
        std::vector<MinedRow> rows,
        MineConstantRows(*key_lists, counts, cm));
    if (!rows.empty()) {
      Tableau tableau;
      std::vector<std::string> provenance;
      for (const MinedRow& m : rows) {
        tableau.AddRow(m.row);
        provenance.push_back(ConstantProvenance(m));
      }
      Pfd pfd = Pfd::Simple(options.table_name, lhs_name, rhs_name,
                            std::move(tableau));
      ANMAT_ASSIGN_OR_RETURN(
          CoverageStats stats,
          ComputeCoverage(pfd, relation, automata, &lhs_indexes));
      if (stats.Coverage() >= options.min_coverage &&
          stats.ViolationRate() <= options.allowed_violation_ratio) {
        out.push_back(DiscoveredPfd{std::move(pfd), stats,
                                    std::move(provenance)});
      }
    }
  }

  // ---- Variable PFD for this dependency --------------------------------
  if (options.mine_variable) {
    ANMAT_ASSIGN_OR_RETURN(
        std::vector<MinedVariableRow> rows,
        MineVariableRows(ModeOf(lhs_profile), counts, vm));
    if (rows.size() > options.max_variable_rows) {
      rows.resize(options.max_variable_rows);
    }
    if (!rows.empty()) {
      Tableau tableau;
      std::vector<std::string> provenance;
      for (const MinedVariableRow& m : rows) {
        tableau.AddRow(m.row);
        provenance.push_back(m.description + ", covered " +
                             std::to_string(m.covered));
      }
      Pfd pfd = Pfd::Simple(options.table_name, lhs_name, rhs_name,
                            std::move(tableau));
      ANMAT_ASSIGN_OR_RETURN(
          CoverageStats stats,
          ComputeCoverage(pfd, relation, automata, &lhs_indexes));
      if (stats.Coverage() >= options.min_coverage &&
          stats.ViolationRate() <= options.allowed_violation_ratio) {
        out.push_back(DiscoveredPfd{std::move(pfd), stats,
                                    std::move(provenance)});
      }
    }
  }
  return out;
}

}  // namespace

Result<DiscoveryResult> DiscoverPfds(const Relation& relation,
                                     const DiscoveryOptions& options) {
  DiscoveryResult result;
  ProfilerOptions profiler_options = options.profiler;
  profiler_options.execution = options.execution;
  result.profiles = ProfileRelation(relation, profiler_options);

  const std::vector<CandidateDependency> candidates =
      CandidateDependencies(result.profiles, options.profiler);
  result.candidates_examined = candidates.size();

  // Propagate the user's allowed violation ratio into the miners unless the
  // caller already customized them.
  ConstantMinerOptions cm = options.constant_miner;
  cm.decision.allowed_violation_ratio = options.allowed_violation_ratio;
  VariableMinerOptions vm = options.variable_miner;
  vm.allowed_violation_ratio = options.allowed_violation_ratio;

  // One automaton cache for the whole run, as detection's entry points
  // install one: each distinct pattern compiles once across candidates.
  const std::shared_ptr<AutomatonCache> automata =
      options.automata != nullptr ? options.automata
                                  : std::make_shared<AutomatonCache>();

  // One pattern index per LHS column, built once and shared read-only by
  // the coverage checks of every candidate on that column (the constant
  // and variable PFD of each).
  std::set<size_t> lhs_cols;
  for (const CandidateDependency& c : candidates) lhs_cols.insert(c.lhs_col);
  const ColumnIndexes lhs_indexes = BuildColumnIndexes(
      relation, std::vector<size_t>(lhs_cols.begin(), lhs_cols.end()),
      automata.get(), options.execution);

  // The constant miner's key lists: one task per (LHS column, list), built
  // over the column's dictionary and shared read-only by every candidate
  // on the column.
  std::vector<std::optional<ColumnKeyLists>> key_lists(relation.num_columns());
  if (options.mine_constant) {
    std::vector<std::pair<size_t, size_t>> tasks;
    for (const size_t col : lhs_cols) {
      key_lists[col].emplace(ModeOf(result.profiles[col]), cm);
      for (size_t slot = 0; slot < key_lists[col]->num_slots(); ++slot) {
        tasks.emplace_back(col, slot);
      }
    }
    ParallelFor(options.execution, tasks.size(), [&](size_t t) {
      const auto [col, slot] = tasks[t];
      key_lists[col]->BuildSlot(relation.dictionary(col), slot, cm);
    });
  }

  // One task and one slot per candidate. Slots are merged in candidate
  // order and the final sort below is stable, so parallel output is
  // byte-identical to the serial loop; the first mining error (in candidate
  // order) is reported, as a serial run would.
  std::vector<std::vector<DiscoveredPfd>> slots(candidates.size());
  std::vector<Status> errors(candidates.size());
  ParallelFor(options.execution, candidates.size(), [&](size_t i) {
    Result<std::vector<DiscoveredPfd>> mined =
        MineCandidate(relation, result.profiles[candidates[i].lhs_col],
                      candidates[i], options, cm, vm, automata.get(),
                      lhs_indexes, key_lists[candidates[i].lhs_col]);
    if (mined.ok()) {
      slots[i] = std::move(mined).value();
    } else {
      errors[i] = mined.status();
    }
  });
  for (size_t i = 0; i < candidates.size(); ++i) {
    ANMAT_RETURN_NOT_OK(errors[i]);
    for (DiscoveredPfd& d : slots[i]) result.pfds.push_back(std::move(d));
  }

  // Deterministic output order: by LHS attr, RHS attr, constant-before-
  // variable, then summary text. Stable, so equal-comparing entries keep
  // their candidate order under any thread count.
  std::stable_sort(result.pfds.begin(), result.pfds.end(),
                   [](const DiscoveredPfd& a, const DiscoveredPfd& b) {
                     if (a.pfd.lhs_attrs() != b.pfd.lhs_attrs()) {
                       return a.pfd.lhs_attrs() < b.pfd.lhs_attrs();
                     }
                     if (a.pfd.rhs_attrs() != b.pfd.rhs_attrs()) {
                       return a.pfd.rhs_attrs() < b.pfd.rhs_attrs();
                     }
                     if (a.pfd.IsConstant() != b.pfd.IsConstant()) {
                       return a.pfd.IsConstant();
                     }
                     return a.pfd.ToString() < b.pfd.ToString();
                   });
  return result;
}

}  // namespace anmat
