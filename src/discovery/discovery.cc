#include "discovery/discovery.h"

#include <algorithm>

namespace anmat {

namespace {

/// Renders the Figure-4 style provenance line for one mined constant row.
std::string ConstantProvenance(const MinedRow& m) {
  return m.key_text + "::" + std::to_string(m.key_position) + ", " +
         std::to_string(m.support);
}

/// Mines one candidate dependency end-to-end (constant + variable rows,
/// coverage filtering) — the per-task unit of the candidate-parallel
/// fan-out. Returns the 0..2 surviving PFDs in constant-before-variable
/// order, exactly as the serial loop appended them.
Result<std::vector<DiscoveredPfd>> MineCandidate(
    const Relation& relation, const ColumnProfile& lhs_profile,
    const CandidateDependency& cand, const DiscoveryOptions& options,
    const ConstantMinerOptions& cm, const VariableMinerOptions& vm) {
  std::vector<DiscoveredPfd> out;
  const std::string& lhs_name = relation.schema().column(cand.lhs_col).name;
  const std::string& rhs_name = relation.schema().column(cand.rhs_col).name;

  // §4: n-grams for single-token columns (codes/ids), word tokens
  // otherwise.
  const TokenMode mode =
      lhs_profile.single_token ? TokenMode::kNGrams : TokenMode::kTokens;

  // ---- Constant PFD for this dependency --------------------------------
  if (options.mine_constant) {
    ANMAT_ASSIGN_OR_RETURN(
        std::vector<MinedRow> rows,
        MineConstantRows(relation, cand.lhs_col, cand.rhs_col, mode, cm));
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
          ComputeCoverage(pfd, relation, options.automata.get()));
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
        MineVariableRows(relation, cand.lhs_col, cand.rhs_col, mode, vm));
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
          ComputeCoverage(pfd, relation, options.automata.get()));
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

  // One task and one slot per candidate. Slots are merged in candidate
  // order and the final sort below is stable, so parallel output is
  // byte-identical to the serial loop; the first mining error (in candidate
  // order) is reported, as a serial run would.
  std::vector<std::vector<DiscoveredPfd>> slots(candidates.size());
  std::vector<Status> errors(candidates.size());
  ParallelFor(options.execution, candidates.size(), [&](size_t i) {
    Result<std::vector<DiscoveredPfd>> mined =
        MineCandidate(relation, result.profiles[candidates[i].lhs_col],
                      candidates[i], options, cm, vm);
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
