#ifndef ANMAT_ANMAT_REPORT_H_
#define ANMAT_ANMAT_REPORT_H_

/// \file report.h
/// Text renderers for the demo's three views (Figures 3-5) and for the
/// Table-3 style summary. These are the CLI substitutes for the paper's
/// GUI (DESIGN.md §2).

#include <string>
#include <vector>

#include "anmat/project.h"
#include "datagen/error_injector.h"
#include "detect/detection_stream.h"
#include "detect/violation.h"
#include "discovery/discovery.h"
#include "relation/relation.h"
#include "repair/repair.h"
#include "store/rule_store.h"
#include "util/json.h"

namespace anmat {

/// \brief Figure 3: per-column profiling view with the dominant
/// "pattern::position, frequency" entries.
std::string RenderProfilingView(const std::vector<ColumnProfile>& profiles);

/// \brief Figure 4: the discovered PFDs with tableaux, coverage, and
/// provenance entries.
std::string RenderDiscoveredPfdsView(
    const std::vector<DiscoveredPfd>& discovered);

/// \brief Figure 5: detected violations with the violated rule and the full
/// violating record(s).
std::string RenderViolationsView(const Relation& relation,
                                 const std::vector<Pfd>& pfds,
                                 const DetectionResult& detection,
                                 size_t max_rows = 50);

/// \brief Table 3 style: one line per (dependency, tableau row) with an
/// example detected error ("8505467600 | CA").
std::string RenderTable3Style(const Relation& relation,
                              const std::vector<Pfd>& pfds,
                              const DetectionResult& detection);

/// \brief Renders a precision/recall scorecard (A3/A4 benches).
std::string RenderScorecard(const std::string& label,
                            const PrecisionRecall& pr);

/// \brief A repair run: summary line plus one line per applied repair.
std::string RenderRepairView(const RepairResult& result);

/// \brief The project rule store: one line per rule with id, lifecycle
/// status, provenance and the rule text (`anmat rules list`).
std::string RenderRuleSetView(const RuleSet& rules);

/// \brief `anmat project fsck`: what journal recovery did and whether the
/// project loads afterwards — `project` when it does, else null and
/// `error` saying why.
std::string RenderFsckView(const JournalRecoveryReport& report,
                           const Project* project, const Status& error);

// -- Machine-readable variants (the CLI's --format json) -------------------

/// \brief The profiling view as JSON: one object per column with the
/// statistics and the dominant "pattern/position/frequency" entries.
JsonValue ProfilesToJson(const std::vector<ColumnProfile>& profiles);

/// \brief The discovered PFDs as JSON: rule text, coverage statistics and
/// provenance per PFD.
JsonValue DiscoveredPfdsToJson(const std::vector<DiscoveredPfd>& discovered);

/// \brief A detection result as JSON: run statistics plus one object per
/// violation (kind, rule, cells, suspect, suggested repair, explanation).
JsonValue DetectionToJson(const Relation& relation,
                          const std::vector<Pfd>& pfds,
                          const DetectionResult& detection);

/// \brief One applied repair as JSON (row, column, before, after, pass,
/// pfd_index, and the rule text when `pfds` covers the index).
JsonValue AppliedRepairToJson(const AppliedRepair& repair,
                              const std::vector<Pfd>& pfds = {});

/// \brief A repair result as JSON: passes, remaining violations, the
/// applied repairs and the conflicted cells (the CLI's
/// `repair --format json`).
JsonValue RepairToJson(const RepairResult& result,
                       const std::vector<Pfd>& pfds = {});

/// \brief The project rule store as JSON: one object per rule with id,
/// status, provenance and rule text (`anmat rules list --format json`).
JsonValue RuleSetToJson(const RuleSet& rules);

/// \brief The fsck report as JSON (`anmat project fsck --format json`):
/// action, detail, files_applied, truncated_tail, healthy, and the error
/// when unhealthy. Arguments as for `RenderFsckView`.
JsonValue FsckToJson(const JournalRecoveryReport& report,
                     const Project* project, const Status& error);

/// \brief The stable wire name of a stream conflict kind ("majority-flip",
/// "retroactive-repair", "key-divergence").
const char* StreamConflictKindName(const StreamConflict& conflict);

/// \brief One clean-on-ingest stream conflict as JSON (kind, row, column,
/// current, expected, pfd_index, batch) — the entries of the `conflicts`
/// array in `anmat stream --format json`, shared with the daemon so both
/// front-ends emit identical bytes.
JsonValue StreamConflictToJson(const StreamConflict& conflict);

}  // namespace anmat

#endif  // ANMAT_ANMAT_REPORT_H_
