#include "anmat/report.h"

#include <cstdio>

#include "util/text_table.h"

namespace anmat {

namespace {

std::string FormatDouble(double v, int precision = 3) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.*f", precision, v);
  return buf;
}

}  // namespace

std::string RenderProfilingView(const std::vector<ColumnProfile>& profiles) {
  std::string out = "=== Profiling (patterns in the data) ===\n";
  TextTable table({"column", "rows", "non-null", "distinct", "numeric",
                   "tokens/cell", "column pattern"});
  table.SetAlignments({Align::kLeft, Align::kRight, Align::kRight,
                       Align::kRight, Align::kRight, Align::kRight,
                       Align::kLeft});
  for (const ColumnProfile& p : profiles) {
    table.AddRow({p.name, std::to_string(p.rows), std::to_string(p.non_null),
                  std::to_string(p.distinct), FormatDouble(p.numeric_ratio, 2),
                  FormatDouble(p.avg_tokens, 1),
                  p.column_pattern.ToString()});
  }
  out += table.Render();

  for (const ColumnProfile& p : profiles) {
    if (p.top_patterns.empty()) continue;
    out += "\ncolumn '" + p.name + "' dominant patterns:\n";
    for (const PatternProfileEntry& e : p.top_patterns) {
      // Figure 3/4 format: "pattern::position, frequency".
      out += "  " + e.pattern + "::" + std::to_string(e.position) + ", " +
             std::to_string(e.frequency) + "\n";
    }
  }
  return out;
}

std::string RenderDiscoveredPfdsView(
    const std::vector<DiscoveredPfd>& discovered) {
  std::string out = "=== Discovered PFDs ===\n";
  if (discovered.empty()) {
    out += "(none)\n";
    return out;
  }
  for (size_t i = 0; i < discovered.size(); ++i) {
    const DiscoveredPfd& d = discovered[i];
    out.append("[")
        .append(std::to_string(i))
        .append("] ")
        .append(d.pfd.Summary())
        .append("  coverage=")
        .append(FormatDouble(d.stats.Coverage()))
        .append("  violations=")
        .append(FormatDouble(d.stats.ViolationRate()))
        .append("\n");
    out += d.pfd.ToString();
    if (!d.provenance.empty()) {
      out += "  provenance:\n";
      for (const std::string& p : d.provenance) {
        out += "    " + p + "\n";
      }
    }
  }
  return out;
}

std::string RenderViolationsView(const Relation& relation,
                                 const std::vector<Pfd>& pfds,
                                 const DetectionResult& detection,
                                 size_t max_rows) {
  std::string out = "=== Violations ===\n";
  out += "scanned " + std::to_string(detection.stats.rows_scanned) +
         " row-checks, " + std::to_string(detection.stats.candidate_rows) +
         " index candidates, " + std::to_string(detection.stats.pairs_checked) +
         " pairs; " + std::to_string(detection.violations.size()) +
         " violations\n";

  TextTable table({"#", "rule", "row", "violating record", "suspect cell",
                   "suggested repair"});
  size_t shown = 0;
  for (size_t i = 0; i < detection.violations.size(); ++i) {
    if (shown >= max_rows) break;
    const Violation& v = detection.violations[i];
    const Pfd& pfd = pfds.at(v.pfd_index);

    // Render the violating record compactly: "col=value; col=value".
    std::string record;
    const RowId row = v.suspect.row;
    for (size_t c = 0; c < relation.num_columns(); ++c) {
      if (c > 0) record += "; ";
      record += relation.schema().column(c).name + "=";
      record += relation.cell(row, c);
    }
    const std::string suspect_name =
        relation.schema().column(v.suspect.column).name;
    table.AddRow({std::to_string(i), pfd.Summary(), std::to_string(row),
                  record,
                  suspect_name + "=" +
                      std::string(relation.cell(row, v.suspect.column)),
                  v.suggested_repair});
    ++shown;
  }
  out += table.Render();
  if (shown < detection.violations.size()) {
    out += "... (" + std::to_string(detection.violations.size() - shown) +
           " more violations)\n";
  }
  return out;
}

std::string RenderTable3Style(const Relation& relation,
                              const std::vector<Pfd>& pfds,
                              const DetectionResult& detection) {
  std::string out;
  TextTable table({"Dependency", "Pattern Tableau", "Errors"});
  for (size_t pi = 0; pi < pfds.size(); ++pi) {
    const Pfd& pfd = pfds[pi];
    for (size_t ri = 0; ri < pfd.tableau().size(); ++ri) {
      const TableauRow& row = pfd.tableau().row(ri);
      std::string tableau_text = row.lhs[0].ToString() + " -> " +
                                 row.rhs[0].ToString();
      // First violation of this (pfd, row) as the example error.
      std::string example;
      for (const Violation& v : detection.violations) {
        if (v.pfd_index == pi && v.tableau_row == ri) {
          example = std::string(relation.cell(v.suspect.row, v.cells[0].column));
          example += " | ";
          example += relation.cell(v.suspect.row, v.suspect.column);
          break;
        }
      }
      table.AddRow({pfd.lhs_attrs()[0] + " -> " + pfd.rhs_attrs()[0],
                    tableau_text, example});
    }
  }
  out += table.Render();
  return out;
}

std::string RenderScorecard(const std::string& label,
                            const PrecisionRecall& pr) {
  return label + ": precision=" + FormatDouble(pr.Precision()) +
         " recall=" + FormatDouble(pr.Recall()) +
         " f1=" + FormatDouble(pr.F1()) + " (tp=" +
         std::to_string(pr.true_positives) + " fp=" +
         std::to_string(pr.false_positives) + " fn=" +
         std::to_string(pr.false_negatives) + ")\n";
}

JsonValue ProfilesToJson(const std::vector<ColumnProfile>& profiles) {
  JsonValue columns = JsonValue::Array();
  for (const ColumnProfile& p : profiles) {
    JsonValue col = JsonValue::Object();
    col.Set("name", JsonValue::String(p.name));
    col.Set("index", JsonValue::Int(static_cast<int64_t>(p.index)));
    col.Set("rows", JsonValue::Int(static_cast<int64_t>(p.rows)));
    col.Set("non_null", JsonValue::Int(static_cast<int64_t>(p.non_null)));
    col.Set("distinct", JsonValue::Int(static_cast<int64_t>(p.distinct)));
    col.Set("numeric_ratio", JsonValue::Number(p.numeric_ratio));
    col.Set("single_token", JsonValue::Bool(p.single_token));
    col.Set("avg_tokens", JsonValue::Number(p.avg_tokens));
    col.Set("column_pattern", JsonValue::String(p.column_pattern.ToString()));
    JsonValue top = JsonValue::Array();
    for (const PatternProfileEntry& e : p.top_patterns) {
      JsonValue entry = JsonValue::Object();
      entry.Set("pattern", JsonValue::String(e.pattern));
      entry.Set("position", JsonValue::Int(static_cast<int64_t>(e.position)));
      entry.Set("frequency",
                JsonValue::Int(static_cast<int64_t>(e.frequency)));
      top.push_back(std::move(entry));
    }
    col.Set("top_patterns", std::move(top));
    columns.push_back(std::move(col));
  }
  JsonValue root = JsonValue::Object();
  root.Set("columns", std::move(columns));
  return root;
}

JsonValue DiscoveredPfdsToJson(const std::vector<DiscoveredPfd>& discovered) {
  JsonValue pfds = JsonValue::Array();
  for (const DiscoveredPfd& d : discovered) {
    JsonValue entry = JsonValue::Object();
    entry.Set("rule", JsonValue::String(d.pfd.ToString()));
    entry.Set("constant", JsonValue::Bool(d.pfd.IsConstant()));
    entry.Set("coverage", JsonValue::Number(d.stats.Coverage()));
    entry.Set("violation_rate", JsonValue::Number(d.stats.ViolationRate()));
    entry.Set("covered_rows",
              JsonValue::Int(static_cast<int64_t>(d.stats.covered_rows)));
    entry.Set("violating_rows",
              JsonValue::Int(static_cast<int64_t>(d.stats.violating_rows)));
    JsonValue provenance = JsonValue::Array();
    for (const std::string& p : d.provenance) {
      provenance.push_back(JsonValue::String(p));
    }
    entry.Set("provenance", std::move(provenance));
    pfds.push_back(std::move(entry));
  }
  JsonValue root = JsonValue::Object();
  root.Set("pfds", std::move(pfds));
  return root;
}

std::string RenderRepairView(const RepairResult& result) {
  std::string out = "=== Repairs ===\n";
  out += "applied " + std::to_string(result.repairs.size()) +
         " repair(s) in " + std::to_string(result.passes) + " pass(es); " +
         std::to_string(result.remaining_violations) +
         " violation(s) remain";
  if (!result.conflicted_cells.empty()) {
    out += "; " + std::to_string(result.conflicted_cells.size()) +
           " cell(s) had conflicting suggestions and were left alone";
  }
  out += "\n";
  for (const AppliedRepair& r : result.repairs) {
    // AppliedRepair::pass is 0-based data; render 1-based to line up with
    // the "N pass(es)" count above.
    out += "  row " + std::to_string(r.cell.row) + " col " +
           std::to_string(r.cell.column) + ": \"" + r.before + "\" -> \"" +
           r.after + "\" (pass " + std::to_string(r.pass + 1) + ", rule " +
           std::to_string(r.pfd_index) + ")\n";
  }
  return out;
}

std::string RenderRuleSetView(const RuleSet& rules) {
  std::string out = "=== Rules ===\n";
  if (rules.empty()) {
    out += "(none)\n";
    return out;
  }
  for (const RuleRecord& r : rules.records()) {
    out.append("[")
        .append(std::to_string(r.id))
        .append("] ")
        .append(RuleStatusName(r.status))
        .append("  ")
        .append(r.pfd.Summary());
    if (!r.provenance.source.empty()) {
      out += "  source=" + r.provenance.source;
    }
    out += "  coverage=" + FormatDouble(r.provenance.coverage) +
           "  violations=" + FormatDouble(r.provenance.violation_ratio) +
           "\n";
    if (!r.note.empty()) {
      out += "    note: " + r.note + "\n";
    }
    out += r.pfd.ToString();
  }
  return out;
}

JsonValue DetectionToJson(const Relation& relation,
                          const std::vector<Pfd>& pfds,
                          const DetectionResult& detection) {
  JsonValue stats = JsonValue::Object();
  stats.Set("rows_scanned", JsonValue::Int(static_cast<int64_t>(
                                detection.stats.rows_scanned)));
  stats.Set("candidate_rows", JsonValue::Int(static_cast<int64_t>(
                                  detection.stats.candidate_rows)));
  stats.Set("pairs_checked", JsonValue::Int(static_cast<int64_t>(
                                 detection.stats.pairs_checked)));
  stats.Set("violations", JsonValue::Int(static_cast<int64_t>(
                              detection.stats.violations)));

  JsonValue violations = JsonValue::Array();
  for (const Violation& v : detection.violations) {
    JsonValue entry = JsonValue::Object();
    entry.Set("kind", JsonValue::String(
                          v.kind == ViolationKind::kConstant ? "constant"
                                                             : "variable"));
    entry.Set("pfd_index", JsonValue::Int(static_cast<int64_t>(v.pfd_index)));
    if (v.pfd_index < pfds.size()) {
      entry.Set("rule", JsonValue::String(pfds[v.pfd_index].ToString()));
    }
    entry.Set("tableau_row",
              JsonValue::Int(static_cast<int64_t>(v.tableau_row)));
    JsonValue cells = JsonValue::Array();
    for (const CellRef& c : v.cells) {
      JsonValue cell = JsonValue::Object();
      cell.Set("row", JsonValue::Int(static_cast<int64_t>(c.row)));
      cell.Set("column", JsonValue::Int(static_cast<int64_t>(c.column)));
      cell.Set("value",
               JsonValue::String(std::string(relation.cell(c.row, c.column))));
      cells.push_back(std::move(cell));
    }
    entry.Set("cells", std::move(cells));
    JsonValue suspect = JsonValue::Object();
    suspect.Set("row", JsonValue::Int(static_cast<int64_t>(v.suspect.row)));
    suspect.Set("column",
                JsonValue::Int(static_cast<int64_t>(v.suspect.column)));
    suspect.Set("value",
                JsonValue::String(std::string(
                    relation.cell(v.suspect.row, v.suspect.column))));
    entry.Set("suspect", std::move(suspect));
    entry.Set("suggested_repair", JsonValue::String(v.suggested_repair));
    entry.Set("explanation", JsonValue::String(v.explanation));
    violations.push_back(std::move(entry));
  }

  JsonValue root = JsonValue::Object();
  root.Set("stats", std::move(stats));
  root.Set("violations", std::move(violations));
  return root;
}

JsonValue AppliedRepairToJson(const AppliedRepair& repair,
                              const std::vector<Pfd>& pfds) {
  JsonValue entry = JsonValue::Object();
  entry.Set("row", JsonValue::Int(static_cast<int64_t>(repair.cell.row)));
  entry.Set("column",
            JsonValue::Int(static_cast<int64_t>(repair.cell.column)));
  entry.Set("before", JsonValue::String(repair.before));
  entry.Set("after", JsonValue::String(repair.after));
  entry.Set("pass", JsonValue::Int(static_cast<int64_t>(repair.pass)));
  entry.Set("pfd_index",
            JsonValue::Int(static_cast<int64_t>(repair.pfd_index)));
  if (repair.pfd_index < pfds.size()) {
    entry.Set("rule", JsonValue::String(pfds[repair.pfd_index].ToString()));
  }
  return entry;
}

JsonValue RepairToJson(const RepairResult& result,
                       const std::vector<Pfd>& pfds) {
  JsonValue stats = JsonValue::Object();
  stats.Set("repairs",
            JsonValue::Int(static_cast<int64_t>(result.repairs.size())));
  stats.Set("passes", JsonValue::Int(static_cast<int64_t>(result.passes)));
  stats.Set("remaining_violations",
            JsonValue::Int(static_cast<int64_t>(
                result.remaining_violations)));
  stats.Set("conflicted_cells",
            JsonValue::Int(static_cast<int64_t>(
                result.conflicted_cells.size())));

  JsonValue repairs = JsonValue::Array();
  for (const AppliedRepair& r : result.repairs) {
    repairs.push_back(AppliedRepairToJson(r, pfds));
  }
  JsonValue conflicted = JsonValue::Array();
  for (const CellRef& c : result.conflicted_cells) {
    JsonValue cell = JsonValue::Object();
    cell.Set("row", JsonValue::Int(static_cast<int64_t>(c.row)));
    cell.Set("column", JsonValue::Int(static_cast<int64_t>(c.column)));
    conflicted.push_back(std::move(cell));
  }

  JsonValue root = JsonValue::Object();
  root.Set("stats", std::move(stats));
  root.Set("repairs", std::move(repairs));
  root.Set("conflicted_cells", std::move(conflicted));
  return root;
}

const char* StreamConflictKindName(const StreamConflict& conflict) {
  switch (conflict.kind) {
    case StreamConflict::Kind::kMajorityFlip:
      return "majority-flip";
    case StreamConflict::Kind::kRetroactiveRepair:
      return "retroactive-repair";
    case StreamConflict::Kind::kKeyDivergence:
      return "key-divergence";
  }
  return "unknown";
}

JsonValue StreamConflictToJson(const StreamConflict& conflict) {
  JsonValue entry = JsonValue::Object();
  entry.Set("kind", JsonValue::String(StreamConflictKindName(conflict)));
  entry.Set("row", JsonValue::Int(static_cast<int64_t>(conflict.cell.row)));
  entry.Set("column",
            JsonValue::Int(static_cast<int64_t>(conflict.cell.column)));
  entry.Set("current", JsonValue::String(conflict.current));
  entry.Set("expected", JsonValue::String(conflict.expected));
  entry.Set("pfd_index",
            JsonValue::Int(static_cast<int64_t>(conflict.pfd_index)));
  entry.Set("batch", JsonValue::Int(static_cast<int64_t>(conflict.batch)));
  return entry;
}

JsonValue RuleSetToJson(const RuleSet& rules) {
  JsonValue arr = JsonValue::Array();
  for (const RuleRecord& r : rules.records()) {
    JsonValue entry = JsonValue::Object();
    entry.Set("id", JsonValue::Int(static_cast<int64_t>(r.id)));
    entry.Set("status", JsonValue::String(RuleStatusName(r.status)));
    entry.Set("rule", JsonValue::String(r.pfd.ToString()));
    if (!r.note.empty()) {
      entry.Set("note", JsonValue::String(r.note));
    }
    JsonValue provenance = JsonValue::Object();
    provenance.Set("source", JsonValue::String(r.provenance.source));
    provenance.Set("coverage", JsonValue::Number(r.provenance.coverage));
    provenance.Set("violation_ratio",
                   JsonValue::Number(r.provenance.violation_ratio));
    entry.Set("provenance", std::move(provenance));
    arr.push_back(std::move(entry));
  }
  JsonValue root = JsonValue::Object();
  root.Set("rules", std::move(arr));
  return root;
}

namespace {

const char* RecoveryActionName(JournalRecoveryReport::Action action) {
  switch (action) {
    case JournalRecoveryReport::Action::kClean:
      return "clean";
    case JournalRecoveryReport::Action::kReplayed:
      return "replayed";
    case JournalRecoveryReport::Action::kDiscarded:
      return "discarded";
  }
  return "unknown";
}

}  // namespace

std::string RenderFsckView(const JournalRecoveryReport& report,
                           const Project* project, const Status& error) {
  std::string out = "journal: " + report.detail + "\n";
  if (project == nullptr) {
    return out + "project: CORRUPT — " + error.ToString() + "\n";
  }
  return out + "project: healthy (\"" + project->name() + "\", " +
         std::to_string(project->datasets().size()) + " dataset(s), " +
         std::to_string(project->rules().size()) + " rule(s))\n";
}

JsonValue FsckToJson(const JournalRecoveryReport& report,
                     const Project* project, const Status& error) {
  JsonValue root = JsonValue::Object();
  root.Set("action", JsonValue::String(RecoveryActionName(report.action)));
  root.Set("detail", JsonValue::String(report.detail));
  root.Set("files_applied",
           JsonValue::Int(static_cast<int64_t>(report.files_applied)));
  root.Set("truncated_tail", JsonValue::Bool(report.truncated_tail));
  root.Set("healthy", JsonValue::Bool(project != nullptr));
  if (project == nullptr) {
    root.Set("error", JsonValue::String(error.ToString()));
  }
  return root;
}

}  // namespace anmat
