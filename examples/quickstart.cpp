// Quickstart: the complete ANMAT workflow on the paper's own toy table
// (Table 2: Zip/city), the way the demo's GUI is actually used — as a
// *stateful* project that survives between sessions:
//
//   init project → attach dataset → profile → discover (rules recorded as
//   `discovered` with provenance) → confirm/reject → detect → repair,
//
// then the streaming path: a DetectionStream absorbing new records batch by
// batch without re-paying pattern work for values it has already seen, with
// clean-on-ingest repairing confident constant-rule errors as they arrive.
//
// Layering on display:
//   Project (anmat/project.h)  durable state: catalog + RuleSet v2 store
//   Engine  (anmat/engine.h)   execution: thread pool + parallel stages
// The example composes the two directly, as the CLI and the daemon do.
//
// Build & run:
//   cmake -B build -G Ninja && cmake --build build
//   ./build/example_quickstart

#include <filesystem>
#include <fstream>
#include <iostream>

#include "anmat/engine.h"
#include "anmat/project.h"
#include "anmat/report.h"

namespace {

// Table 2 of the paper as CSV; s4[city] is the erroneous cell.
constexpr const char* kZipCsv =
    "zip,city\n"
    "90001,Los Angeles\n"
    "90002,Los Angeles\n"
    "90003,Los Angeles\n"
    "90004,New York\n";

int Fail(const anmat::Status& status) {
  std::cerr << "error: " << status.ToString() << "\n";
  return 1;
}

}  // namespace

int main() {
  // 0. A project directory is the durable state of the workflow: a catalog
  //    (datasets + parameters) and a rule store with per-rule lifecycle.
  const std::string dir = "/tmp/anmat_quickstart_project";
  const std::string csv = "/tmp/anmat_quickstart_zips.csv";
  std::filesystem::remove_all(dir);
  std::ofstream(csv) << kZipCsv;

  // The engine runs every stage: profiling fans out per column, discovery
  // per candidate dependency, detection and repair per (PFD, tableau row).
  // 0 = one worker per hardware thread; results are byte-identical to a
  // serial run at any thread count.
  anmat::Engine engine(
      anmat::ExecutionOptions{/*num_threads=*/0, true, nullptr});

  // 1. Parameters (§4 "Parameter Setting"): minimum coverage γ and the
  //    allowed violation ratio. The toy table has 1 dirty row in 4, so we
  //    tolerate up to 30% violations. They are persisted in the catalog.
  auto project = anmat::Project::Init(dir, "quickstart");
  if (!project.ok()) return Fail(project.status());
  project->set_parameters({/*min_coverage=*/0.5,
                           /*allowed_violation_ratio=*/0.3});

  // 2. Dataset specification (the demo's drop-down; here: a CSV recorded
  //    in the project catalog for provenance and later sessions).
  if (anmat::Status s = project->AttachDataset("zips", csv); !s.ok()) {
    return Fail(s);
  }
  // File ingest is zero-copy by default: the CSV is memory-mapped and
  // cells are string_views into the mapping, which the relation's arena
  // keeps alive (csv/csv_reader.h) — no per-cell copies on load.
  auto loaded = project->LoadDataset("zips");
  if (!loaded.ok()) return Fail(loaded.status());
  anmat::Relation relation = std::move(loaded).value();

  // 3. Profile (Figure 3).
  std::cout << anmat::RenderProfilingView(engine.Profile(relation)) << "\n";

  // 4. Discover PFDs (Figure 2 / Figure 4). Expect λ3-style
  //    "(900)!\D{2} -> Los Angeles" and the λ5-style variable rule. Every
  //    discovered rule is recorded in the store as `discovered`, carrying
  //    provenance (source dataset, coverage, violation ratio).
  auto discovery = engine.Discover(relation, project->discovery_options());
  if (!discovery.ok()) return Fail(discovery.status());
  std::vector<uint64_t> ids;
  for (const anmat::DiscoveredPfd& d : discovery->pfds) {
    ids.push_back(project->AddDiscoveredRule(d, csv));
  }
  std::cout << anmat::RenderDiscoveredPfdsView(discovery->pfds) << "\n";
  std::cout << anmat::RenderRuleSetView(project->rules()) << "\n";

  // 5. Confirm every discovered rule (the demo lets users confirm or
  //    reject each dependency; a rejected rule is kept for audit without
  //    ever being applied). This flips the stored lifecycle status.
  for (uint64_t id : ids) {
    if (anmat::Status s =
            project->SetRuleStatus(id, anmat::RuleStatus::kConfirmed);
        !s.ok()) {
      return Fail(s);
    }
  }
  const std::vector<anmat::Pfd> rules = project->ConfirmedPfds();

  // 6. Detect errors (Figure 5): the New York cell must be flagged with
  //    suggested repair "Los Angeles".
  auto detection = engine.Detect(relation, rules);
  if (!detection.ok()) return Fail(detection.status());
  std::cout << anmat::RenderViolationsView(relation, rules, *detection);
  std::cout << "\nDetected " << detection->violations.size()
            << " violation(s); expected: the 90004/New York cell.\n";
  if (detection->violations.empty()) return 1;

  // 7. Repair (§3's suggestion semantics): Engine::Repair applies the
  //    confident suggestions iteratively, in parallel, byte-identical to a
  //    serial run.
  auto repair = engine.Repair(&relation, rules);
  if (!repair.ok()) return Fail(repair.status());
  std::cout << "\n" << anmat::RenderRepairView(*repair);

  // 8. Persist. A later run — or the CLI:
  //      anmat detect --project /tmp/anmat_quickstart_project
  //    — reopens the project and detects with the stored confirmed rules,
  //    no re-discovery needed.
  if (anmat::Status s = project->Save(); !s.ok()) return Fail(s);
  std::cout << "\nproject saved to " << dir << " ("
            << project->rules().size() << " rule(s) on disk)\n";

  // 9. Streaming: records keep arriving after the rules are confirmed. A
  //    DetectionStream extends its dictionaries and index postings per
  //    batch and re-pays pattern work only for newly seen distinct values.
  //    With clean-on-ingest, confident repairs — constant-rule suggestions
  //    and, by default, cumulative-majority variable-rule suggestions —
  //    are applied to each batch *before* it is absorbed, so the stream
  //    accumulates the cleaned relation (majority flips across batches are
  //    surfaced via conflicts(), never retroactive edits).
  auto stream = engine.OpenStream(relation.schema(), rules);
  if (!stream.ok()) return Fail(stream.status());
  (*stream)->set_clean_on_ingest(true);
  auto cumulative = (*stream)->AppendRows({{"90005", "Los Angeles"},
                                           {"90006", "San Diego"}});
  if (!cumulative.ok()) return Fail(cumulative.status());
  std::cout << "\nStreaming: appended 2 records; clean-on-ingest applied "
            << (*stream)->batch_repairs().size()
            << " repair(s) (the 900\\D{2} -> Los Angeles rule fixes the "
            << "new San Diego cell before it is absorbed) and surfaced "
            << (*stream)->conflicts().size()
            << " majority-flip conflict(s); cumulative violations: "
            << cumulative->violations.size() << ".\n";

  // The project directory and CSV are left in /tmp on purpose — the
  // printed CLI suggestion above works after this example exits.
  return 0;
}
