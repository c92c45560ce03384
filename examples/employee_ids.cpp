// Employee IDs: the scenario from the paper's introduction — in an employee
// table with IDs like "F-9-107", the letter determines the department
// (F → Finance) and the digit determines the grade (9 → Senior).
//
// This example generates such a table with injected errors, discovers the
// PFDs automatically, detects the errors, and scores the detection against
// the known ground truth.
//
// Run: ./build/examples/employee_ids [rows] [error_rate]

#include <cstdlib>
#include <iostream>

#include "anmat/engine.h"
#include "anmat/report.h"
#include "datagen/datasets.h"

int main(int argc, char** argv) {
  const size_t rows = argc > 1 ? std::strtoul(argv[1], nullptr, 10) : 2000;
  const double error_rate = argc > 2 ? std::strtod(argv[2], nullptr) : 0.03;

  anmat::Dataset dataset =
      anmat::EmployeeDataset(rows, /*seed=*/2024, error_rate);
  std::cout << "Generated " << dataset.relation.num_rows()
            << " employee rows with " << dataset.ground_truth.size()
            << " injected errors.\n\n";
  std::cout << dataset.relation.ToString(6) << "\n";

  anmat::Engine engine;
  anmat::DiscoveryOptions options;
  options.table_name = "employees";
  options.min_coverage = 0.5;
  options.allowed_violation_ratio = 0.08;
  auto discovery = engine.Discover(dataset.relation, options);
  if (!discovery.ok()) {
    std::cerr << discovery.status() << "\n";
    return 1;
  }
  std::cout << anmat::RenderDiscoveredPfdsView(discovery->pfds) << "\n";

  // Confirm every discovered rule and detect with them.
  std::vector<anmat::Pfd> rules;
  for (const anmat::DiscoveredPfd& d : discovery->pfds) rules.push_back(d.pfd);
  auto detection = engine.Detect(dataset.relation, rules);
  if (!detection.ok()) {
    std::cerr << detection.status() << "\n";
    return 1;
  }
  std::cout << anmat::RenderViolationsView(dataset.relation, rules,
                                           *detection, 10)
            << "\n";

  // Score suspects against the injected ground truth (columns 1 and 2 are
  // department and grade — the corrupted ones).
  std::vector<anmat::CellRef> suspects;
  for (const anmat::Violation& v : detection->violations) {
    suspects.push_back(v.suspect);
  }
  anmat::PrecisionRecall pr =
      anmat::ScoreSuspects(suspects, dataset.ground_truth, {1, 2});
  std::cout << anmat::RenderScorecard("employee-id PFDs", pr);
  return 0;
}
