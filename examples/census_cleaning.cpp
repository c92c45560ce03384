// Census cleaning: the paper's Table 3 workloads end-to-end —
//   D1: phone → state   (area codes determine states)
//   D2: full name → gender ("Last, First M." names; first name → gender)
//   D5: zip → city / state (zip prefixes determine both)
//
// For each dataset the example discovers PFDs from the *dirty* data,
// detects errors with them, prints a Table-3 style summary, and scores
// precision/recall against the injected ground truth.
//
// Run: ./build/examples/census_cleaning [rows] [error_rate]

#include <cstdlib>
#include <iostream>

#include "anmat/engine.h"
#include "anmat/report.h"
#include "datagen/datasets.h"

namespace {

void RunDataset(const anmat::Dataset& dataset,
                const std::vector<size_t>& scored_columns) {
  std::cout << "==================================================\n";
  std::cout << "Dataset " << dataset.name << " ("
            << dataset.relation.num_rows() << " rows, "
            << dataset.ground_truth.size() << " injected errors)\n";
  std::cout << "==================================================\n";

  anmat::Engine engine;
  anmat::DiscoveryOptions options;
  options.table_name = dataset.name;
  options.min_coverage = 0.4;
  options.allowed_violation_ratio = 0.1;
  auto discovery = engine.Discover(dataset.relation, options);
  if (!discovery.ok()) {
    std::cerr << discovery.status() << "\n";
    return;
  }
  std::cout << anmat::RenderDiscoveredPfdsView(discovery->pfds);

  // Confirm every discovered rule and detect with them.
  std::vector<anmat::Pfd> rules;
  for (const anmat::DiscoveredPfd& d : discovery->pfds) rules.push_back(d.pfd);
  auto detection = engine.Detect(dataset.relation, rules);
  if (!detection.ok()) {
    std::cerr << detection.status() << "\n";
    return;
  }

  std::cout << "\nTable-3 style summary:\n";
  std::cout << anmat::RenderTable3Style(dataset.relation, rules, *detection);

  std::vector<anmat::CellRef> suspects;
  for (const anmat::Violation& v : detection->violations) {
    suspects.push_back(v.suspect);
  }
  std::set<size_t> cols(scored_columns.begin(), scored_columns.end());
  anmat::PrecisionRecall pr =
      anmat::ScoreSuspects(suspects, dataset.ground_truth, cols);
  std::cout << "\n" << anmat::RenderScorecard(dataset.name, pr) << "\n";
}

}  // namespace

int main(int argc, char** argv) {
  const size_t rows = argc > 1 ? std::strtoul(argv[1], nullptr, 10) : 3000;
  const double error_rate = argc > 2 ? std::strtod(argv[2], nullptr) : 0.03;

  RunDataset(anmat::PhoneStateDataset(rows, 11, error_rate), {1});
  RunDataset(anmat::NameGenderDataset(rows, 12, error_rate), {1});
  RunDataset(anmat::ZipCityStateDataset(rows, 13, error_rate), {1, 2});
  return 0;
}
