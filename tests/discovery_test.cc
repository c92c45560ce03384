#include "discovery/discovery.h"

#include <gtest/gtest.h>

#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "datagen/datasets.h"
#include "store/rule_store.h"

namespace anmat {
namespace {

TEST(DiscoveryTest, PaperNameTableFindsGenderRules) {
  Dataset d = PaperNameTable();
  DiscoveryOptions opts;
  opts.table_name = "Name";
  opts.min_coverage = 0.4;
  opts.allowed_violation_ratio = 0.5;  // 4-row toy table with 1 error
  opts.constant_miner.decision.min_dominance = 0.5;

  DiscoveryResult result = DiscoverPfds(d.relation, opts).value();
  // λ1-style rule: first token "John" determines M.
  bool found_john = false;
  for (const DiscoveredPfd& p : result.pfds) {
    if (p.pfd.lhs_attrs()[0] == "name" && p.pfd.rhs_attrs()[0] == "gender") {
      const std::string text = p.pfd.ToString();
      if (text.find("John") != std::string::npos) found_john = true;
    }
  }
  EXPECT_TRUE(found_john);
}

TEST(DiscoveryTest, ZipDatasetFindsConstantAndVariablePfds) {
  Dataset d = ZipCityStateDataset(400, /*seed=*/7, /*error_rate=*/0.0);
  DiscoveryOptions opts;
  opts.table_name = "Zip";
  opts.min_coverage = 0.5;
  opts.allowed_violation_ratio = 0.0;

  DiscoveryResult result = DiscoverPfds(d.relation, opts).value();
  bool constant_zip_city = false;
  bool variable_zip_city = false;
  for (const DiscoveredPfd& p : result.pfds) {
    if (p.pfd.lhs_attrs()[0] == "zip" && p.pfd.rhs_attrs()[0] == "city") {
      if (p.pfd.IsConstant()) constant_zip_city = true;
      if (p.pfd.HasVariableRows()) variable_zip_city = true;
      EXPECT_GE(p.stats.Coverage(), 0.5);
      EXPECT_LE(p.stats.ViolationRate(), 0.0 + 1e-12);
    }
  }
  EXPECT_TRUE(constant_zip_city);
  EXPECT_TRUE(variable_zip_city);
}

TEST(DiscoveryTest, CoverageGateRejectsLowCoverage) {
  Dataset d = ZipCityStateDataset(300, 7, 0.0);
  DiscoveryOptions opts;
  opts.min_coverage = 1.01;  // impossible threshold
  DiscoveryResult result = DiscoverPfds(d.relation, opts).value();
  EXPECT_TRUE(result.pfds.empty());
}

TEST(DiscoveryTest, ViolationGateInteractsWithDirtyData) {
  Dataset dirty = ZipCityStateDataset(400, 11, /*error_rate=*/0.03);
  DiscoveryOptions strict;
  strict.min_coverage = 0.5;
  strict.allowed_violation_ratio = 0.0;
  DiscoveryResult strict_result = DiscoverPfds(dirty.relation, strict).value();

  DiscoveryOptions tolerant = strict;
  tolerant.allowed_violation_ratio = 0.1;
  DiscoveryResult tolerant_result =
      DiscoverPfds(dirty.relation, tolerant).value();

  // Tolerating violations can only surface more (or equal) dependencies —
  // the paper's stated trade-off.
  EXPECT_GE(tolerant_result.pfds.size(), strict_result.pfds.size());
  EXPECT_FALSE(tolerant_result.pfds.empty());
}

TEST(DiscoveryTest, MiningCanBeDisabledSelectively) {
  Dataset d = ZipCityStateDataset(200, 3, 0.0);
  DiscoveryOptions no_constant;
  no_constant.min_coverage = 0.5;
  no_constant.mine_constant = false;
  DiscoveryResult r1 = DiscoverPfds(d.relation, no_constant).value();
  for (const DiscoveredPfd& p : r1.pfds) {
    EXPECT_TRUE(p.pfd.HasVariableRows());
  }

  DiscoveryOptions no_variable;
  no_variable.min_coverage = 0.5;
  no_variable.mine_variable = false;
  DiscoveryResult r2 = DiscoverPfds(d.relation, no_variable).value();
  for (const DiscoveredPfd& p : r2.pfds) {
    EXPECT_TRUE(p.pfd.IsConstant());
  }
}

TEST(DiscoveryTest, ProfilesReturnedWithResult) {
  Dataset d = ZipCityStateDataset(100, 5, 0.0);
  DiscoveryResult result = DiscoverPfds(d.relation, {}).value();
  EXPECT_EQ(result.profiles.size(), 3u);
  EXPECT_GT(result.candidates_examined, 0u);
}

TEST(DiscoveryTest, DeterministicAcrossRuns) {
  Dataset d = ZipCityStateDataset(300, 13, 0.02);
  DiscoveryOptions opts;
  opts.min_coverage = 0.5;
  opts.allowed_violation_ratio = 0.1;
  DiscoveryResult a = DiscoverPfds(d.relation, opts).value();
  DiscoveryResult b = DiscoverPfds(d.relation, opts).value();
  ASSERT_EQ(a.pfds.size(), b.pfds.size());
  for (size_t i = 0; i < a.pfds.size(); ++i) {
    EXPECT_TRUE(a.pfds[i].pfd == b.pfds[i].pfd);
  }
}

TEST(DiscoveryTest, PhoneDatasetFindsAreaCodeRules) {
  Dataset d = PhoneStateDataset(600, 17, 0.0);
  DiscoveryOptions opts;
  opts.table_name = "D1";
  opts.min_coverage = 0.5;
  opts.allowed_violation_ratio = 0.0;
  DiscoveryResult result = DiscoverPfds(d.relation, opts).value();

  // Table 3's D1 rows: 850->FL etc. must be among the constant rules.
  bool found_850_fl = false;
  for (const DiscoveredPfd& p : result.pfds) {
    const std::string text = p.pfd.ToString();
    if (text.find("850") != std::string::npos &&
        text.find("FL") != std::string::npos) {
      found_850_fl = true;
    }
  }
  EXPECT_TRUE(found_850_fl);
}

TEST(DiscoveryTest, EmployeeDatasetFindsIdStructure) {
  Dataset d = EmployeeDataset(500, 23, 0.0);
  DiscoveryOptions opts;
  opts.table_name = "Emp";
  opts.min_coverage = 0.5;
  opts.allowed_violation_ratio = 0.0;
  DiscoveryResult result = DiscoverPfds(d.relation, opts).value();

  // The intro's claim: the id's letter determines the department and the
  // digit determines the grade — a variable PFD on employee_id →
  // department must be discovered (prefix-1 key).
  bool id_to_dept = false;
  for (const DiscoveredPfd& p : result.pfds) {
    if (p.pfd.lhs_attrs()[0] == "employee_id" &&
        p.pfd.rhs_attrs()[0] == "department") {
      id_to_dept = true;
    }
  }
  EXPECT_TRUE(id_to_dept);
}

// ---- Slices and thread counts ----------------------------------------------
//
// The miners read each column's value dictionary. A slice's dictionary
// indexes rows that start at the slice's first row of the source, so
// discovery on `Slice(1000, 3000)` must give the rules it gives on a
// relation built afresh from the same rows, at every thread count.

std::string RulesJson(const Relation& relation, size_t threads) {
  DiscoveryOptions options;
  options.min_coverage = 0.4;
  options.execution.num_threads = threads;
  const DiscoveryResult result = DiscoverPfds(relation, options).value();
  std::vector<Pfd> pfds;
  std::string stats;
  for (const DiscoveredPfd& d : result.pfds) {
    pfds.push_back(d.pfd);
    stats += std::to_string(d.stats.covered_rows) + "/" +
             std::to_string(d.stats.violating_rows) + "\n";
    for (const std::string& line : d.provenance) stats += line + "\n";
  }
  return SerializeRuleSet(pfds) + stats;
}

Relation Rebuilt(const Relation& relation, RowId begin, RowId end) {
  RelationBuilder builder(relation.schema());
  for (RowId r = begin; r < end; ++r) {
    EXPECT_TRUE(builder.AddRow(relation.Row(r)).ok());
  }
  return builder.Build();
}

std::vector<std::pair<std::string, Dataset>> SliceSources() {
  return {{"phone", PhoneStateDataset(3000, 21, 0.02)},
          {"name", NameGenderDataset(3000, 22, 0.02)},
          {"zip", ZipCityStateDataset(3000, 23, 0.02)},
          {"employee", EmployeeDataset(3000, 24, 0.02)},
          {"compound", CompoundDataset(3000, 25, 0.02)},
          {"web", WebAccountDataset(3000, 26, 0.02)}};
}

TEST(DiscoverySliceTest, SliceMatchesAFreshRelationOfTheSameRows) {
  for (const auto& [label, data] : SliceSources()) {
    SCOPED_TRACE(label);
    const Relation slice = data.relation.Slice(1000, 3000).value();
    const Relation fresh = Rebuilt(data.relation, 1000, 3000);
    const std::string json = RulesJson(slice, 1);
    EXPECT_EQ(json, RulesJson(fresh, 1));
    if (label != "web") {
      EXPECT_NE(json.find("\"tableau\""), std::string::npos);
    }
  }
}

TEST(DiscoverySliceTest, RulesIdenticalAtEveryThreadCount) {
  for (const auto& [label, data] : SliceSources()) {
    SCOPED_TRACE(label);
    const Relation slice = data.relation.Slice(1000, 3000).value();
    const std::string serial = RulesJson(slice, 1);
    for (const size_t threads : {2, 4, 8}) {
      EXPECT_EQ(RulesJson(slice, threads), serial) << threads << " threads";
    }
  }
}

// ---- Golden output ---------------------------------------------------------
//
// The full discovery output — every rule's text, its coverage statistics
// and its provenance lines — for every datagen generator at fixed seeds and
// sizes, pinned byte for byte in tests/corpus/discovery_golden.txt. The
// name/gender samples are large enough that the constant miner's redundancy
// pruning keeps every first name above the support floor (53 rows), and,
// under a lower row cap, stops with its kept list full. On a mismatch the
// actual output is written to the test's temp directory so it can be
// diffed against the golden.

std::string RenderDiscovery(const std::string& label, const Dataset& data,
                            const DiscoveryOptions& options) {
  const DiscoveryResult result = DiscoverPfds(data.relation, options).value();
  std::ostringstream out;
  out << "== " << label << " rows=" << data.relation.num_rows()
      << " rules=" << result.pfds.size() << "\n";
  for (const DiscoveredPfd& p : result.pfds) {
    out << "rule: " << p.pfd.ToString() << "\n";
    out << "stats: total=" << p.stats.total_rows
        << " covered=" << p.stats.covered_rows
        << " violating=" << p.stats.violating_rows << "\n";
    for (const std::string& line : p.provenance) {
      out << "provenance: " << line << "\n";
    }
  }
  return out.str();
}

std::string GoldenDiscoveryText() {
  DiscoveryOptions options;
  options.min_coverage = 0.4;
  DiscoveryOptions toy = options;  // 4-row tables with one error each
  toy.allowed_violation_ratio = 0.5;
  toy.constant_miner.decision.min_dominance = 0.5;

  std::string text;
  text += RenderDiscovery("paper_name", PaperNameTable(), toy);
  text += RenderDiscovery("paper_zip", PaperZipTable(), toy);
  text += RenderDiscovery("phone", PhoneStateDataset(1000, 3, 0.02), options);
  text += RenderDiscovery("name", NameGenderDataset(2000, 4, 0.02), options);
  // A row cap below the number of accepted first names: pruning stops at
  // the cap with its kept list full.
  DiscoveryOptions capped = options;
  capped.constant_miner.max_rows = 32;
  text += RenderDiscovery("name_capped", NameGenderDataset(1000, 8, 0.02),
                          capped);
  text += RenderDiscovery("zip", ZipCityStateDataset(1000, 5, 0.02), options);
  text += RenderDiscovery("employee", EmployeeDataset(1000, 6, 0.02), options);
  text += RenderDiscovery("compound", CompoundDataset(1000, 7, 0.02), options);
  text += RenderDiscovery("web", WebAccountDataset(50, 1, 0.02), options);
  return text;
}

std::vector<std::string> SplitLines(const std::string& text) {
  std::vector<std::string> lines;
  std::istringstream in(text);
  for (std::string line; std::getline(in, line);) lines.push_back(line);
  return lines;
}

TEST(DiscoveryGoldenTest, EveryGeneratorMatchesPinnedOutput) {
  const std::string golden_path =
      std::string(ANMAT_TEST_CORPUS_DIR) + "/discovery_golden.txt";
  std::ifstream in(golden_path, std::ios::binary);
  ASSERT_TRUE(in.good()) << "missing " << golden_path;
  std::ostringstream golden;
  golden << in.rdbuf();

  const std::string actual = GoldenDiscoveryText();
  if (actual == golden.str()) return;

  const std::string actual_path =
      ::testing::TempDir() + "discovery_golden.actual.txt";
  std::ofstream(actual_path, std::ios::binary) << actual;
  const std::vector<std::string> want = SplitLines(golden.str());
  const std::vector<std::string> got = SplitLines(actual);
  size_t line = 0;
  while (line < want.size() && line < got.size() && want[line] == got[line]) {
    ++line;
  }
  ADD_FAILURE() << "discovery output differs from " << golden_path
                << " at line " << line + 1 << "\n  golden: "
                << (line < want.size() ? want[line] : "<end>")
                << "\n  actual: " << (line < got.size() ? got[line] : "<end>")
                << "\nfull actual output: " << actual_path;
}

}  // namespace
}  // namespace anmat
