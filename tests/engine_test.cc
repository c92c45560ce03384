// Differential tests for the engine layer (anmat/engine.h):
//
//  * parallel profiling / discovery / detection / repair at 2, 4 and 8
//    threads must be byte-identical to serial runs (the engine's
//    determinism contract) — for repair that covers the applied repairs,
//    the conflict set AND the repaired relation bytes,
//  * DetectionStream::AppendBatch over row chunks must yield the same
//    cumulative violation set as one-shot DetectErrors on the concatenated
//    relation, after every batch, for randomized chunk splits,
//  * DetectionStream clean-on-ingest must apply exactly the confident
//    constant-rule repairs of each batch and accumulate the cleaned rows.

#include "anmat/engine.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <iterator>
#include <map>
#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "csv/csv_reader.h"
#include "csv/csv_writer.h"
#include "datagen/datasets.h"
#include "detect/detection_stream.h"
#include "detect/detector.h"
#include "detect/detector_internal.h"
#include "detect/reference_detector.h"
#include "detect/suggestion_policy.h"
#include "discovery/discovery.h"
#include "dispatch/dispatch_plan.h"
#include "pattern/pattern_parser.h"
#include "reference_check.h"
#include "repair/repair.h"
#include "util/random.h"

namespace anmat {
namespace {

// -- Fingerprints: order-sensitive, field-complete serializations ----------

std::string Fingerprint(const ColumnProfile& p) {
  std::ostringstream out;
  out << p.name << "|" << p.index << "|" << p.rows << "|" << p.non_null
      << "|" << p.distinct << "|" << p.numeric_ratio << "|"
      << p.single_token << "|" << p.avg_tokens << "|"
      << p.column_pattern.ToString();
  for (const PatternProfileEntry& e : p.top_patterns) {
    out << "|" << e.pattern << "::" << e.position << "," << e.frequency;
  }
  return out.str();
}

std::string Fingerprint(const std::vector<ColumnProfile>& profiles) {
  std::string out;
  for (const ColumnProfile& p : profiles) out += Fingerprint(p) + "\n";
  return out;
}

std::string Fingerprint(const DiscoveryResult& result) {
  std::ostringstream out;
  out << "candidates=" << result.candidates_examined << "\n";
  for (const DiscoveredPfd& d : result.pfds) {
    out << d.pfd.ToString() << "|" << d.stats.total_rows << "|"
        << d.stats.covered_rows << "|" << d.stats.violating_rows;
    for (const std::string& p : d.provenance) out << "|" << p;
    out << "\n";
  }
  out << Fingerprint(result.profiles);
  return out.str();
}

std::string Fingerprint(const DetectionResult& result) {
  std::ostringstream out;
  out << "scanned=" << result.stats.rows_scanned
      << " candidates=" << result.stats.candidate_rows
      << " pairs=" << result.stats.pairs_checked
      << " violations=" << result.stats.violations << "\n";
  for (const Violation& v : result.violations) {
    out << (v.kind == ViolationKind::kConstant ? "C" : "V") << "|"
        << v.pfd_index << "|" << v.tableau_row << "|";
    for (const CellRef& c : v.cells) out << c.row << "," << c.column << ";";
    out << "|" << v.suspect.row << "," << v.suspect.column << "|"
        << v.suggested_repair << "|" << v.explanation << "\n";
  }
  return out.str();
}

std::string Fingerprint(const RepairResult& result) {
  std::ostringstream out;
  out << "passes=" << result.passes
      << " remaining=" << result.remaining_violations << "\n";
  for (const AppliedRepair& r : result.repairs) {
    out << r.cell.row << "," << r.cell.column << "|" << r.before << "|"
        << r.after << "|" << r.pass << "|" << r.pfd_index << "\n";
  }
  for (const CellRef& c : result.conflicted_cells) {
    out << "conflict " << c.row << "," << c.column << "\n";
  }
  return out.str();
}

std::string Fingerprint(const Relation& relation) {
  std::string out;
  for (RowId r = 0; r < relation.num_rows(); ++r) {
    for (size_t c = 0; c < relation.num_columns(); ++c) {
      out += relation.cell(r, c);
      out.push_back('\x1f');
    }
    out.push_back('\n');
  }
  return out;
}

std::vector<Dataset> TestDatasets() {
  std::vector<Dataset> datasets;
  datasets.push_back(ZipCityStateDataset(1200, 101, 0.03));
  datasets.push_back(NameGenderDataset(800, 102, 0.05));
  datasets.push_back(EmployeeDataset(600, 103, 0.04));
  return datasets;
}

/// TestDatasets() plus small versions of the other three tables the
/// end-to-end cleaning benchmark runs (web at its 50 rows): all six kinds.
std::vector<Dataset> CleaningTables() {
  std::vector<Dataset> datasets = TestDatasets();
  datasets.push_back(PhoneStateDataset(1000, 221, 0.02));
  datasets.push_back(CompoundDataset(1000, 222, 0.02));
  datasets.push_back(WebAccountDataset(50, 223, 0.02));
  return datasets;
}

DiscoveryOptions LenientDiscovery() {
  DiscoveryOptions options;
  options.min_coverage = 0.4;
  options.allowed_violation_ratio = 0.1;
  return options;
}

std::vector<Pfd> DiscoverRules(const Relation& relation) {
  Engine engine;
  auto discovery = engine.Discover(relation, LenientDiscovery());
  EXPECT_TRUE(discovery.ok());
  std::vector<Pfd> rules;
  for (const DiscoveredPfd& d : discovery->pfds) rules.push_back(d.pfd);
  return rules;
}

const size_t kThreadCounts[] = {2, 4, 8};

// -- Parallel == serial ----------------------------------------------------

TEST(EngineParallelTest, ProfileByteIdenticalToSerial) {
  for (const Dataset& d : TestDatasets()) {
    Engine serial(ExecutionOptions{1, true, nullptr});
    const std::string expected = Fingerprint(serial.Profile(d.relation));
    for (size_t threads : kThreadCounts) {
      Engine engine(ExecutionOptions{threads, true, nullptr});
      EXPECT_EQ(Fingerprint(engine.Profile(d.relation)), expected)
          << d.name << " with " << threads << " threads";
    }
  }
}

TEST(EngineParallelTest, DiscoverByteIdenticalToSerial) {
  for (const Dataset& d : TestDatasets()) {
    Engine serial(ExecutionOptions{1, true, nullptr});
    auto serial_result = serial.Discover(d.relation, LenientDiscovery());
    ASSERT_TRUE(serial_result.ok());
    EXPECT_FALSE(serial_result->pfds.empty()) << d.name;
    const std::string expected = Fingerprint(serial_result.value());
    for (size_t threads : kThreadCounts) {
      Engine engine(ExecutionOptions{threads, true, nullptr});
      auto result = engine.Discover(d.relation, LenientDiscovery());
      ASSERT_TRUE(result.ok());
      EXPECT_EQ(Fingerprint(result.value()), expected)
          << d.name << " with " << threads << " threads";
    }
  }
}

TEST(EngineParallelTest, DetectByteIdenticalToSerial) {
  for (const Dataset& d : TestDatasets()) {
    const std::vector<Pfd> rules = DiscoverRules(d.relation);
    ASSERT_FALSE(rules.empty()) << d.name;
    const DetectionResult reference =
        ReferenceDetectErrors(d.relation, rules).value();
    Engine serial(ExecutionOptions{1, true, nullptr});
    auto serial_result = serial.Detect(d.relation, rules);
    ASSERT_TRUE(serial_result.ok());
    EXPECT_FALSE(serial_result->violations.empty()) << d.name;
    ExpectSameAsReference(serial_result.value(), reference, d.name);
    const std::string expected = Fingerprint(serial_result.value());
    for (size_t threads : kThreadCounts) {
      Engine engine(ExecutionOptions{threads, true, nullptr});
      auto result = engine.Detect(d.relation, rules);
      ASSERT_TRUE(result.ok());
      EXPECT_EQ(Fingerprint(result.value()), expected)
          << d.name << " with " << threads << " threads";
    }
  }
}

TEST(EngineParallelTest, ZeroCopyIngestDetectsIdenticallyAcrossThreads) {
  // End-to-end: a dataset written to disk, ingested through the zero-copy
  // mmap reader, must produce byte-identical violations to the in-memory
  // string parse — at 1, 2, 4 and 8 threads.
  const Dataset d = ZipCityStateDataset(600, 311, 0.05);
  const std::string path = ::testing::TempDir() + "/anmat_engine_zc.csv";
  ASSERT_TRUE(WriteCsvFile(d.relation, path).ok());
  auto csv_text = WriteCsvString(d.relation);
  ASSERT_TRUE(csv_text.ok());
  auto parsed = ReadCsvString(csv_text.value());
  auto mapped = ReadCsvFile(path);  // zero-copy is the default file path
  std::remove(path.c_str());
  ASSERT_TRUE(parsed.ok());
  ASSERT_TRUE(mapped.ok());

  const std::vector<Pfd> rules = DiscoverRules(parsed.value());
  ASSERT_FALSE(rules.empty());
  std::string expected;
  for (size_t threads : {size_t{1}, size_t{2}, size_t{4}, size_t{8}}) {
    Engine engine(ExecutionOptions{threads, true, nullptr});
    auto from_parsed = engine.Detect(parsed.value(), rules);
    auto from_mapped = engine.Detect(mapped.value(), rules);
    ASSERT_TRUE(from_parsed.ok());
    ASSERT_TRUE(from_mapped.ok());
    const std::string fp = Fingerprint(from_mapped.value());
    EXPECT_EQ(fp, Fingerprint(from_parsed.value()))
        << threads << " threads";
    if (expected.empty()) {
      expected = fp;
    } else {
      EXPECT_EQ(fp, expected) << threads << " threads";
    }
  }
}

TEST(EngineParallelTest, RepairByteIdenticalToSerial) {
  for (const Dataset& d : TestDatasets()) {
    const std::vector<Pfd> rules = DiscoverRules(d.relation);
    ASSERT_FALSE(rules.empty()) << d.name;

    // Serial reference: plain RepairErrors, no engine involved.
    Relation serial_relation = d.relation;
    RepairResult serial_result =
        RepairErrors(&serial_relation, rules).value();
    EXPECT_FALSE(serial_result.repairs.empty()) << d.name;
    const std::string expected_result = Fingerprint(serial_result);
    const std::string expected_relation = Fingerprint(serial_relation);

    for (size_t threads : kThreadCounts) {
      Engine engine(ExecutionOptions{threads, true, nullptr});
      Relation relation = d.relation;
      auto result = engine.Repair(&relation, rules);
      ASSERT_TRUE(result.ok()) << d.name;
      EXPECT_EQ(Fingerprint(result.value()), expected_result)
          << d.name << " with " << threads << " threads";
      EXPECT_EQ(Fingerprint(relation), expected_relation)
          << d.name << " with " << threads << " threads";
    }
  }
}

// -- Repair == an independent reference loop -------------------------------

/// The repair fixpoint loop written from its contract over the reference
/// detector, run from scratch every pass: fold each pass's suggestions
/// (detect/suggestion_policy.h), never touch a conflicted cell again, and
/// repair a cell at most once. Nothing is kept between passes, so a pass
/// of `RepairErrors` that reads stale detection state shows up here.
RepairResult ReferenceRepair(Relation* relation, const std::vector<Pfd>& pfds,
                             const RepairOptions& options) {
  RepairResult result;
  std::set<CellRef> conflicted;
  std::set<CellRef> repaired;
  const auto conflict = [&](const CellRef& cell) {
    if (conflicted.insert(cell).second) {
      result.conflicted_cells.push_back(cell);
    }
  };
  for (size_t pass = 0; pass < options.max_passes; ++pass) {
    const DetectionResult detection =
        ReferenceDetectErrors(*relation, pfds).value();
    result.passes = pass + 1;
    if (detection.violations.empty()) break;
    SuggestionFold fold;
    for (const Violation& v : detection.violations) {
      if (v.suggested_repair.empty() || conflicted.count(v.suspect) > 0) {
        continue;
      }
      if (repaired.count(v.suspect) > 0) {
        if (relation->cell(v.suspect.row, v.suspect.column) !=
            v.suggested_repair) {
          conflict(v.suspect);
        }
        continue;
      }
      const bool variable = v.kind == ViolationKind::kVariable;
      if (variable && !options.apply_variable_repairs) continue;
      fold.Add(v.suspect, v.suggested_repair, v.pfd_index, variable);
    }
    for (const CellRef& cell : fold.conflicts()) conflict(cell);
    size_t applied = 0;
    for (const auto& [cell, suggestion] : fold.Resolve()) {
      const std::string before(relation->cell(cell.row, cell.column));
      if (before == suggestion.value) continue;
      relation->set_cell(cell.row, cell.column, suggestion.value);
      repaired.insert(cell);
      result.repairs.push_back(AppliedRepair{cell, before, suggestion.value,
                                             pass, suggestion.pfd_index});
      ++applied;
    }
    if (applied == 0) break;
  }
  result.final_detection = ReferenceDetectErrors(*relation, pfds).value();
  result.remaining_violations = result.final_detection.violations.size();
  std::sort(result.conflicted_cells.begin(), result.conflicted_cells.end());
  return result;
}

/// Repairs that wrote a column some rule reads on its LHS: the writes after
/// which a pass must rebuild other rules' candidates and groups.
size_t LhsWrites(const RepairResult& result, const Relation& relation,
                 const std::vector<Pfd>& rules) {
  std::set<size_t> lhs_cols;
  for (const Pfd& rule : rules) {
    for (const std::string& attr : rule.lhs_attrs()) {
      lhs_cols.insert(relation.schema().IndexOf(attr).value());
    }
  }
  size_t writes = 0;
  for (const AppliedRepair& r : result.repairs) {
    writes += lhs_cols.count(r.cell.column);
  }
  return writes;
}

TEST(EngineRepairOracleTest, RepairMatchesReferenceLoop) {
  // TestDatasets() plus small versions of the five duplicate-heavy tables
  // the end-to-end cleaning benchmark repairs, discovered as it does.
  struct Case {
    Dataset data;
    DiscoveryOptions discovery;
  };
  std::vector<Case> cases;
  for (Dataset& d : TestDatasets()) {
    cases.push_back({std::move(d), LenientDiscovery()});
  }
  DiscoveryOptions batch;
  batch.min_coverage = 0.4;
  cases.push_back({ZipCityStateDataset(1000, 11, 0.02), batch});
  cases.push_back({PhoneStateDataset(1000, 12, 0.02), batch});
  cases.push_back({NameGenderDataset(1000, 13, 0.02), batch});
  cases.push_back({EmployeeDataset(1000, 14, 0.02), batch});
  cases.push_back({CompoundDataset(1000, 15, 0.02), batch});

  size_t lhs_writes = 0;
  for (const Case& c : cases) {
    const std::string& name = c.data.name;
    Engine discoverer;
    auto discovery = discoverer.Discover(c.data.relation, c.discovery);
    ASSERT_TRUE(discovery.ok()) << name;
    std::vector<Pfd> rules;
    for (const DiscoveredPfd& d : discovery->pfds) rules.push_back(d.pfd);
    ASSERT_FALSE(rules.empty()) << name;

    Relation expected_relation = c.data.relation;
    const RepairResult expected =
        ReferenceRepair(&expected_relation, rules, RepairOptions{});
    EXPECT_FALSE(expected.repairs.empty()) << name;
    lhs_writes += LhsWrites(expected, expected_relation, rules);

    Relation relation = c.data.relation;
    const RepairResult serial = RepairErrors(&relation, rules).value();
    EXPECT_EQ(Fingerprint(serial), Fingerprint(expected)) << name;
    EXPECT_EQ(Fingerprint(relation), Fingerprint(expected_relation)) << name;
    ExpectSameAsReference(serial.final_detection, expected.final_detection,
                          name + ", final detection");

    for (size_t threads : {size_t{2}, size_t{4}}) {
      const std::string label =
          name + " with " + std::to_string(threads) + " threads";
      Engine engine(ExecutionOptions{threads, true, nullptr});
      Relation engine_relation = c.data.relation;
      auto repaired = engine.Repair(&engine_relation, rules);
      ASSERT_TRUE(repaired.ok()) << label;
      EXPECT_EQ(Fingerprint(repaired.value()), Fingerprint(expected))
          << label;
      EXPECT_EQ(Fingerprint(engine_relation), Fingerprint(expected_relation))
          << label;
      ExpectSameAsReference(repaired->final_detection,
                            expected.final_detection,
                            label + ", final detection");
    }
  }
  // Some repair wrote a column another rule reads on its LHS, so the
  // passes after it had to rebuild that rule's state.
  EXPECT_GT(lhs_writes, 0u);
}

TEST(EngineParallelTest, ZeroMeansHardwareThreads) {
  const Dataset d = ZipCityStateDataset(300, 105, 0.02);
  Engine engine(ExecutionOptions{0, true, nullptr});
  Engine serial(ExecutionOptions{1, true, nullptr});
  EXPECT_EQ(Fingerprint(engine.Profile(d.relation)),
            Fingerprint(serial.Profile(d.relation)));
}

// -- Shared cached automata == uncached reference -------------------------

// Acceptance: detection through a caller-shared cache (cached automata +
// resolved-row reuse) is byte-identical to the uncached reference oracle,
// and repair through it to a repair with its own private cache, at
// 1/2/4/8 threads.
TEST(EngineAutomatonCacheTest, SharedCachePathMatchesReference) {
  for (const Dataset& d : TestDatasets()) {
    const std::vector<Pfd> rules = DiscoverRules(d.relation);
    ASSERT_FALSE(rules.empty()) << d.name;

    const DetectionResult reference =
        ReferenceDetectErrors(d.relation, rules).value();
    Relation private_relation = d.relation;
    RepairResult private_repair =
        RepairErrors(&private_relation, rules).value();
    const std::string expected_repair = Fingerprint(private_repair);
    const std::string expected_relation = Fingerprint(private_relation);

    for (size_t threads : {size_t{1}, size_t{2}, size_t{4}, size_t{8}}) {
      const std::string label =
          d.name + " with " + std::to_string(threads) + " threads";
      DetectorOptions options;
      options.execution.num_threads = threads;
      options.automata = std::make_shared<AutomatonCache>();
      auto detection = DetectErrors(d.relation, rules, options);
      ASSERT_TRUE(detection.ok());
      ExpectSameAsReference(detection.value(), reference, label);
      EXPECT_GT(options.automata->hits() + options.automata->misses(), 0u);

      RepairOptions repair_options;
      repair_options.detector = options;
      Relation relation = d.relation;
      auto repair = RepairErrors(&relation, rules, repair_options);
      ASSERT_TRUE(repair.ok());
      EXPECT_EQ(Fingerprint(repair.value()), expected_repair) << label;
      EXPECT_EQ(Fingerprint(relation), expected_relation) << label;
    }
  }
}

TEST(EngineAutomatonCacheTest, DiscoverCompilesNoUnionAutomata) {
  // Discovery's coverage check runs each candidate PFD on detection's
  // per-pattern path: a union automaton built for one candidate would never
  // be probed again, so none is compiled.
  for (const Dataset& d : TestDatasets()) {
    Engine engine;
    auto result = engine.Discover(d.relation, LenientDiscovery());
    ASSERT_TRUE(result.ok());
    EXPECT_FALSE(result->pfds.empty()) << d.name;
    EXPECT_GT(engine.automata().misses(), 0u) << d.name;
    EXPECT_EQ(engine.automata().dispatch_stats().automata, 0u) << d.name;
  }
}

TEST(EngineAutomatonCacheTest, RepairPassesReuseCompiledAutomata) {
  const Dataset d = ZipCityStateDataset(1000, 401, 0.04);
  const std::vector<Pfd> rules = DiscoverRules(d.relation);
  ASSERT_FALSE(rules.empty());

  Engine engine;
  Relation relation = d.relation;
  ASSERT_TRUE(engine.Repair(&relation, rules).ok());
  const size_t misses_after_first = engine.automata().misses();
  const size_t hits_after_first = engine.automata().hits();
  EXPECT_GT(misses_after_first, 0u);
  // A repair run detects at least twice (pass + final verification); with
  // resolved rows cached across passes and the engine cache behind them,
  // the second detection re-resolves nothing — hits come from index
  // verification and any fallback resolution, and nothing recompiles.
  EXPECT_GT(hits_after_first + misses_after_first, 0u);

  // A second full repair over the same rules compiles NOTHING new: every
  // automaton is answered from the engine-wide cache.
  Relation relation2 = d.relation;
  ASSERT_TRUE(engine.Repair(&relation2, rules).ok());
  EXPECT_EQ(engine.automata().misses(), misses_after_first);
  EXPECT_GT(engine.automata().hits(), hits_after_first);

  // Detection and streaming reuse the very same automata.
  ASSERT_TRUE(engine.Detect(d.relation, rules).ok());
  EXPECT_EQ(engine.automata().misses(), misses_after_first);
}

TEST(EngineAutomatonCacheTest, WebDetectMaterializesOnlyWalkedUnionStates) {
  // The web table's rules give unions whose full subset construction runs
  // to thousands of states; the 50 values a detect classifies walk a few
  // hundred of them, and only those are built.
  const Dataset d = WebAccountDataset(50, 1, 0.02);
  DiscoveryOptions discovery;
  discovery.min_coverage = 0.4;
  std::vector<Pfd> rules;
  {
    Engine engine;
    auto result = engine.Discover(d.relation, discovery);
    ASSERT_TRUE(result.ok());
    for (const DiscoveredPfd& p : result->pfds) rules.push_back(p.pfd);
  }
  ASSERT_FALSE(rules.empty());

  Engine engine(ExecutionOptions{2, true, nullptr});
  auto detection = engine.Detect(d.relation, rules);
  ASSERT_TRUE(detection.ok());
  ExpectSameAsReference(detection.value(),
                        ReferenceDetectErrors(d.relation, rules).value(),
                        "web");
  const DispatchStats stats = engine.automata().dispatch_stats();
  EXPECT_GT(stats.automata, 0u);
  EXPECT_LT(stats.total_states, 1000u);
  EXPECT_EQ(stats.flushes, 0u);

  // Every union-friendly LHS pattern classified through a union.
  std::map<size_t, ColumnDispatcher> by_col;
  std::map<size_t, std::vector<std::pair<uint32_t, bool>>> slots;
  for (const Pfd& pfd : rules) {
    for (size_t r = 0; r < pfd.tableau().size(); ++r) {
      const TableauRow& row = pfd.tableau().row(r);
      for (size_t c = 0; c < row.lhs.size(); ++c) {
        if (row.lhs[c].is_wildcard()) continue;
        const size_t col =
            d.relation.schema().IndexOf(pfd.lhs_attrs()[c]).value();
        const Pattern& p = row.lhs[c].pattern().EmbeddedPattern();
        slots[col].emplace_back(by_col[col].AddPattern(p), UnionFriendly(p));
      }
    }
  }
  size_t friendly = 0;
  for (auto& [col, cd] : by_col) {
    cd.Compile(&engine.automata());
    for (const auto& [slot, union_friendly] : slots[col]) {
      friendly += union_friendly ? 1 : 0;
      EXPECT_EQ(cd.compiled() && cd.covers(slot), union_friendly)
          << "column " << col << " slot " << slot;
    }
  }
  EXPECT_GT(friendly, 0u);
}

TEST(EngineAutomatonCacheTest, ConcurrentDetectsShareUnionsByteIdentically) {
  // Four callers detect on one engine at once, so their dispatchers grow
  // the same cached lazy unions concurrently (run under TSan via
  // tools/verify.sh thread). Every result must equal a serial run's bytes.
  std::vector<Dataset> datasets = TestDatasets();
  datasets.push_back(WebAccountDataset(50, 1, 0.02));
  std::vector<std::vector<Pfd>> rules;
  std::vector<std::string> expected;
  for (const Dataset& d : datasets) {
    rules.push_back(DiscoverRules(d.relation));
    Engine serial;
    auto result = serial.Detect(d.relation, rules.back());
    ASSERT_TRUE(result.ok());
    expected.push_back(Fingerprint(result.value()));
  }

  Engine engine(ExecutionOptions{2, true, nullptr});
  constexpr size_t kCallers = 4;
  constexpr size_t kRounds = 3;
  std::vector<std::vector<std::string>> got(kCallers);
  std::vector<std::thread> callers;
  for (size_t t = 0; t < kCallers; ++t) {
    callers.emplace_back([&, t] {
      for (size_t round = 0; round < kRounds; ++round) {
        for (size_t k = 0; k < datasets.size(); ++k) {
          // Each caller starts at a different table.
          const size_t i = (k + t) % datasets.size();
          auto result = engine.Detect(datasets[i].relation, rules[i]);
          got[t].push_back(result.ok() ? Fingerprint(result.value())
                                       : result.status().ToString());
        }
      }
    });
  }
  for (std::thread& c : callers) c.join();
  for (size_t t = 0; t < kCallers; ++t) {
    ASSERT_EQ(got[t].size(), kRounds * datasets.size());
    for (size_t n = 0; n < got[t].size(); ++n) {
      const size_t i = (n % datasets.size() + t) % datasets.size();
      EXPECT_EQ(got[t][n], expected[i])
          << "caller " << t << ", " << datasets[i].name;
    }
  }
  EXPECT_GT(engine.automata().dispatch_stats().probes, 0u);
}

// -- Detect -> Repair hand-off ----------------------------------------------

/// Everything a repair hands back, and the relation it repaired.
std::string Fingerprint(const RepairResult& result, const Relation& repaired) {
  return Fingerprint(result) + Fingerprint(result.final_detection) +
         Fingerprint(repaired);
}

/// A fresh `RepairErrors` over a copy of `relation`.
std::string FreshRepair(const Relation& relation,
                        const std::vector<Pfd>& rules) {
  Relation copy = relation;
  const RepairResult result = RepairErrors(&copy, rules).value();
  return Fingerprint(result, copy);
}

/// Lookups the engine's automaton cache has answered: opening a detection
/// state resolves every tableau row through it.
size_t Lookups(Engine& engine) {
  return engine.automata().hits() + engine.automata().misses();
}

TEST(EngineHandOffTest, DetectThenRepairMatchesFreshRepair) {
  // Repair right after Detect on the same relation and rules starts from
  // the kept state; its repairs, passes, conflicts, final detection and
  // repaired bytes equal a fresh RepairErrors on a copy, at 1/2/4 threads
  // and, through the same internal entry points, under a cache whose
  // state bound flushes every matcher automaton and every union.
  for (const Dataset& d : CleaningTables()) {
    SCOPED_TRACE(d.name);
    const std::vector<Pfd> rules = DiscoverRules(d.relation);
    ASSERT_FALSE(rules.empty());
    const std::string detected =
        Fingerprint(DetectErrors(d.relation, rules).value());
    const std::string expected = FreshRepair(d.relation, rules);
    for (const size_t threads : {1, 2, 4}) {
      SCOPED_TRACE(std::to_string(threads) + " threads");
      Engine engine(ExecutionOptions{threads, true, nullptr});
      Relation relation = d.relation;
      auto detection = engine.Detect(relation, rules);
      ASSERT_TRUE(detection.ok());
      EXPECT_EQ(Fingerprint(detection.value()), detected);
      auto repair = engine.Repair(&relation, rules);
      ASSERT_TRUE(repair.ok());
      EXPECT_EQ(Fingerprint(repair.value(), relation), expected);
    }

    DetectorOptions bounded;
    bounded.execution.num_threads = 4;
    bounded.automata = std::make_shared<AutomatonCache>(3);
    Relation relation = d.relation;
    detect_internal::DetectionState state;
    auto detection = detect_internal::DetectErrorsKeepingState(
        relation, rules, bounded, &state);
    ASSERT_TRUE(detection.ok());
    EXPECT_EQ(Fingerprint(detection.value()), detected);
    RepairOptions options;
    options.detector = bounded;
    auto repair =
        repair_internal::RepairFromState(&relation, rules, options, &state);
    ASSERT_TRUE(repair.ok());
    EXPECT_EQ(Fingerprint(repair.value(), relation), expected);
    EXPECT_GT(bounded.automata->dispatch_stats().flushes, 0u);
  }
}

TEST(EngineHandOffTest, RepairAfterDetectReDetectsNothing) {
  // With no pass to run, a Repair after a matching Detect only merges what
  // the kept state holds: no automaton lookup, no union probe. The same
  // call without a kept state resolves and classifies everything again.
  size_t fresh_lookups = 0;
  for (const Dataset& d : CleaningTables()) {
    SCOPED_TRACE(d.name);
    const std::vector<Pfd> rules = DiscoverRules(d.relation);
    ASSERT_FALSE(rules.empty());
    Engine engine(ExecutionOptions{2, true, nullptr});
    Relation relation = d.relation;
    auto detection = engine.Detect(relation, rules);
    ASSERT_TRUE(detection.ok());
    const size_t lookups = Lookups(engine);
    const uint64_t probes = engine.automata().dispatch_stats().probes;

    RepairOptions no_passes;
    no_passes.max_passes = 0;
    auto repair = engine.Repair(&relation, rules, no_passes);
    ASSERT_TRUE(repair.ok());
    EXPECT_EQ(Lookups(engine), lookups);
    EXPECT_EQ(engine.automata().dispatch_stats().probes, probes);
    EXPECT_EQ(repair->passes, 0u);
    EXPECT_EQ(Fingerprint(repair->final_detection),
              Fingerprint(detection.value()));

    // The Repair took the kept state: the next one starts fresh.
    ASSERT_TRUE(engine.Repair(&relation, rules, no_passes).ok());
    fresh_lookups += Lookups(engine) - lookups;
  }
  EXPECT_GT(fresh_lookups, 0u);
}

TEST(EngineHandOffTest, RepairOfAnotherRelationOrRulesStartsFresh) {
  // Anything but the detected relation object, unmutated, under equal
  // rules in the same order makes Repair start from a fresh state (it
  // resolves the tableau rows again), and the result stays byte-identical
  // to a fresh RepairErrors over the relation as it stands.
  const Dataset d = ZipCityStateDataset(1000, 241, 0.03);
  const std::vector<Pfd> rules = DiscoverRules(d.relation);
  ASSERT_GE(rules.size(), 2u);
  const std::vector<Pfd> reordered(rules.rbegin(), rules.rend());
  const std::vector<Pfd> subset(rules.begin(), rules.end() - 1);

  // Detects `rules` on a copy of the table, runs `between`, which returns
  // the relation to repair (the detected one or `other`), and repairs it
  // with `repair_rules`.
  using Between =
      std::function<Relation*(Engine&, Relation& detected, Relation& other)>;
  const auto check = [&](const std::string& label, const Between& between,
                         const std::vector<Pfd>& repair_rules) {
    SCOPED_TRACE(label);
    Engine engine(ExecutionOptions{2, true, nullptr});
    Relation relation = d.relation;
    Relation other;
    ASSERT_TRUE(engine.Detect(relation, rules).ok());
    Relation* target = between(engine, relation, other);
    const std::string expected = FreshRepair(*target, repair_rules);
    const size_t lookups = Lookups(engine);
    auto repair = engine.Repair(target, repair_rules);
    ASSERT_TRUE(repair.ok());
    EXPECT_GT(Lookups(engine), lookups);
    EXPECT_EQ(Fingerprint(repair.value(), *target), expected);
  };
  const auto same = [](Engine&, Relation& detected, Relation&) {
    return &detected;
  };

  check("set_cell", [](Engine&, Relation& detected, Relation&) {
    detected.set_cell(0, 1, "Nowhere");
    return &detected;
  }, rules);
  check("AppendRow", [](Engine&, Relation& detected, Relation&) {
    EXPECT_TRUE(detected.AppendRow(detected.Row(0)).ok());
    return &detected;
  }, rules);
  check("copy", [](Engine&, Relation& detected, Relation& other) {
    other = detected;
    return &other;
  }, rules);
  check("moved-to", [](Engine&, Relation& detected, Relation& other) {
    other = std::move(detected);
    return &other;
  }, rules);
  check("reordered rules", same, reordered);
  check("subset of the rules", same, subset);
  check("another relation detected since",
        [&](Engine& engine, Relation& detected, Relation& other) {
          other = detected;
          EXPECT_TRUE(engine.Detect(other, rules).ok());
          return &detected;
        },
        rules);
}

TEST(EngineHandOffTest, ConcurrentDetectRepairOnOneEngineMatchesSerial) {
  // Two callers share one engine, each detecting then repairing its own
  // relation round after round, so each Repair may find its own kept
  // state, the other caller's, or none (run under TSan via
  // tools/verify.sh thread). Every round must equal a serial run's bytes.
  const std::vector<Dataset> datasets = {ZipCityStateDataset(600, 251, 0.03),
                                         NameGenderDataset(500, 252, 0.05)};
  std::vector<std::vector<Pfd>> rules;
  std::vector<std::string> expected;
  for (const Dataset& d : datasets) {
    rules.push_back(DiscoverRules(d.relation));
    ASSERT_FALSE(rules.back().empty()) << d.name;
    expected.push_back(
        Fingerprint(DetectErrors(d.relation, rules.back()).value()) +
        FreshRepair(d.relation, rules.back()));
  }

  Engine engine(ExecutionOptions{2, true, nullptr});
  constexpr size_t kRounds = 8;
  std::vector<std::vector<std::string>> got(datasets.size());
  std::vector<std::thread> callers;
  for (size_t t = 0; t < datasets.size(); ++t) {
    callers.emplace_back([&, t] {
      for (size_t round = 0; round < kRounds; ++round) {
        Relation relation = datasets[t].relation;
        auto detection = engine.Detect(relation, rules[t]);
        auto repair = engine.Repair(&relation, rules[t]);
        got[t].push_back(detection.ok() && repair.ok()
                             ? Fingerprint(detection.value()) +
                                   Fingerprint(repair.value(), relation)
                             : "failed");
      }
    });
  }
  for (std::thread& c : callers) c.join();
  for (size_t t = 0; t < datasets.size(); ++t) {
    ASSERT_EQ(got[t].size(), kRounds);
    for (size_t round = 0; round < kRounds; ++round) {
      EXPECT_EQ(got[t][round], expected[t])
          << datasets[t].name << ", round " << round;
    }
  }
}

/// A relation holding `source`'s rows in an arena and dictionaries of its
/// own, so destroying it frees everything a detection over it points into.
Relation Rebuilt(const Relation& source) {
  Relation out(source.schema());
  for (RowId r = 0; r < source.num_rows(); ++r) {
    EXPECT_TRUE(out.AppendRow(source.Row(r)).ok());
  }
  return out;
}

TEST(EngineHandOffTest, KeptStateOutlivesItsRelation) {
  // A kept state points into the dictionaries of the relation it absorbed
  // and may outlive it; it is never used after that (run under ASan).
  // Engine copies share the kept state and the cache it points into.
  const Dataset d = ZipCityStateDataset(800, 261, 0.03);
  const std::vector<Pfd> rules = DiscoverRules(d.relation);
  ASSERT_FALSE(rules.empty());
  const std::string expected = FreshRepair(d.relation, rules);
  const std::string detected =
      Fingerprint(DetectErrors(d.relation, rules).value());

  auto engine = std::make_unique<Engine>(ExecutionOptions{2, true, nullptr});
  {
    const Relation doomed = Rebuilt(d.relation);
    ASSERT_TRUE(engine->Detect(doomed, rules).ok());
  }
  Relation other = Rebuilt(d.relation);
  auto repair = engine->Repair(&other, rules);
  ASSERT_TRUE(repair.ok());
  EXPECT_EQ(Fingerprint(repair.value(), other), expected);

  {
    const Relation doomed = Rebuilt(d.relation);
    ASSERT_TRUE(engine->Detect(doomed, rules).ok());
  }
  Relation last = Rebuilt(d.relation);
  auto detection = engine->Detect(last, rules);
  ASSERT_TRUE(detection.ok());
  EXPECT_EQ(Fingerprint(detection.value()), detected);

  // The copy starts from the state the destroyed original kept.
  Engine copy = *engine;
  engine.reset();
  const size_t lookups = Lookups(copy);
  RepairOptions no_passes;
  no_passes.max_passes = 0;
  auto merged = copy.Repair(&last, rules, no_passes);
  ASSERT_TRUE(merged.ok());
  EXPECT_EQ(Lookups(copy), lookups);
  EXPECT_EQ(Fingerprint(merged->final_detection), detected);

  ASSERT_TRUE(copy.Detect(last, rules).ok());
  repair = copy.Repair(&last, rules);
  ASSERT_TRUE(repair.ok());
  EXPECT_EQ(Fingerprint(repair.value(), last), expected);
  // Destroying the last engine frees the state this Detect keeps.
  ASSERT_TRUE(copy.Detect(last, rules).ok());
}

// -- Detect -> Detect reuse -------------------------------------------------

TEST(EngineReuseTest, RepeatDetectAnswersFromTheKeptState) {
  // A second Detect of the same relation object, unmutated, under equal
  // rules returns the first one's bytes without an automaton lookup.
  for (const Dataset& d : CleaningTables()) {
    SCOPED_TRACE(d.name);
    const std::vector<Pfd> rules = DiscoverRules(d.relation);
    ASSERT_FALSE(rules.empty());
    const std::string expected =
        Fingerprint(DetectErrors(d.relation, rules).value());
    for (const size_t threads : {1, 2, 4}) {
      SCOPED_TRACE(std::to_string(threads) + " threads");
      Engine engine(ExecutionOptions{threads, true, nullptr});
      auto first = engine.Detect(d.relation, rules);
      ASSERT_TRUE(first.ok());
      EXPECT_EQ(Fingerprint(first.value()), expected);
      const size_t hits = engine.automata().hits();
      const size_t misses = engine.automata().misses();
      for (int repeat = 0; repeat < 2; ++repeat) {
        auto again = engine.Detect(d.relation, rules);
        ASSERT_TRUE(again.ok());
        EXPECT_EQ(Fingerprint(again.value()), expected);
      }
      EXPECT_EQ(engine.automata().hits(), hits);
      EXPECT_EQ(engine.automata().misses(), misses);
    }
  }
}

TEST(EngineReuseTest, AnyChangeMakesTheNextDetectAFreshOne) {
  // Each change between two Detects makes the second a fresh detection
  // (it resolves the tableau rows again) equal to the reference oracle
  // over the relation as it stands.
  const Dataset d = ZipCityStateDataset(1000, 271, 0.03);
  const std::vector<Pfd> rules = DiscoverRules(d.relation);
  ASSERT_GE(rules.size(), 2u);
  const std::vector<Pfd> reordered(rules.rbegin(), rules.rend());
  const std::vector<Pfd> subset(rules.begin(), rules.end() - 1);

  // Detects `rules` on a copy of the table, runs `between`, which returns
  // the relation to detect again (the detected one or `other`), and
  // detects it with `next_rules`.
  using Between =
      std::function<Relation*(Engine&, Relation& detected, Relation& other)>;
  const auto check = [&](const std::string& label, const Between& between,
                         const std::vector<Pfd>& next_rules) {
    SCOPED_TRACE(label);
    Engine engine(ExecutionOptions{2, true, nullptr});
    Relation relation = d.relation;
    Relation other;
    ASSERT_TRUE(engine.Detect(relation, rules).ok());
    const Relation* target = between(engine, relation, other);
    const size_t lookups = Lookups(engine);
    auto detection = engine.Detect(*target, next_rules);
    ASSERT_TRUE(detection.ok());
    EXPECT_GT(Lookups(engine), lookups);
    ExpectSameAsReference(detection.value(),
                          ReferenceDetectErrors(*target, next_rules).value(),
                          label);
  };
  const auto same = [](Engine&, Relation& detected, Relation&) {
    return &detected;
  };

  check("set_cell", [](Engine&, Relation& detected, Relation&) {
    detected.set_cell(0, 1, "Nowhere");
    return &detected;
  }, rules);
  check("AppendRow", [](Engine&, Relation& detected, Relation&) {
    EXPECT_TRUE(detected.AppendRow(detected.Row(0)).ok());
    return &detected;
  }, rules);
  check("copy", [](Engine&, Relation& detected, Relation& other) {
    other = detected;
    return &other;
  }, rules);
  check("moved-to", [](Engine&, Relation& detected, Relation& other) {
    other = std::move(detected);
    return &other;
  }, rules);
  check("moved-from", [](Engine&, Relation& detected, Relation& other) {
    other = std::move(detected);
    detected = other;
    return &detected;
  }, rules);
  check("reordered rules", same, reordered);
  check("different rules", same, subset);
  check("a Repair in between",
        [&](Engine& engine, Relation& detected, Relation&) {
          Relation copy = detected;
          EXPECT_TRUE(engine.Repair(&copy, rules).ok());
          return &detected;
        },
        rules);
}

TEST(EngineReuseTest, DetectDetectRepairMatchesFreshRepair) {
  // The repeated Detect puts the kept state back, so the Repair still
  // starts from it (a pass-free one resolves nothing), with the passes,
  // repairs, conflicts and bytes of a fresh RepairErrors.
  for (const Dataset& d : CleaningTables()) {
    SCOPED_TRACE(d.name);
    const std::vector<Pfd> rules = DiscoverRules(d.relation);
    ASSERT_FALSE(rules.empty());
    const std::string expected = FreshRepair(d.relation, rules);
    Engine engine(ExecutionOptions{2, true, nullptr});
    Relation relation = d.relation;
    ASSERT_TRUE(engine.Detect(relation, rules).ok());
    ASSERT_TRUE(engine.Detect(relation, rules).ok());
    auto repair = engine.Repair(&relation, rules);
    ASSERT_TRUE(repair.ok());
    EXPECT_EQ(Fingerprint(repair.value(), relation), expected);

    Relation again = d.relation;
    ASSERT_TRUE(engine.Detect(again, rules).ok());
    ASSERT_TRUE(engine.Detect(again, rules).ok());
    const size_t lookups = Lookups(engine);
    RepairOptions no_passes;
    no_passes.max_passes = 0;
    ASSERT_TRUE(engine.Repair(&again, rules, no_passes).ok());
    EXPECT_EQ(Lookups(engine), lookups);
  }
}

TEST(EngineReuseTest, ConcurrentRepeatDetectsAgree) {
  // Four callers detect one const relation on one shared engine, so each
  // call may find the kept state, find it taken by another caller and
  // detect afresh, or put its own back over another's (run under TSan via
  // tools/verify.sh thread). Every result equals a serial run's bytes.
  const Dataset d = ZipCityStateDataset(800, 281, 0.03);
  const std::vector<Pfd> rules = DiscoverRules(d.relation);
  ASSERT_FALSE(rules.empty());
  const std::string expected =
      Fingerprint(DetectErrors(d.relation, rules).value());

  const Relation& relation = d.relation;
  Engine engine(ExecutionOptions{2, true, nullptr});
  constexpr size_t kCallers = 4;
  constexpr size_t kDetects = 20;
  std::vector<std::vector<std::string>> got(kCallers);
  std::vector<std::thread> callers;
  for (size_t t = 0; t < kCallers; ++t) {
    callers.emplace_back([&, t] {
      for (size_t i = 0; i < kDetects; ++i) {
        auto result = engine.Detect(relation, rules);
        got[t].push_back(result.ok() ? Fingerprint(result.value())
                                     : result.status().ToString());
      }
    });
  }
  for (std::thread& c : callers) c.join();
  for (size_t t = 0; t < kCallers; ++t) {
    EXPECT_EQ(got[t], std::vector<std::string>(kDetects, expected))
        << "caller " << t;
  }
}

// -- Streaming == one-shot -------------------------------------------------

/// Splits `relation` into randomized chunk sizes, appends each to a stream,
/// and checks the cumulative result after every batch against one-shot
/// detection on the growing prefix and against `ReferenceDetectErrors` on
/// the stream's relation (the one-shot detector and the stream share their
/// detection code; the oracle shares none of it). With `clean_on_ingest`
/// the stream repairs each batch before absorbing it, so both references
/// run over the stream's own (cleaned) relation. A null `options.automata`
/// runs through an `Engine` and its cache; a set one (a bounded cache, say)
/// opens the stream and detects directly, since an engine installs its own.
void CheckStreamEquivalence(const Relation& relation,
                            const std::vector<Pfd>& rules,
                            const DetectorOptions& options, uint64_t seed,
                            bool clean_on_ingest = false) {
  Engine engine(ExecutionOptions{options.execution.num_threads, true,
                                 nullptr});
  const bool own_cache = options.automata != nullptr;
  auto stream = own_cache
                    ? DetectionStream::Open(relation.schema(), rules, options)
                    : engine.OpenStream(relation.schema(), rules, options);
  ASSERT_TRUE(stream.ok()) << stream.status();
  (*stream)->set_clean_on_ingest(clean_on_ingest);

  Rng rng(seed);
  Relation prefix(relation.schema());
  RowId begin = 0;
  size_t batch_number = 0;
  while (begin < relation.num_rows()) {
    const RowId remaining = static_cast<RowId>(relation.num_rows()) - begin;
    const RowId size = static_cast<RowId>(
        1 + rng.NextBelow(std::min<uint64_t>(remaining, 137)));
    auto batch = relation.Slice(begin, begin + size);
    ASSERT_TRUE(batch.ok());
    for (RowId r = 0; r < batch->num_rows(); ++r) {
      ASSERT_TRUE(prefix.AppendRow(batch->Row(r)).ok());
    }

    auto cumulative = (*stream)->AppendBatch(batch.value());
    ASSERT_TRUE(cumulative.ok()) << cumulative.status();
    const Relation& detected = clean_on_ingest ? (*stream)->relation() : prefix;
    auto one_shot = own_cache ? DetectErrors(detected, rules, options)
                              : engine.Detect(detected, rules, options);
    ASSERT_TRUE(one_shot.ok());
    const std::string label = "batch " + std::to_string(batch_number) +
                              " (rows 0.." + std::to_string(begin + size) +
                              ")";
    ASSERT_EQ(Fingerprint(cumulative.value()), Fingerprint(one_shot.value()))
        << label;
    ExpectSameAsReference(
        cumulative.value(),
        ReferenceDetectErrors((*stream)->relation(), rules).value(), label);
    begin += size;
    ++batch_number;
  }
  EXPECT_EQ((*stream)->relation().num_rows(), relation.num_rows());
  EXPECT_EQ((*stream)->num_batches(), batch_number);
}

TEST(DetectionStreamTest, AppendBatchMatchesReferenceOnEveryCleaningTable) {
  // The six tables the end-to-end cleaning benchmark runs (phone and
  // compound at 1k rows, web at its 50), split at random, with and without
  // clean-on-ingest, at 1/2/4 threads and through a cache whose state
  // bound flushes every matcher automaton and every union.
  struct Config {
    size_t threads;
    size_t max_states;  // 0: the engine's cache
  };
  const Config configs[] = {{1, 0}, {2, 0}, {4, 0}, {4, 3}};
  for (const Dataset& d : CleaningTables()) {
    const std::vector<Pfd> rules = DiscoverRules(d.relation);
    ASSERT_FALSE(rules.empty()) << d.name;
    for (const Config& config : configs) {
      SCOPED_TRACE(d.name + ", " + std::to_string(config.threads) +
                   " threads, state bound " +
                   std::to_string(config.max_states));
      DetectorOptions options;
      options.execution.num_threads = config.threads;
      if (config.max_states != 0) {
        options.automata =
            std::make_shared<AutomatonCache>(config.max_states);
      }
      for (const bool clean : {false, true}) {
        CheckStreamEquivalence(d.relation, rules, options,
                               230 + config.threads, clean);
      }
      if (config.max_states != 0) {
        EXPECT_GT(options.automata->dispatch_stats().flushes, 0u);
      }
    }
  }
}

TEST(DetectionStreamTest, AppendBatchMatchesOneShotAcrossDatasets) {
  for (const Dataset& d : TestDatasets()) {
    const std::vector<Pfd> rules = DiscoverRules(d.relation);
    ASSERT_FALSE(rules.empty()) << d.name;
    CheckStreamEquivalence(d.relation, rules, DetectorOptions{}, 201);
  }
}

TEST(DetectionStreamTest, AppendBatchMatchesOneShotParallel) {
  const Dataset d = NameGenderDataset(700, 204, 0.05);
  const std::vector<Pfd> rules = DiscoverRules(d.relation);
  ASSERT_FALSE(rules.empty());
  DetectorOptions options;
  options.execution.num_threads = 4;
  CheckStreamEquivalence(d.relation, rules, options, 205);
}

TEST(DetectionStreamTest, CleanOnIngestMatchesOneShotOverCleanedRelation) {
  // The cumulative result of a cleaning stream — violations, candidate
  // rows and pairs checked — is one-shot detection over the relation the
  // stream accumulated, at every thread count.
  for (const Dataset& d : TestDatasets()) {
    const std::vector<Pfd> rules = DiscoverRules(d.relation);
    ASSERT_FALSE(rules.empty()) << d.name;
    for (size_t threads : {1, 2, 4}) {
      DetectorOptions options;
      options.execution.num_threads = threads;
      CheckStreamEquivalence(d.relation, rules, options, 210 + threads,
                             /*clean_on_ingest=*/true);
    }
  }
}

TEST(DetectionStreamTest, AppendRowsConvenience) {
  const Dataset d = ZipCityStateDataset(200, 206, 0.05);
  const std::vector<Pfd> rules = DiscoverRules(d.relation);
  ASSERT_FALSE(rules.empty());
  Engine engine;
  auto stream = engine.OpenStream(d.relation.schema(), rules);
  ASSERT_TRUE(stream.ok());
  std::vector<std::vector<std::string>> rows;
  for (RowId r = 0; r < d.relation.num_rows(); ++r) {
    rows.push_back(d.relation.Row(r));
  }
  auto cumulative = (*stream)->AppendRows(rows);
  ASSERT_TRUE(cumulative.ok());
  auto one_shot = engine.Detect(d.relation, rules);
  ASSERT_TRUE(one_shot.ok());
  EXPECT_EQ(Fingerprint(cumulative.value()), Fingerprint(one_shot.value()));
}

TEST(DetectionStreamTest, StreamOutlivesItsEngine) {
  // A stream co-owns the pool and the automaton cache of the engine that
  // opened it, so it keeps working after that engine is destroyed and its
  // cumulative results stay byte-identical to one-shot detection.
  const Dataset d = ZipCityStateDataset(600, 216, 0.04);
  const std::vector<Pfd> rules = DiscoverRules(d.relation);
  ASSERT_FALSE(rules.empty());

  const RowId half = static_cast<RowId>(d.relation.num_rows() / 2);
  std::unique_ptr<DetectionStream> stream;
  {
    Engine engine(ExecutionOptions{4, true, nullptr});
    auto opened = engine.OpenStream(d.relation.schema(), rules);
    ASSERT_TRUE(opened.ok()) << opened.status();
    stream = std::move(opened).value();
    ASSERT_TRUE(stream->AppendBatch(d.relation.Slice(0, half).value()).ok());
  }

  auto second = stream->AppendBatch(
      d.relation
          .Slice(half, static_cast<RowId>(d.relation.num_rows()))
          .value());
  ASSERT_TRUE(second.ok()) << second.status();
  auto one_shot = Engine().Detect(d.relation, rules);
  ASSERT_TRUE(one_shot.ok());
  EXPECT_EQ(Fingerprint(second.value()), Fingerprint(one_shot.value()));
}

TEST(DetectionStreamTest, RejectsSchemaMismatch) {
  const Dataset d = ZipCityStateDataset(100, 208, 0.0);
  const std::vector<Pfd> rules = DiscoverRules(d.relation);
  ASSERT_FALSE(rules.empty());
  Engine engine;
  auto stream = engine.OpenStream(d.relation.schema(), rules);
  ASSERT_TRUE(stream.ok());
  const Dataset other = NameGenderDataset(50, 209, 0.0);
  EXPECT_FALSE((*stream)->AppendBatch(other.relation).ok());
}

TEST(DetectionStreamTest, RejectsUnknownAttribute) {
  const Dataset d = ZipCityStateDataset(100, 210, 0.0);
  std::vector<Pfd> rules = DiscoverRules(d.relation);
  ASSERT_FALSE(rules.empty());
  const Dataset other = NameGenderDataset(50, 211, 0.0);
  Engine engine;
  // Zip rules cannot validate against the name/gender schema.
  auto stream = engine.OpenStream(other.relation.schema(), rules);
  EXPECT_FALSE(stream.ok());
}

// -- Clean-on-ingest (streaming repair mode) -------------------------------

/// Streams `relation` through a clean-on-ingest stream (constant rules
/// only) in fixed-size batches and checks, per batch, that the applied
/// repairs are exactly the confident constant-rule suggestions one-shot
/// detection produces for the raw batch, and that the stream accumulates
/// the *cleaned* rows.
void CheckCleanOnIngest(const Relation& relation,
                        const std::vector<Pfd>& rules, RowId batch_rows) {
  Engine engine;
  auto stream = engine.OpenStream(relation.schema(), rules);
  ASSERT_TRUE(stream.ok()) << stream.status();
  (*stream)->set_clean_on_ingest(true);
  (*stream)->set_clean_variable_rules(false);

  Relation cleaned_prefix(relation.schema());
  size_t total_repairs = 0;
  for (RowId begin = 0; begin < relation.num_rows(); begin += batch_rows) {
    const RowId end =
        std::min<RowId>(begin + batch_rows, relation.num_rows());
    auto batch = relation.Slice(begin, end);
    ASSERT_TRUE(batch.ok());

    // Reference: the confident constant-rule suggestions for this batch.
    auto batch_detection = engine.Detect(batch.value(), rules);
    ASSERT_TRUE(batch_detection.ok());
    std::map<CellRef, std::set<std::string>> suggested;
    for (const Violation& v : batch_detection->violations) {
      if (v.kind == ViolationKind::kConstant && !v.suggested_repair.empty()) {
        suggested[v.suspect].insert(v.suggested_repair);
      }
    }

    auto cumulative = (*stream)->AppendBatch(batch.value());
    ASSERT_TRUE(cumulative.ok()) << cumulative.status();

    // Build the expected cleaned batch and compare cell by cell.
    Relation expected = batch.value();
    size_t expected_repairs = 0;
    for (const auto& [cell, repairs] : suggested) {
      if (repairs.size() != 1) continue;  // conflicting suggestions: skip
      if (expected.cell(cell.row, cell.column) == *repairs.begin()) continue;
      expected.set_cell(cell.row, cell.column, *repairs.begin());
      ++expected_repairs;
    }
    EXPECT_EQ((*stream)->batch_repairs().size(), expected_repairs);
    for (const AppliedRepair& r : (*stream)->batch_repairs()) {
      EXPECT_GE(r.cell.row, begin);  // stream coordinates
      EXPECT_EQ(r.after,
                (*stream)->relation().cell(r.cell.row, r.cell.column));
    }
    for (RowId r = 0; r < expected.num_rows(); ++r) {
      ASSERT_TRUE(cleaned_prefix.AppendRow(expected.Row(r)).ok());
    }
    total_repairs += expected_repairs;
    EXPECT_EQ((*stream)->repairs().size(), total_repairs);

    // The stream accumulated the cleaned rows, and the cumulative result
    // is detection over them.
    ASSERT_EQ(Fingerprint((*stream)->relation()),
              Fingerprint(cleaned_prefix));
    auto one_shot = engine.Detect(cleaned_prefix, rules);
    ASSERT_TRUE(one_shot.ok());
    ASSERT_EQ(Fingerprint(cumulative.value()), Fingerprint(one_shot.value()));
  }
  EXPECT_GT(total_repairs, 0u);
}

TEST(DetectionStreamTest, CleanOnIngestAppliesConstantRepairs) {
  const Dataset d = ZipCityStateDataset(1500, 301, 0.04);
  const std::vector<Pfd> rules = DiscoverRules(d.relation);
  ASSERT_FALSE(rules.empty());
  CheckCleanOnIngest(d.relation, rules, 211);
}

TEST(DetectionStreamTest, CleanOnIngestOffByDefaultAndToggleable) {
  const Dataset d = PaperZipTable();
  // λ3 of the paper: zips matching (900)!\D{2} have city "Los Angeles".
  Tableau tableau;
  TableauRow row;
  row.lhs.push_back(TableauCell::Of(
      ParseConstrainedPattern("(900)!\\D{2}").value()));
  row.rhs.push_back(TableauCell::Of(
      ParseConstrainedPattern("Los\\ Angeles").value()));
  tableau.AddRow(row);
  const std::vector<Pfd> rules = {
      Pfd::Simple("Zip", "zip", "city", tableau)};
  Engine engine;
  auto stream = engine.OpenStream(d.relation.schema(), rules);
  ASSERT_TRUE(stream.ok()) << stream.status();
  EXPECT_FALSE((*stream)->clean_on_ingest());

  // Off: the dirty row is absorbed as-is and keeps violating.
  auto first = (*stream)->AppendBatch(d.relation);
  ASSERT_TRUE(first.ok());
  EXPECT_TRUE((*stream)->batch_repairs().empty());
  EXPECT_FALSE(first->violations.empty());

  // On: a new dirty record is repaired on ingest and the cumulative
  // violation count does not grow.
  (*stream)->set_clean_on_ingest(true);
  auto second = (*stream)->AppendRows({{"90005", "Chicago"}});
  ASSERT_TRUE(second.ok());
  ASSERT_EQ((*stream)->batch_repairs().size(), 1u);
  const AppliedRepair& r = (*stream)->batch_repairs()[0];
  EXPECT_EQ(r.before, "Chicago");
  EXPECT_EQ(r.after, "Los Angeles");
  EXPECT_EQ(r.cell.row, d.relation.num_rows());  // stream coordinates
  EXPECT_EQ((*stream)->relation().cell(r.cell.row, 1), "Los Angeles");
  EXPECT_EQ(second->violations.size(), first->violations.size());
}

// -- Clean-on-ingest v2 (variable rules, cumulative majorities) ------------

/// Single-pass constant+variable repair over a copy of `relation` — the
/// one-shot reference for clean-on-ingest with variable rules enabled.
RepairResult OneShotSinglePass(const Relation& relation,
                               const std::vector<Pfd>& rules,
                               Relation* repaired) {
  *repaired = relation;
  RepairOptions options;
  options.max_passes = 1;
  auto result = RepairErrors(repaired, rules, options);
  EXPECT_TRUE(result.ok());
  return std::move(result).value();
}

/// Streams `relation` through a clean-on-ingest stream with variable
/// repairs enabled, split at randomized chunk boundaries, and checks the
/// majority-flip contract of detection_stream.h: while `conflicts()` is
/// empty the accumulated cleaned relation (and the applied repair count)
/// is byte-identical to a single-pass constant+variable `RepairErrors`
/// over the concatenation, and any divergence is covered by a surfaced
/// conflict.
void CheckVariableCleanOnIngest(const Relation& relation,
                                const std::vector<Pfd>& rules,
                                uint64_t seed) {
  Engine engine;
  auto stream = engine.OpenStream(relation.schema(), rules);
  ASSERT_TRUE(stream.ok()) << stream.status();
  (*stream)->set_clean_on_ingest(true);
  ASSERT_TRUE((*stream)->clean_variable_rules());  // the v2 default

  Rng rng(seed);
  RowId begin = 0;
  while (begin < relation.num_rows()) {
    const RowId remaining = static_cast<RowId>(relation.num_rows()) - begin;
    const RowId size = static_cast<RowId>(
        1 + rng.NextBelow(std::min<uint64_t>(remaining, 137)));
    auto batch = relation.Slice(begin, begin + size);
    ASSERT_TRUE(batch.ok());
    auto cumulative = (*stream)->AppendBatch(batch.value());
    ASSERT_TRUE(cumulative.ok()) << cumulative.status();
    begin += size;
  }

  Relation one_shot;
  const RepairResult reference = OneShotSinglePass(relation, rules, &one_shot);
  const bool identical =
      Fingerprint((*stream)->relation()) == Fingerprint(one_shot);
  if ((*stream)->conflicts().empty()) {
    EXPECT_TRUE(identical) << "no conflict surfaced but the cleaned stream "
                              "diverged from the one-shot pass (seed "
                           << seed << ")";
    EXPECT_EQ((*stream)->repairs().size(), reference.repairs.size());
  }
  if (!identical) {
    EXPECT_FALSE((*stream)->conflicts().empty())
        << "cleaned stream diverged from the one-shot pass without a "
           "surfaced conflict (seed "
        << seed << ")";
  }
}

TEST(DetectionStreamTest, VariableCleanOnIngestMatchesOneShotUnlessFlipped) {
  for (const Dataset& d : TestDatasets()) {
    const std::vector<Pfd> rules = DiscoverRules(d.relation);
    ASSERT_FALSE(rules.empty()) << d.name;
    for (uint64_t seed : {601, 602, 603}) {
      CheckVariableCleanOnIngest(d.relation, rules, seed);
    }
  }
}

TEST(DetectionStreamTest, VariableCleanOnIngestSingleBatchMatchesOneShot) {
  // With the whole relation in one batch there are no absorbed rows to
  // diverge from, so the cleaned batch must equal the one-shot single pass
  // exactly — constant and variable repairs both — with no conflicts.
  const Dataset d = NameGenderDataset(800, 604, 0.05);
  const std::vector<Pfd> rules = DiscoverRules(d.relation);
  ASSERT_FALSE(rules.empty());
  Engine engine;
  auto stream = engine.OpenStream(d.relation.schema(), rules);
  ASSERT_TRUE(stream.ok()) << stream.status();
  (*stream)->set_clean_on_ingest(true);
  ASSERT_TRUE((*stream)->AppendBatch(d.relation).ok());

  Relation one_shot;
  const RepairResult reference =
      OneShotSinglePass(d.relation, rules, &one_shot);
  EXPECT_GT(reference.repairs.size(), 0u);
  EXPECT_TRUE((*stream)->conflicts().empty());
  EXPECT_EQ((*stream)->repairs().size(), reference.repairs.size());
  EXPECT_EQ(Fingerprint((*stream)->relation()), Fingerprint(one_shot));
}

TEST(DetectionStreamTest, VariableCleanOnIngestAppliesCumulativeMajority) {
  // Variable rule: two-digit codes determine val. A later batch's dirty
  // record must be repaired with the *cumulative* majority — which a
  // batch-local majority (2 dirty rows vs 1 clean) would get wrong.
  Tableau tableau;
  TableauRow row;
  row.lhs.push_back(TableauCell::Of(
      ParseConstrainedPattern("(\\D{2})!").value()));
  row.rhs.push_back(TableauCell::Wildcard());
  tableau.AddRow(row);
  const std::vector<Pfd> rules = {Pfd::Simple("T", "code", "val", tableau)};

  auto schema = Schema::MakeText({"code", "val"});
  ASSERT_TRUE(schema.ok());
  Engine engine;
  auto stream = engine.OpenStream(schema.value(), rules);
  ASSERT_TRUE(stream.ok()) << stream.status();
  (*stream)->set_clean_on_ingest(true);

  ASSERT_TRUE(
      (*stream)->AppendRows({{"11", "A"}, {"11", "A"}, {"11", "A"}}).ok());
  EXPECT_TRUE((*stream)->batch_repairs().empty());

  // Batch-local majority would be B (2 vs 1); the cumulative majority is A.
  ASSERT_TRUE(
      (*stream)->AppendRows({{"11", "B"}, {"11", "B"}, {"11", "A"}}).ok());
  ASSERT_EQ((*stream)->batch_repairs().size(), 2u);
  for (const AppliedRepair& r : (*stream)->batch_repairs()) {
    EXPECT_EQ(r.before, "B");
    EXPECT_EQ(r.after, "A");
  }
  EXPECT_TRUE((*stream)->conflicts().empty());
  for (RowId r = 0; r < (*stream)->relation().num_rows(); ++r) {
    EXPECT_EQ((*stream)->relation().cell(r, 1), "A");
  }
}

TEST(DetectionStreamTest, VariableCleanOnIngestSurfacesMajorityFlip) {
  Tableau tableau;
  TableauRow row;
  row.lhs.push_back(TableauCell::Of(
      ParseConstrainedPattern("(\\D{2})!").value()));
  row.rhs.push_back(TableauCell::Wildcard());
  tableau.AddRow(row);
  const std::vector<Pfd> rules = {Pfd::Simple("T", "code", "val", tableau)};

  auto schema = Schema::MakeText({"code", "val"});
  ASSERT_TRUE(schema.ok());
  Engine engine;
  auto stream = engine.OpenStream(schema.value(), rules);
  ASSERT_TRUE(stream.ok()) << stream.status();
  (*stream)->set_clean_on_ingest(true);

  // Batch 1: majority A repairs the lone B.
  ASSERT_TRUE(
      (*stream)->AppendRows({{"11", "A"}, {"11", "A"}, {"11", "B"}}).ok());
  ASSERT_EQ((*stream)->batch_repairs().size(), 1u);
  EXPECT_EQ((*stream)->batch_repairs()[0].after, "A");
  EXPECT_TRUE((*stream)->batch_conflicts().empty());

  // Batch 2 flips the dirty majority to B (A,A,B + B,B,B). The stream's
  // cleaned view ties (A,A,A vs B,B,B) and keeps A; the absorbed rows are
  // not retroactively edited and the flip is surfaced as conflicts.
  ASSERT_TRUE(
      (*stream)->AppendRows({{"11", "B"}, {"11", "B"}, {"11", "B"}}).ok());
  EXPECT_FALSE((*stream)->batch_conflicts().empty());
  bool flip_seen = false;
  for (const StreamConflict& c : (*stream)->conflicts()) {
    if (c.kind == StreamConflict::Kind::kMajorityFlip) flip_seen = true;
    EXPECT_EQ(c.batch, 1u);
  }
  EXPECT_TRUE(flip_seen);

  // The one-shot pass resolves the dirty majority (B) instead — the
  // divergence the conflicts just flagged.
  Relation one_shot;
  OneShotSinglePass((*stream)->relation(), rules, &one_shot);
  Relation dirty(schema.value());
  for (const auto& r : std::vector<std::vector<std::string>>{
           {"11", "A"}, {"11", "A"}, {"11", "B"},
           {"11", "B"}, {"11", "B"}, {"11", "B"}}) {
    ASSERT_TRUE(dirty.AppendRow(r).ok());
  }
  Relation one_shot_dirty;
  OneShotSinglePass(dirty, rules, &one_shot_dirty);
  EXPECT_NE(Fingerprint((*stream)->relation()),
            Fingerprint(one_shot_dirty));
  for (RowId r = 0; r < (*stream)->relation().num_rows(); ++r) {
    EXPECT_EQ((*stream)->relation().cell(r, 1), "A");
    EXPECT_EQ(one_shot_dirty.cell(r, 1), "B");
  }
}

std::string Fingerprint(const StreamConflict& c) {
  static const char* const kKinds[] = {"flip", "retro", "key"};
  std::ostringstream out;
  out << kKinds[static_cast<int>(c.kind)] << " " << c.cell.row << ","
      << c.cell.column << " " << c.current << "->" << c.expected << " pfd"
      << c.pfd_index << " b" << c.batch;
  return out.str();
}

std::string Fingerprint(const AppliedRepair& r) {
  std::ostringstream out;
  out << r.cell.row << "," << r.cell.column << " " << r.before << "->"
      << r.after << " b" << r.pass << " pfd" << r.pfd_index;
  return out.str();
}

TEST(DetectionStreamTest, GoldenMajorityFlipsAcrossBatches) {
  // One variable rule (two-digit codes determine val) and one constant
  // rule on the same RHS column (codes 3x have val C), over six batches:
  //  * group 11's dirty majority goes A -> B -> A -> B, so its absorbed
  //    members are walked again under each new majority,
  //  * group 22 grows in every batch while its majority stays X, so only
  //    its newly absorbed members need a look,
  //  * group 44 is untouched from batch 1 to batch 4, then flips,
  //  * group 55 is walked under a steady majority A in batch 1, then
  //    flips to B, so members walked before must be walked again,
  //  * group 33 mixes constant and variable suggestions.
  // Batch 4 is absorbed without cleaning, so batch 5 folds dirty rows it
  // never cleaned. A plain stream beside it pins the detection side
  // (group violations, pairs) as majorities move. Every conflict, repair
  // and cumulative result is pinned, batch by batch.
  Tableau variable;
  TableauRow vrow;
  vrow.lhs.push_back(
      TableauCell::Of(ParseConstrainedPattern("(\\D{2})!").value()));
  vrow.rhs.push_back(TableauCell::Wildcard());
  variable.AddRow(vrow);
  Tableau constant;
  TableauRow crow;
  crow.lhs.push_back(
      TableauCell::Of(ParseConstrainedPattern("(3)!\\D").value()));
  crow.rhs.push_back(TableauCell::Of(ParseConstrainedPattern("C").value()));
  constant.AddRow(crow);
  const std::vector<Pfd> rules = {Pfd::Simple("T", "code", "val", variable),
                                  Pfd::Simple("T", "code", "val", constant)};

  const std::vector<std::vector<std::vector<std::string>>> batches = {
      {{"11", "A"}, {"11", "A"}, {"11", "B"}, {"22", "X"}, {"22", "X"},
       {"33", "C"}, {"33", "C"}, {"33", "D"}, {"44", "P"}, {"44", "P"},
       {"44", "Q"}, {"55", "A"}, {"55", "A"}, {"55", "B"}},
      {{"11", "B"}, {"11", "B"}, {"11", "B"}, {"22", "Y"}, {"22", "X"},
       {"7", "K"}, {"55", "A"}},
      {{"11", "A"}, {"11", "A"}, {"11", "A"}, {"11", "A"}, {"22", "X"},
       {"22", "Z"}, {"55", "B"}, {"55", "B"}, {"55", "B"}, {"55", "B"}},
      {{"11", "B"}, {"11", "B"}, {"11", "B"}, {"11", "B"}, {"11", "B"},
       {"22", "X"}, {"33", "D"}, {"33", "D"}, {"33", "D"}},
      {{"22", "Y"}, {"22", "Y"}, {"11", "A"}},
      {{"44", "Q"}, {"44", "Q"}, {"44", "Q"}, {"22", "X"}},
  };

  // Per batch: the conflicts and repairs it added, then the cumulative
  // results of the cleaning stream and of the plain one.
  struct Expected {
    const char* new_conflicts;
    const char* new_repairs;
    const char* cleaned;
    const char* plain;
  };
  const Expected expected[] = {
      {// batch 0
          "",
          "2,1 B->A b0 pfd0\n"
          "7,1 D->C b0 pfd1\n"
          "10,1 Q->P b0 pfd0\n"
          "13,1 B->A b0 pfd0\n",
          "scanned=28 candidates=17 pairs=0 violations=0\n",
          "scanned=28 candidates=17 pairs=12 violations=5\n"
          "V|0|0|2,0;2,1;0,0;0,1;|2,1|A|rows 2 and 0 agree on the constrained "
          "part of the LHS but disagree on val (\"B\" vs \"A\")\n"
          "V|0|0|7,0;7,1;5,0;5,1;|7,1|C|rows 7 and 5 agree on the constrained "
          "part of the LHS but disagree on val (\"D\" vs \"C\")\n"
          "V|0|0|10,0;10,1;8,0;8,1;|10,1|P|rows 10 and 8 agree on the "
          "constrained part of the LHS but disagree on val (\"Q\" vs \"P\")\n"
          "V|0|0|13,0;13,1;11,0;11,1;|13,1|A|rows 13 and 11 agree on the "
          "constrained part of the LHS but disagree on val (\"B\" vs \"A\")\n"
          "C|1|0|7,0;7,1;|7,1|C|code = \"33\" matches (3)!\\D but val = \"D\" "
          "!= \"C\"\n"},
      {// batch 1
          "retro 0,1 A->B pfd0 b1\n"
          "retro 1,1 A->B pfd0 b1\n"
          "retro 2,1 A->B pfd0 b1\n"
          "flip 14,1 A->B pfd0 b1\n"
          "flip 15,1 A->B pfd0 b1\n"
          "flip 16,1 A->B pfd0 b1\n",
          "14,1 B->A b1 pfd0\n"
          "15,1 B->A b1 pfd0\n"
          "16,1 B->A b1 pfd0\n"
          "17,1 Y->X b1 pfd0\n",
          "scanned=42 candidates=23 pairs=0 violations=0\n",
          "scanned=42 candidates=23 pairs=33 violations=7\n"
          "V|0|0|0,0;0,1;2,0;2,1;|0,1|B|rows 0 and 2 agree on the constrained "
          "part of the LHS but disagree on val (\"A\" vs \"B\")\n"
          "V|0|0|1,0;1,1;2,0;2,1;|1,1|B|rows 1 and 2 agree on the constrained "
          "part of the LHS but disagree on val (\"A\" vs \"B\")\n"
          "V|0|0|7,0;7,1;5,0;5,1;|7,1|C|rows 7 and 5 agree on the constrained "
          "part of the LHS but disagree on val (\"D\" vs \"C\")\n"
          "V|0|0|10,0;10,1;8,0;8,1;|10,1|P|rows 10 and 8 agree on the "
          "constrained part of the LHS but disagree on val (\"Q\" vs \"P\")\n"
          "V|0|0|13,0;13,1;11,0;11,1;|13,1|A|rows 13 and 11 agree on the "
          "constrained part of the LHS but disagree on val (\"B\" vs \"A\")\n"
          "V|0|0|17,0;17,1;3,0;3,1;|17,1|X|rows 17 and 3 agree on the "
          "constrained part of the LHS but disagree on val (\"Y\" vs \"X\")\n"
          "C|1|0|7,0;7,1;|7,1|C|code = \"33\" matches (3)!\\D but val = \"D\" "
          "!= \"C\"\n"},
      {// batch 2
          "retro 11,1 A->B pfd0 b2\n"
          "retro 12,1 A->B pfd0 b2\n"
          "retro 13,1 A->B pfd0 b2\n"
          "retro 20,1 A->B pfd0 b2\n"
          "flip 27,1 A->B pfd0 b2\n"
          "flip 28,1 A->B pfd0 b2\n"
          "flip 29,1 A->B pfd0 b2\n"
          "flip 30,1 A->B pfd0 b2\n",
          "26,1 Z->X b2 pfd0\n"
          "27,1 B->A b2 pfd0\n"
          "28,1 B->A b2 pfd0\n"
          "29,1 B->A b2 pfd0\n"
          "30,1 B->A b2 pfd0\n",
          "scanned=62 candidates=33 pairs=0 violations=0\n",
          "scanned=62 candidates=33 pairs=94 violations=12\n"
          "V|0|0|2,0;2,1;0,0;0,1;|2,1|A|rows 2 and 0 agree on the constrained "
          "part of the LHS but disagree on val (\"B\" vs \"A\")\n"
          "V|0|0|7,0;7,1;5,0;5,1;|7,1|C|rows 7 and 5 agree on the constrained "
          "part of the LHS but disagree on val (\"D\" vs \"C\")\n"
          "V|0|0|10,0;10,1;8,0;8,1;|10,1|P|rows 10 and 8 agree on the "
          "constrained part of the LHS but disagree on val (\"Q\" vs \"P\")\n"
          "V|0|0|11,0;11,1;13,0;13,1;|11,1|B|rows 11 and 13 agree on the "
          "constrained part of the LHS but disagree on val (\"A\" vs \"B\")\n"
          "V|0|0|12,0;12,1;13,0;13,1;|12,1|B|rows 12 and 13 agree on the "
          "constrained part of the LHS but disagree on val (\"A\" vs \"B\")\n"
          "V|0|0|14,0;14,1;0,0;0,1;|14,1|A|rows 14 and 0 agree on the "
          "constrained part of the LHS but disagree on val (\"B\" vs \"A\")\n"
          "V|0|0|15,0;15,1;0,0;0,1;|15,1|A|rows 15 and 0 agree on the "
          "constrained part of the LHS but disagree on val (\"B\" vs \"A\")\n"
          "V|0|0|16,0;16,1;0,0;0,1;|16,1|A|rows 16 and 0 agree on the "
          "constrained part of the LHS but disagree on val (\"B\" vs \"A\")\n"
          "V|0|0|17,0;17,1;3,0;3,1;|17,1|X|rows 17 and 3 agree on the "
          "constrained part of the LHS but disagree on val (\"Y\" vs \"X\")\n"
          "V|0|0|20,0;20,1;13,0;13,1;|20,1|B|rows 20 and 13 agree on the "
          "constrained part of the LHS but disagree on val (\"A\" vs \"B\")\n"
          "V|0|0|26,0;26,1;3,0;3,1;|26,1|X|rows 26 and 3 agree on the "
          "constrained part of the LHS but disagree on val (\"Z\" vs \"X\")\n"
          "C|1|0|7,0;7,1;|7,1|C|code = \"33\" matches (3)!\\D but val = \"D\" "
          "!= \"C\"\n"},
      {// batch 3
          "retro 21,1 A->B pfd0 b3\n"
          "retro 22,1 A->B pfd0 b3\n"
          "retro 23,1 A->B pfd0 b3\n"
          "retro 24,1 A->B pfd0 b3\n"
          "retro 5,1 C->D pfd0 b3\n"
          "retro 6,1 C->D pfd0 b3\n"
          "retro 7,1 C->D pfd0 b3\n"
          "flip 31,1 A->B pfd0 b3\n"
          "flip 32,1 A->B pfd0 b3\n"
          "flip 33,1 A->B pfd0 b3\n"
          "flip 34,1 A->B pfd0 b3\n"
          "flip 35,1 A->B pfd0 b3\n",
          "31,1 B->A b3 pfd0\n"
          "32,1 B->A b3 pfd0\n"
          "33,1 B->A b3 pfd0\n"
          "34,1 B->A b3 pfd0\n"
          "35,1 B->A b3 pfd0\n"
          "37,1 D->C b3 pfd1\n"
          "38,1 D->C b3 pfd1\n"
          "39,1 D->C b3 pfd1\n",
          "scanned=80 candidates=45 pairs=0 violations=0\n",
          "scanned=80 candidates=45 pairs=172 violations=18\n"
          "V|0|0|0,0;0,1;2,0;2,1;|0,1|B|rows 0 and 2 agree on the constrained "
          "part of the LHS but disagree on val (\"A\" vs \"B\")\n"
          "V|0|0|1,0;1,1;2,0;2,1;|1,1|B|rows 1 and 2 agree on the constrained "
          "part of the LHS but disagree on val (\"A\" vs \"B\")\n"
          "V|0|0|5,0;5,1;7,0;7,1;|5,1|D|rows 5 and 7 agree on the constrained "
          "part of the LHS but disagree on val (\"C\" vs \"D\")\n"
          "V|0|0|6,0;6,1;7,0;7,1;|6,1|D|rows 6 and 7 agree on the constrained "
          "part of the LHS but disagree on val (\"C\" vs \"D\")\n"
          "V|0|0|10,0;10,1;8,0;8,1;|10,1|P|rows 10 and 8 agree on the "
          "constrained part of the LHS but disagree on val (\"Q\" vs \"P\")\n"
          "V|0|0|11,0;11,1;13,0;13,1;|11,1|B|rows 11 and 13 agree on the "
          "constrained part of the LHS but disagree on val (\"A\" vs \"B\")\n"
          "V|0|0|12,0;12,1;13,0;13,1;|12,1|B|rows 12 and 13 agree on the "
          "constrained part of the LHS but disagree on val (\"A\" vs \"B\")\n"
          "V|0|0|17,0;17,1;3,0;3,1;|17,1|X|rows 17 and 3 agree on the "
          "constrained part of the LHS but disagree on val (\"Y\" vs \"X\")\n"
          "V|0|0|20,0;20,1;13,0;13,1;|20,1|B|rows 20 and 13 agree on the "
          "constrained part of the LHS but disagree on val (\"A\" vs \"B\")\n"
          "V|0|0|21,0;21,1;2,0;2,1;|21,1|B|rows 21 and 2 agree on the "
          "constrained part of the LHS but disagree on val (\"A\" vs \"B\")\n"
          "V|0|0|22,0;22,1;2,0;2,1;|22,1|B|rows 22 and 2 agree on the "
          "constrained part of the LHS but disagree on val (\"A\" vs \"B\")\n"
          "V|0|0|23,0;23,1;2,0;2,1;|23,1|B|rows 23 and 2 agree on the "
          "constrained part of the LHS but disagree on val (\"A\" vs \"B\")\n"
          "V|0|0|24,0;24,1;2,0;2,1;|24,1|B|rows 24 and 2 agree on the "
          "constrained part of the LHS but disagree on val (\"A\" vs \"B\")\n"
          "V|0|0|26,0;26,1;3,0;3,1;|26,1|X|rows 26 and 3 agree on the "
          "constrained part of the LHS but disagree on val (\"Z\" vs \"X\")\n"
          "C|1|0|7,0;7,1;|7,1|C|code = \"33\" matches (3)!\\D but val = \"D\" "
          "!= \"C\"\n"
          "C|1|0|37,0;37,1;|37,1|C|code = \"33\" matches (3)!\\D but val = "
          "\"D\" != \"C\"\n"
          "C|1|0|38,0;38,1;|38,1|C|code = \"33\" matches (3)!\\D but val = "
          "\"D\" != \"C\"\n"
          "C|1|0|39,0;39,1;|39,1|C|code = \"33\" matches (3)!\\D but val = "
          "\"D\" != \"C\"\n"},
      {// batch 4
          "",
          "",
          "scanned=86 candidates=48 pairs=36 violations=2\n"
          "V|0|0|40,0;40,1;3,0;3,1;|40,1|X|rows 40 and 3 agree on the "
          "constrained part of the LHS but disagree on val (\"Y\" vs \"X\")\n"
          "V|0|0|41,0;41,1;3,0;3,1;|41,1|X|rows 41 and 3 agree on the "
          "constrained part of the LHS but disagree on val (\"Y\" vs \"X\")\n",
          "scanned=86 candidates=48 pairs=202 violations=21\n"
          "V|0|0|0,0;0,1;2,0;2,1;|0,1|B|rows 0 and 2 agree on the constrained "
          "part of the LHS but disagree on val (\"A\" vs \"B\")\n"
          "V|0|0|1,0;1,1;2,0;2,1;|1,1|B|rows 1 and 2 agree on the constrained "
          "part of the LHS but disagree on val (\"A\" vs \"B\")\n"
          "V|0|0|5,0;5,1;7,0;7,1;|5,1|D|rows 5 and 7 agree on the constrained "
          "part of the LHS but disagree on val (\"C\" vs \"D\")\n"
          "V|0|0|6,0;6,1;7,0;7,1;|6,1|D|rows 6 and 7 agree on the constrained "
          "part of the LHS but disagree on val (\"C\" vs \"D\")\n"
          "V|0|0|10,0;10,1;8,0;8,1;|10,1|P|rows 10 and 8 agree on the "
          "constrained part of the LHS but disagree on val (\"Q\" vs \"P\")\n"
          "V|0|0|11,0;11,1;13,0;13,1;|11,1|B|rows 11 and 13 agree on the "
          "constrained part of the LHS but disagree on val (\"A\" vs \"B\")\n"
          "V|0|0|12,0;12,1;13,0;13,1;|12,1|B|rows 12 and 13 agree on the "
          "constrained part of the LHS but disagree on val (\"A\" vs \"B\")\n"
          "V|0|0|17,0;17,1;3,0;3,1;|17,1|X|rows 17 and 3 agree on the "
          "constrained part of the LHS but disagree on val (\"Y\" vs \"X\")\n"
          "V|0|0|20,0;20,1;13,0;13,1;|20,1|B|rows 20 and 13 agree on the "
          "constrained part of the LHS but disagree on val (\"A\" vs \"B\")\n"
          "V|0|0|21,0;21,1;2,0;2,1;|21,1|B|rows 21 and 2 agree on the "
          "constrained part of the LHS but disagree on val (\"A\" vs \"B\")\n"
          "V|0|0|22,0;22,1;2,0;2,1;|22,1|B|rows 22 and 2 agree on the "
          "constrained part of the LHS but disagree on val (\"A\" vs \"B\")\n"
          "V|0|0|23,0;23,1;2,0;2,1;|23,1|B|rows 23 and 2 agree on the "
          "constrained part of the LHS but disagree on val (\"A\" vs \"B\")\n"
          "V|0|0|24,0;24,1;2,0;2,1;|24,1|B|rows 24 and 2 agree on the "
          "constrained part of the LHS but disagree on val (\"A\" vs \"B\")\n"
          "V|0|0|26,0;26,1;3,0;3,1;|26,1|X|rows 26 and 3 agree on the "
          "constrained part of the LHS but disagree on val (\"Z\" vs \"X\")\n"
          "V|0|0|40,0;40,1;3,0;3,1;|40,1|X|rows 40 and 3 agree on the "
          "constrained part of the LHS but disagree on val (\"Y\" vs \"X\")\n"
          "V|0|0|41,0;41,1;3,0;3,1;|41,1|X|rows 41 and 3 agree on the "
          "constrained part of the LHS but disagree on val (\"Y\" vs \"X\")\n"
          "V|0|0|42,0;42,1;2,0;2,1;|42,1|B|rows 42 and 2 agree on the "
          "constrained part of the LHS but disagree on val (\"A\" vs \"B\")\n"
          "C|1|0|7,0;7,1;|7,1|C|code = \"33\" matches (3)!\\D but val = \"D\" "
          "!= \"C\"\n"
          "C|1|0|37,0;37,1;|37,1|C|code = \"33\" matches (3)!\\D but val = "
          "\"D\" != \"C\"\n"
          "C|1|0|38,0;38,1;|38,1|C|code = \"33\" matches (3)!\\D but val = "
          "\"D\" != \"C\"\n"
          "C|1|0|39,0;39,1;|39,1|C|code = \"33\" matches (3)!\\D but val = "
          "\"D\" != \"C\"\n"},
      {// batch 5
          "retro 40,1 Y->X pfd0 b5\n"
          "retro 41,1 Y->X pfd0 b5\n"
          "retro 8,1 P->Q pfd0 b5\n"
          "retro 9,1 P->Q pfd0 b5\n"
          "retro 10,1 P->Q pfd0 b5\n"
          "flip 43,1 P->Q pfd0 b5\n"
          "flip 44,1 P->Q pfd0 b5\n"
          "flip 45,1 P->Q pfd0 b5\n",
          "43,1 Q->P b5 pfd0\n"
          "44,1 Q->P b5 pfd0\n"
          "45,1 Q->P b5 pfd0\n",
          "scanned=94 candidates=52 pairs=45 violations=2\n"
          "V|0|0|40,0;40,1;3,0;3,1;|40,1|X|rows 40 and 3 agree on the "
          "constrained part of the LHS but disagree on val (\"Y\" vs \"X\")\n"
          "V|0|0|41,0;41,1;3,0;3,1;|41,1|X|rows 41 and 3 agree on the "
          "constrained part of the LHS but disagree on val (\"Y\" vs \"X\")\n",
          "scanned=94 candidates=52 pairs=223 violations=22\n"
          "V|0|0|0,0;0,1;2,0;2,1;|0,1|B|rows 0 and 2 agree on the constrained "
          "part of the LHS but disagree on val (\"A\" vs \"B\")\n"
          "V|0|0|1,0;1,1;2,0;2,1;|1,1|B|rows 1 and 2 agree on the constrained "
          "part of the LHS but disagree on val (\"A\" vs \"B\")\n"
          "V|0|0|5,0;5,1;7,0;7,1;|5,1|D|rows 5 and 7 agree on the constrained "
          "part of the LHS but disagree on val (\"C\" vs \"D\")\n"
          "V|0|0|6,0;6,1;7,0;7,1;|6,1|D|rows 6 and 7 agree on the constrained "
          "part of the LHS but disagree on val (\"C\" vs \"D\")\n"
          "V|0|0|8,0;8,1;10,0;10,1;|8,1|Q|rows 8 and 10 agree on the "
          "constrained part of the LHS but disagree on val (\"P\" vs \"Q\")\n"
          "V|0|0|9,0;9,1;10,0;10,1;|9,1|Q|rows 9 and 10 agree on the "
          "constrained part of the LHS but disagree on val (\"P\" vs \"Q\")\n"
          "V|0|0|11,0;11,1;13,0;13,1;|11,1|B|rows 11 and 13 agree on the "
          "constrained part of the LHS but disagree on val (\"A\" vs \"B\")\n"
          "V|0|0|12,0;12,1;13,0;13,1;|12,1|B|rows 12 and 13 agree on the "
          "constrained part of the LHS but disagree on val (\"A\" vs \"B\")\n"
          "V|0|0|17,0;17,1;3,0;3,1;|17,1|X|rows 17 and 3 agree on the "
          "constrained part of the LHS but disagree on val (\"Y\" vs \"X\")\n"
          "V|0|0|20,0;20,1;13,0;13,1;|20,1|B|rows 20 and 13 agree on the "
          "constrained part of the LHS but disagree on val (\"A\" vs \"B\")\n"
          "V|0|0|21,0;21,1;2,0;2,1;|21,1|B|rows 21 and 2 agree on the "
          "constrained part of the LHS but disagree on val (\"A\" vs \"B\")\n"
          "V|0|0|22,0;22,1;2,0;2,1;|22,1|B|rows 22 and 2 agree on the "
          "constrained part of the LHS but disagree on val (\"A\" vs \"B\")\n"
          "V|0|0|23,0;23,1;2,0;2,1;|23,1|B|rows 23 and 2 agree on the "
          "constrained part of the LHS but disagree on val (\"A\" vs \"B\")\n"
          "V|0|0|24,0;24,1;2,0;2,1;|24,1|B|rows 24 and 2 agree on the "
          "constrained part of the LHS but disagree on val (\"A\" vs \"B\")\n"
          "V|0|0|26,0;26,1;3,0;3,1;|26,1|X|rows 26 and 3 agree on the "
          "constrained part of the LHS but disagree on val (\"Z\" vs \"X\")\n"
          "V|0|0|40,0;40,1;3,0;3,1;|40,1|X|rows 40 and 3 agree on the "
          "constrained part of the LHS but disagree on val (\"Y\" vs \"X\")\n"
          "V|0|0|41,0;41,1;3,0;3,1;|41,1|X|rows 41 and 3 agree on the "
          "constrained part of the LHS but disagree on val (\"Y\" vs \"X\")\n"
          "V|0|0|42,0;42,1;2,0;2,1;|42,1|B|rows 42 and 2 agree on the "
          "constrained part of the LHS but disagree on val (\"A\" vs \"B\")\n"
          "C|1|0|7,0;7,1;|7,1|C|code = \"33\" matches (3)!\\D but val = \"D\" "
          "!= \"C\"\n"
          "C|1|0|37,0;37,1;|37,1|C|code = \"33\" matches (3)!\\D but val = "
          "\"D\" != \"C\"\n"
          "C|1|0|38,0;38,1;|38,1|C|code = \"33\" matches (3)!\\D but val = "
          "\"D\" != \"C\"\n"
          "C|1|0|39,0;39,1;|39,1|C|code = \"33\" matches (3)!\\D but val = "
          "\"D\" != \"C\"\n"},
  };
  ASSERT_EQ(std::size(expected), batches.size());

  auto schema = Schema::MakeText({"code", "val"});
  ASSERT_TRUE(schema.ok());
  Engine engine;
  auto stream = engine.OpenStream(schema.value(), rules);
  ASSERT_TRUE(stream.ok()) << stream.status();
  auto plain = engine.OpenStream(schema.value(), rules);
  ASSERT_TRUE(plain.ok()) << plain.status();

  std::string all_conflicts;
  std::string all_repairs;
  for (size_t b = 0; b < batches.size(); ++b) {
    (*stream)->set_clean_on_ingest(b != 4);
    auto cumulative = (*stream)->AppendRows(batches[b]);
    ASSERT_TRUE(cumulative.ok()) << cumulative.status();
    auto detected = (*plain)->AppendRows(batches[b]);
    ASSERT_TRUE(detected.ok()) << detected.status();

    all_conflicts += expected[b].new_conflicts;
    all_repairs += expected[b].new_repairs;
    std::string conflicts;
    for (const StreamConflict& c : (*stream)->conflicts()) {
      conflicts += Fingerprint(c) + "\n";
    }
    std::string repairs;
    for (const AppliedRepair& r : (*stream)->repairs()) {
      repairs += Fingerprint(r) + "\n";
    }
    EXPECT_EQ(conflicts, all_conflicts) << "batch " << b;
    EXPECT_EQ(repairs, all_repairs) << "batch " << b;
    EXPECT_EQ(Fingerprint(cumulative.value()), expected[b].cleaned)
        << "batch " << b;
    EXPECT_EQ(Fingerprint(detected.value()), expected[b].plain)
        << "batch " << b;
  }
}

TEST(DetectionStreamTest, CleanVariableRulesToggleRestoresConstantOnly) {
  const Dataset d = ZipCityStateDataset(600, 605, 0.05);
  const std::vector<Pfd> rules = DiscoverRules(d.relation);
  ASSERT_FALSE(rules.empty());

  Engine engine;
  auto constant_only = engine.OpenStream(d.relation.schema(), rules);
  ASSERT_TRUE(constant_only.ok());
  (*constant_only)->set_clean_on_ingest(true);
  (*constant_only)->set_clean_variable_rules(false);
  ASSERT_TRUE((*constant_only)->AppendBatch(d.relation).ok());
  EXPECT_TRUE((*constant_only)->conflicts().empty());

  auto both = engine.OpenStream(d.relation.schema(), rules);
  ASSERT_TRUE(both.ok());
  (*both)->set_clean_on_ingest(true);
  ASSERT_TRUE((*both)->AppendBatch(d.relation).ok());

  // The variable rules must have contributed repairs beyond the constant
  // ones on this error-injected dataset.
  EXPECT_GT((*both)->repairs().size(), (*constant_only)->repairs().size());
}

}  // namespace
}  // namespace anmat
