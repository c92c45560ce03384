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
#include <iterator>
#include <map>
#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "csv/csv_reader.h"
#include "csv/csv_writer.h"
#include "datagen/datasets.h"
#include "detect/detection_stream.h"
#include "detect/detector.h"
#include "detect/reference_detector.h"
#include "discovery/discovery.h"
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

TEST(EngineParallelTest, ZeroMeansHardwareThreads) {
  const Dataset d = ZipCityStateDataset(300, 105, 0.02);
  Engine engine(ExecutionOptions{0, true, nullptr});
  Engine serial(ExecutionOptions{1, true, nullptr});
  EXPECT_EQ(Fingerprint(engine.Profile(d.relation)),
            Fingerprint(serial.Profile(d.relation)));
}

// -- Shared cached automata == uncached reference -------------------------

// Acceptance: detection through a caller-shared cache (frozen automata +
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

// -- Streaming == one-shot -------------------------------------------------

/// Splits `relation` into randomized chunk sizes, appends each to a stream,
/// and checks the cumulative result against one-shot detection on the
/// growing prefix after every batch. With `clean_on_ingest` the stream
/// repairs each batch before absorbing it, so the reference is one-shot
/// detection over the stream's own (cleaned) relation.
void CheckStreamEquivalence(const Relation& relation,
                            const std::vector<Pfd>& rules,
                            const DetectorOptions& options, uint64_t seed,
                            bool clean_on_ingest = false) {
  Engine engine(ExecutionOptions{options.execution.num_threads, true,
                                 nullptr});
  auto stream = engine.OpenStream(relation.schema(), rules, options);
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
    auto one_shot = engine.Detect(
        clean_on_ingest ? (*stream)->relation() : prefix, rules, options);
    ASSERT_TRUE(one_shot.ok());
    ASSERT_EQ(Fingerprint(cumulative.value()), Fingerprint(one_shot.value()))
        << "batch " << batch_number << " (rows 0.." << (begin + size) << ")";
    begin += size;
    ++batch_number;
  }
  EXPECT_EQ((*stream)->relation().num_rows(), relation.num_rows());
  EXPECT_EQ((*stream)->num_batches(), batch_number);
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
