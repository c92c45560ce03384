// Tests for the persistent project layer (anmat/project.h), composed with
// anmat::Engine the way project.h documents: init/open, catalog
// round-trips, the rule lifecycle (discovered -> confirmed/rejected)
// surviving re-open, and the full workflow (discover -> confirm -> detect
// -> repair) against a project directory.

#include "anmat/project.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>

#include "anmat/engine.h"
#include "csv/csv_writer.h"
#include "datagen/datasets.h"

namespace anmat {
namespace {

/// A fresh directory path under the test temp dir (not yet created).
std::string FreshDir(const std::string& tag) {
  const std::string dir = ::testing::TempDir() + "/anmat_project_" + tag;
  std::filesystem::remove_all(dir);
  return dir;
}

/// Writes the paper's Table-2 zip/city CSV and returns its path.
std::string WriteZipCsv(const std::string& tag) {
  const std::string path =
      ::testing::TempDir() + "/anmat_project_" + tag + ".csv";
  std::ofstream out(path);
  out << "zip,city\n90001,Los Angeles\n90002,Los Angeles\n"
         "90003,Los Angeles\n90004,New York\n";
  return path;
}

TEST(ProjectTest, InitCreatesCatalogAndEmptyRules) {
  const std::string dir = FreshDir("init");
  Project project = Project::Init(dir, "census").value();
  EXPECT_EQ(project.name(), "census");
  EXPECT_TRUE(std::filesystem::exists(project.catalog_path()));
  EXPECT_TRUE(std::filesystem::exists(project.rules_path()));
  EXPECT_TRUE(project.rules().empty());
  EXPECT_TRUE(project.datasets().empty());

  // Re-init over an existing project must not clobber it.
  auto again = Project::Init(dir, "other");
  EXPECT_FALSE(again.ok());
  EXPECT_EQ(again.status().code(), StatusCode::kAlreadyExists);
  std::filesystem::remove_all(dir);
}

TEST(ProjectTest, InitDefaultsNameToDirectory) {
  const std::string dir = FreshDir("named-by-dir");
  Project project = Project::Init(dir).value();
  EXPECT_EQ(project.name(), "anmat_project_named-by-dir");
  std::filesystem::remove_all(dir);
}

TEST(ProjectTest, OpenMissingIsNotFound) {
  auto project = Project::Open(FreshDir("absent"));
  EXPECT_FALSE(project.ok());
  EXPECT_EQ(project.status().code(), StatusCode::kNotFound);
}

TEST(ProjectTest, CatalogAndParametersRoundTrip) {
  const std::string dir = FreshDir("catalog");
  {
    Project project = Project::Init(dir, "zips").value();
    Project::Parameters parameters;
    parameters.min_coverage = 0.45;
    parameters.allowed_violation_ratio = 0.2;
    project.set_parameters(parameters);
    ASSERT_TRUE(project.AttachDataset("a", "/data/a.csv").ok());
    ASSERT_TRUE(project.AttachDataset("b", "/data/b.csv").ok());
    ASSERT_TRUE(project.Save().ok());
  }
  Project reopened = Project::Open(dir).value();
  EXPECT_EQ(reopened.name(), "zips");
  EXPECT_DOUBLE_EQ(reopened.parameters().min_coverage, 0.45);
  EXPECT_DOUBLE_EQ(reopened.parameters().allowed_violation_ratio, 0.2);
  ASSERT_EQ(reopened.datasets().size(), 2u);
  // Default dataset = last attached.
  EXPECT_EQ(reopened.FindDataset().value().name, "b");
  EXPECT_EQ(reopened.FindDataset("a").value().path, "/data/a.csv");
  EXPECT_FALSE(reopened.FindDataset("c").ok());

  // Re-attaching an existing name re-points it and makes it default again.
  ASSERT_TRUE(reopened.AttachDataset("a", "/data/a2.csv").ok());
  EXPECT_EQ(reopened.datasets().size(), 2u);
  EXPECT_EQ(reopened.FindDataset().value().name, "a");
  EXPECT_EQ(reopened.FindDataset("a").value().path, "/data/a2.csv");

  // Discovery options are seeded from the persisted parameters.
  const DiscoveryOptions options = reopened.discovery_options();
  EXPECT_DOUBLE_EQ(options.min_coverage, 0.45);
  EXPECT_EQ(options.table_name, "zips");
  std::filesystem::remove_all(dir);
}

TEST(ProjectTest, RuleLifecycleSurvivesReopen) {
  const std::string dir = FreshDir("lifecycle");
  const std::string csv = WriteZipCsv("lifecycle");
  {
    Project project = Project::Init(dir, "zips").value();
    Project::Parameters parameters;
    parameters.min_coverage = 0.5;
    parameters.allowed_violation_ratio = 0.3;
    project.set_parameters(parameters);
    ASSERT_TRUE(project.AttachDataset("zips", csv).ok());
    Relation data = project.LoadDataset().value();

    Engine engine;
    auto discovery = engine.Discover(data, project.discovery_options());
    ASSERT_TRUE(discovery.ok());
    ASSERT_FALSE(discovery->pfds.empty());
    for (const DiscoveredPfd& d : discovery->pfds) {
      project.AddDiscoveredRule(d, "zips");
    }
    EXPECT_TRUE(project.ConfirmedPfds().empty());  // nothing confirmed yet
    ASSERT_TRUE(
        project.SetRuleStatus(1, RuleStatus::kConfirmed).ok());
    ASSERT_TRUE(project.Save().ok());
  }

  Project reopened = Project::Open(dir).value();
  ASSERT_FALSE(reopened.rules().empty());
  EXPECT_EQ(reopened.rules().Find(1)->status, RuleStatus::kConfirmed);
  EXPECT_EQ(reopened.rules().Find(1)->provenance.source, "zips");
  EXPECT_GT(reopened.rules().Find(1)->provenance.coverage, 0.0);
  ASSERT_EQ(reopened.ConfirmedPfds().size(), 1u);

  // Detection + repair against the stored confirmed rules.
  Relation data = reopened.LoadDataset().value();
  Engine engine;
  auto detection = engine.Detect(data, reopened.ConfirmedPfds());
  ASSERT_TRUE(detection.ok());
  EXPECT_FALSE(detection->violations.empty());
  auto repair = engine.Repair(&data, reopened.ConfirmedPfds());
  ASSERT_TRUE(repair.ok());
  EXPECT_FALSE(repair->repairs.empty());
  EXPECT_EQ(data.cell(3, 1), "Los Angeles");

  // Reject flips status and removes the rule from the applied set.
  ASSERT_TRUE(reopened.SetRuleStatus(1, RuleStatus::kRejected).ok());
  EXPECT_TRUE(reopened.ConfirmedPfds().empty());
  EXPECT_FALSE(reopened.SetRuleStatus(99, RuleStatus::kConfirmed).ok());

  std::filesystem::remove_all(dir);
  std::remove(csv.c_str());
}

TEST(ProjectTest, RediscoveryDoesNotDuplicateRules) {
  const std::string dir = FreshDir("dedup");
  const std::string csv = WriteZipCsv("dedup");
  Project project = Project::Init(dir, "zips").value();
  Project::Parameters parameters;
  parameters.min_coverage = 0.5;
  parameters.allowed_violation_ratio = 0.3;
  project.set_parameters(parameters);
  ASSERT_TRUE(project.AttachDataset("zips", csv).ok());
  Relation data = project.LoadDataset().value();

  Engine engine;
  auto discovery = engine.Discover(data, project.discovery_options());
  ASSERT_TRUE(discovery.ok());
  ASSERT_FALSE(discovery->pfds.empty());
  for (const DiscoveredPfd& d : discovery->pfds) {
    project.AddDiscoveredRule(d, "zips");
  }
  const size_t count = project.rules().size();
  ASSERT_TRUE(project.SetRuleStatus(1, RuleStatus::kRejected).ok());

  // A second discovery run over the same data re-finds the same PFDs: the
  // store must not grow, ids must be reused, and the user's rejection must
  // survive (only the provenance is refreshed).
  for (const DiscoveredPfd& d : discovery->pfds) {
    const uint64_t id = project.AddDiscoveredRule(d, "zips-rerun");
    EXPECT_LE(id, count);
  }
  EXPECT_EQ(project.rules().size(), count);
  EXPECT_EQ(project.rules().Find(1)->status, RuleStatus::kRejected);
  EXPECT_EQ(project.rules().Find(1)->provenance.source, "zips-rerun");

  std::filesystem::remove_all(dir);
  std::remove(csv.c_str());
}

TEST(ProjectTest, LoadDatasetWithoutCatalogEntriesFails) {
  const std::string dir = FreshDir("nodata");
  Project project = Project::Init(dir).value();
  EXPECT_FALSE(project.LoadDataset().ok());
  std::filesystem::remove_all(dir);
}

/// Inits `dir` as project "zips" (γ = 0.5, 30% violations allowed) over
/// the CSV at `csv`, discovers on it and records every discovered rule
/// with `csv` as its source, appending their ids to `ids`.
Project InitAndDiscover(const std::string& dir, const std::string& csv,
                        std::vector<uint64_t>* ids) {
  Project project = Project::Init(dir, "zips").value();
  project.set_parameters({/*min_coverage=*/0.5,
                          /*allowed_violation_ratio=*/0.3});
  EXPECT_TRUE(project.AttachDataset("zips", csv).ok());
  const Relation data = project.LoadDataset().value();
  auto discovery = Engine().Discover(data, project.discovery_options());
  EXPECT_TRUE(discovery.ok());
  for (const DiscoveredPfd& d : discovery->pfds) {
    ids->push_back(project.AddDiscoveredRule(d, csv));
  }
  return project;
}

TEST(ProjectTest, DiscoveredRulesKeepSourceAndConfirmationsSurviveReopen) {
  const std::string dir = FreshDir("provenance");
  const std::string csv = WriteZipCsv("provenance");
  {
    std::vector<uint64_t> ids;
    Project project = InitAndDiscover(dir, csv, &ids);
    ASSERT_FALSE(ids.empty());

    // Discovered rules land in the store as `discovered`, with the source
    // AddDiscoveredRule was given.
    ASSERT_EQ(project.rules().size(), ids.size());
    EXPECT_EQ(project.rules().records()[0].status, RuleStatus::kDiscovered);
    EXPECT_EQ(project.rules().records()[0].provenance.source, csv);

    ASSERT_TRUE(project.SetRuleStatus(ids[0], RuleStatus::kConfirmed).ok());
    for (size_t i = 1; i < ids.size(); ++i) {
      ASSERT_TRUE(project.SetRuleStatus(ids[i], RuleStatus::kRejected).ok());
    }
    Relation data = project.LoadDataset().value();
    auto repair = Engine().Repair(&data, project.ConfirmedPfds());
    ASSERT_TRUE(repair.ok());
    EXPECT_FALSE(repair->repairs.empty());
    ASSERT_TRUE(project.Save().ok());
  }

  // Reopened, the project detects with the stored confirmed rule without
  // re-discovering.
  Project reopened = Project::Open(dir).value();
  EXPECT_EQ(reopened.name(), "zips");
  ASSERT_EQ(reopened.ConfirmedPfds().size(), 1u);
  auto detection = Engine().Detect(reopened.LoadDataset().value(),
                                   reopened.ConfirmedPfds());
  ASSERT_TRUE(detection.ok());
  EXPECT_FALSE(detection->violations.empty());

  std::filesystem::remove_all(dir);
  std::remove(csv.c_str());
}

TEST(ProjectTest, StoredConfirmationsSurviveRediscoveryAfterReopen) {
  const std::string dir = FreshDir("rediscover");
  const std::string csv = WriteZipCsv("rediscover");
  {
    std::vector<uint64_t> ids;
    Project project = InitAndDiscover(dir, csv, &ids);
    for (uint64_t id : ids) {
      ASSERT_TRUE(project.SetRuleStatus(id, RuleStatus::kConfirmed).ok());
    }
    ASSERT_FALSE(project.ConfirmedPfds().empty());
    ASSERT_TRUE(project.Save().ok());
  }
  // A later run re-discovers over the reopened project: the records are
  // not duplicated and keep their confirmed status, so detection works
  // right after discovery without re-confirming.
  Project project = Project::Open(dir).value();
  const Relation data = project.LoadDataset().value();
  const size_t stored = project.rules().size();
  auto discovery = Engine().Discover(data, project.discovery_options());
  ASSERT_TRUE(discovery.ok());
  for (const DiscoveredPfd& d : discovery->pfds) {
    project.AddDiscoveredRule(d, csv);
  }
  EXPECT_EQ(project.rules().size(), stored);
  EXPECT_EQ(project.ConfirmedPfds().size(), stored);
  auto detection = Engine().Detect(data, project.ConfirmedPfds());
  ASSERT_TRUE(detection.ok());
  EXPECT_FALSE(detection->violations.empty());

  std::filesystem::remove_all(dir);
  std::remove(csv.c_str());
}

TEST(ProjectTest, SchemaFingerprintDetectsChangedDataset) {
  const std::string dir = FreshDir("fingerprint");
  const std::string csv = WriteZipCsv("fingerprint");
  Project project = Project::Init(dir, "fp").value();
  ASSERT_TRUE(project.AttachDataset("zips", csv).ok());
  const std::string recorded = project.FindDataset("zips")->fingerprint;
  EXPECT_FALSE(recorded.empty());
  ASSERT_TRUE(project.LoadDataset("zips").ok());
  ASSERT_TRUE(project.Save().ok());

  // The fingerprint survives the catalog round-trip and still validates.
  Project reopened = Project::Open(dir).value();
  EXPECT_EQ(reopened.FindDataset("zips")->fingerprint, recorded);
  ASSERT_TRUE(reopened.LoadDataset("zips").ok());

  // Silently re-shaping the CSV (renamed + added column) must fail loudly
  // at load time, naming the dataset.
  {
    std::ofstream out(csv);
    out << "zipcode,city,state\n90001,Los Angeles,CA\n";
  }
  auto load = reopened.LoadDataset("zips");
  ASSERT_FALSE(load.ok());
  EXPECT_NE(load.status().message().find("zips"), std::string::npos);
  EXPECT_NE(load.status().message().find("changed schema"),
            std::string::npos);

  // Re-attaching the changed file refreshes the fingerprint and loads.
  ASSERT_TRUE(reopened.AttachDataset("zips", csv).ok());
  EXPECT_NE(reopened.FindDataset("zips")->fingerprint, recorded);
  EXPECT_TRUE(reopened.LoadDataset("zips").ok());
  std::remove(csv.c_str());
}

TEST(ProjectTest, MissingFingerprintSkipsSchemaCheck) {
  // Attaching a not-yet-existing file records no fingerprint (like a
  // catalog written by an earlier release) — the load-time check is
  // skipped and the dataset loads once the file appears.
  const std::string dir = FreshDir("nofp");
  const std::string csv =
      ::testing::TempDir() + "/anmat_project_nofp_late.csv";
  std::remove(csv.c_str());
  Project project = Project::Init(dir, "nofp").value();
  ASSERT_TRUE(project.AttachDataset("late", csv).ok());
  EXPECT_TRUE(project.FindDataset("late")->fingerprint.empty());
  EXPECT_FALSE(project.LoadDataset("late").ok());  // file still missing
  {
    std::ofstream out(csv);
    out << "zip,city\n90001,Los Angeles\n";
  }
  EXPECT_TRUE(project.LoadDataset("late").ok());
  std::remove(csv.c_str());
}

TEST(ProjectTest, FingerprintOfHeaderLongerThanAMebibyte) {
  const std::string dir = FreshDir("longheader");
  const std::string csv =
      ::testing::TempDir() + "/anmat_project_longheader.csv";
  {
    std::ofstream out(csv);
    out << "\"" << std::string((1 << 20) + 100, 'h') << "\",b\n1,2\n";
  }
  Project project = Project::Init(dir, "long").value();
  ASSERT_TRUE(project.AttachDataset("wide", csv).ok());
  auto read = ReadCsvFile(csv);
  ASSERT_TRUE(read.ok());
  EXPECT_EQ(project.FindDataset("wide")->fingerprint,
            SchemaFingerprint(read->schema()));
  std::remove(csv.c_str());
}

TEST(ProjectTest, BrokenBodyKeepsHeaderFingerprintAndFailsToParse) {
  const std::string dir = FreshDir("brokenbody");
  const std::string csv =
      ::testing::TempDir() + "/anmat_project_brokenbody.csv";
  {
    std::ofstream out(csv);
    out << "zip,city\n90001,\"Los Angeles\n";
  }
  Project project = Project::Init(dir, "broken").value();
  ASSERT_TRUE(project.AttachDataset("zips", csv).ok());
  EXPECT_EQ(project.FindDataset("zips")->fingerprint,
            SchemaFingerprint(Schema::MakeText({"zip", "city"}).value()));
  auto load = project.LoadDataset("zips");
  ASSERT_FALSE(load.ok());
  EXPECT_EQ(load.status().code(), StatusCode::kParseError);
  std::remove(csv.c_str());
}

TEST(ProjectTest, FingerprintWithoutHeaderUsesGeneratedNames) {
  const std::string dir = FreshDir("noheader");
  const std::string csv = WriteZipCsv("noheader");
  CsvOptions no_header;
  no_header.has_header = false;
  Project project = Project::Init(dir, "noheader").value();
  ASSERT_TRUE(project.AttachDataset("zips", csv, no_header).ok());
  auto read = ReadCsvFile(csv, no_header);
  ASSERT_TRUE(read.ok());
  EXPECT_EQ(project.FindDataset("zips")->fingerprint,
            SchemaFingerprint(read->schema()));
  EXPECT_TRUE(project.LoadDataset("zips", no_header).ok());
  std::remove(csv.c_str());
}

}  // namespace
}  // namespace anmat
