#ifndef ANMAT_ANMAT_PROJECT_H_
#define ANMAT_ANMAT_PROJECT_H_

/// \file project.h
/// The persistent project layer: ANMAT's stateful workflow (§4) on disk.
///
/// The demo's GUI is stateful — profile, discover, let the user confirm or
/// reject rules, then detect and repair against the stored rule set, across
/// sessions. `Project` is that state as a directory:
///
/// ```
///   <dir>/project.json   catalog: project name, attached datasets,
///                        discovery parameters
///   <dir>/rules.json     RuleSet v2 store (rule_store.h): per-rule id,
///                        lifecycle status, provenance
///   <dir>/journal.wal    redo journal (project_journal.h); empty or
///                        absent except inside a Save or after a crash
///   <dir>/.anmat.lock    advisory lock file (util/fs FileLock)
/// ```
///
/// Durability contract: `Save` is a transaction over catalog + rules,
/// committed through the journal — a crash at any point leaves the
/// directory recoverable to exactly the old or the new state, never a
/// mix of the two. `Open` acquires the project lock, runs crash
/// recovery (replaying a committed-but-unapplied save, discarding a
/// torn one), and only then loads; `anmat project fsck` runs the same
/// recovery standalone. The lock serializes whole processes: writers
/// hold it from `Open` to destruction, so two concurrent CLI
/// invocations cannot interleave read-modify-write cycles and lose
/// each other's edits. Within one process, opens of the same directory
/// share the lock (in-process coordination stays the caller's concern).
///
/// `Project` owns durable state only; execution stays in `anmat::Engine`.
/// The intended composition (what `ProjectHost` (service/project_host.h)
/// does for the CLI's `--project` verbs and the daemon, and what the
/// quickstart example does):
///
/// \code
///   ANMAT_ASSIGN_OR_RETURN(anmat::Project project,
///                          anmat::Project::Init("census-proj", "census"));
///   ANMAT_RETURN_NOT_OK(project.AttachDataset("addresses",
///                                             "addresses.csv"));
///   ANMAT_ASSIGN_OR_RETURN(anmat::Relation data, project.LoadDataset());
///   anmat::Engine engine;
///   auto discovery = engine.Discover(data, project.discovery_options());
///   for (const anmat::DiscoveredPfd& d : discovery->pfds) {
///     project.AddDiscoveredRule(d, "addresses");
///   }
///   // ... user review ...
///   project.SetRuleStatus(1, anmat::RuleStatus::kConfirmed);
///   auto detection = engine.Detect(data, project.ConfirmedPfds());
///   ANMAT_RETURN_NOT_OK(project.Save());
/// \endcode
///
/// Everything is plain JSON on disk: a project directory is inspectable,
/// diffable and hand-editable, like the rule files before it.

#include <cstdint>
#include <string>
#include <vector>

#include "csv/csv_reader.h"
#include "discovery/discovery.h"
#include "relation/relation.h"
#include "store/project_journal.h"
#include "store/rule_store.h"
#include "util/fs.h"
#include "util/status.h"

namespace anmat {

/// \brief A persistent ANMAT project: catalog + RuleSet v2 store.
class Project {
 public:
  /// One catalog entry: a dataset the project has seen.
  struct DatasetEntry {
    std::string name;  ///< catalog name (unique within the project)
    std::string path;  ///< CSV path (absolutized at attach time, so the
                       ///< catalog works from any later working directory)
    /// Schema fingerprint (column-names hash, `SchemaFingerprint`)
    /// recorded at attach time; `LoadDataset` fails loudly when the file's
    /// current header no longer matches, so a silently swapped or
    /// re-shaped CSV is caught instead of detected against. Empty when
    /// unknown (file unreadable at attach time, or a catalog written by
    /// an earlier release) — then no check is made.
    std::string fingerprint;

    /// OK when `schema` (the file's current header) matches the recorded
    /// fingerprint, or when none was recorded; else InvalidArgument naming
    /// the dataset, both fingerprints and the current columns. What
    /// `LoadDataset` checks, for callers that read the CSV themselves.
    Status CheckSchema(const Schema& schema) const;
  };

  /// Persisted discovery parameters (§4 "Parameter Setting").
  struct Parameters {
    double min_coverage = 0.6;
    double allowed_violation_ratio = 0.1;
  };

  /// How `Open` should treat the project lock.
  struct OpenOptions {
    /// Read-only opens hold the lock only while crash recovery runs,
    /// then release it, so report-style commands (rules list, detect)
    /// never block a writer. `Save` on a read-only project fails.
    bool read_only = false;
    /// How long to wait for a contended lock before failing (the error
    /// names the recorded holder pid and whether it is still alive).
    int lock_wait_ms = 10000;
  };

  /// Creates `dir` (and parents) with an empty catalog and rule set and
  /// persists both; the returned project holds the project lock. Fails
  /// with AlreadyExists when `dir` already holds a project. `name`
  /// defaults to the directory's base name.
  static Result<Project> Init(const std::string& dir, std::string name = "");

  /// Opens an existing project directory; NotFound when `dir` has no
  /// catalog (and no pending journal that would create one). Acquires
  /// the project lock, runs journal crash recovery (see `recovery()`),
  /// then loads. A missing rules file is an empty rule set (a project
  /// that has not discovered yet).
  static Result<Project> Open(const std::string& dir,
                              const OpenOptions& options);
  static Result<Project> Open(const std::string& dir) {
    return Open(dir, OpenOptions());
  }

  const std::string& dir() const { return dir_; }
  const std::string& name() const { return name_; }
  std::string catalog_path() const { return dir_ + "/project.json"; }
  std::string rules_path() const { return dir_ + "/rules.json"; }
  std::string journal_path() const { return dir_ + "/journal.wal"; }
  std::string lock_path() const { return dir_ + "/.anmat.lock"; }

  /// True while this project (or a copy of it) holds the project lock.
  bool holds_lock() const { return lock_.held(); }

  /// What journal recovery found and did during `Open` (action kClean
  /// for an `Init`-created project).
  const JournalRecoveryReport& recovery() const { return recovery_; }

  // -- Parameters ----------------------------------------------------------

  const Parameters& parameters() const { return parameters_; }
  void set_parameters(Parameters parameters) { parameters_ = parameters; }

  /// Discovery options seeded from the persisted parameters (table name =
  /// project name).
  DiscoveryOptions discovery_options() const;

  // -- Catalog -------------------------------------------------------------

  const std::vector<DatasetEntry>& datasets() const { return datasets_; }

  /// Adds (or re-points) a catalog entry. The most recently attached
  /// dataset becomes the project default. If the CSV is a readable
  /// regular file, its schema fingerprint is recorded (from the header
  /// record only, `ReadCsvSchema`) so later loads can detect a changed
  /// file; any other path still attaches (with no fingerprint) and is not
  /// opened, so a pipe keeps its bytes for the load. Pass the same
  /// `options` the dataset will be loaded with — a different header parse
  /// (delimiter, has_header) would yield a different fingerprint and a
  /// spurious mismatch.
  Status AttachDataset(std::string name, std::string path,
                       const CsvOptions& options = CsvOptions());

  /// Entry by name; empty name = the project default (last attached).
  Result<DatasetEntry> FindDataset(const std::string& name = "") const;

  /// Reads the named (or default) dataset's CSV from its recorded path.
  Result<Relation> LoadDataset(const std::string& name = "",
                               const CsvOptions& options = CsvOptions()) const;

  // -- Rule lifecycle ------------------------------------------------------

  const RuleSet& rules() const { return rules_; }

  /// Records a discovered rule with provenance (source dataset + the
  /// discovery-time coverage statistics) and returns its id. Re-discovering
  /// a PFD already in the store does not duplicate it: the existing
  /// record's provenance is refreshed, its id returned and its lifecycle
  /// status left alone (a rejected rule stays rejected).
  uint64_t AddDiscoveredRule(const DiscoveredPfd& discovered,
                             std::string source);

  /// Flips rule `id` to `status`; NotFound when absent.
  Status SetRuleStatus(uint64_t id, RuleStatus status);

  /// Removes rule `id` permanently; NotFound (naming the id) when absent.
  /// Ids are never reused (`RuleSet::RaiseNextId` keeps the persisted
  /// next-id floor above every id ever handed out).
  Status DeleteRule(uint64_t id);

  /// Attaches a free-text reviewer note to rule `id` (empty clears it);
  /// NotFound (naming the id) when absent. Persisted in the v2 envelope
  /// and shown by `anmat rules list`.
  Status AnnotateRule(uint64_t id, std::string note);

  /// The rules detection and repair apply (status == confirmed).
  std::vector<Pfd> ConfirmedPfds() const { return rules_.ConfirmedPfds(); }

  // -- Persistence ---------------------------------------------------------

  /// Writes catalog + rule set back to the project directory as one
  /// journaled transaction (project_journal.h): a crash anywhere inside
  /// leaves the directory recoverable to exactly the pre-save or the
  /// post-save state. Requires the project lock (fails on a read-only
  /// open).
  Status Save() const;

 private:
  explicit Project(std::string dir) : dir_(std::move(dir)) {}

  std::string SerializeCatalog() const;
  Status LoadCatalog();
  Status ParseCatalog(const std::string& text);

  std::string dir_;
  std::string name_;
  Parameters parameters_;
  std::vector<DatasetEntry> datasets_;
  RuleSet rules_;
  FileLock lock_;
  JournalRecoveryReport recovery_;
};

}  // namespace anmat

#endif  // ANMAT_ANMAT_PROJECT_H_
