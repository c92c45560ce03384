#ifndef ANMAT_SERVICE_PROJECT_HOST_H_
#define ANMAT_SERVICE_PROJECT_HOST_H_

/// \file project_host.h
/// The one implementation of ANMAT's project verbs: Project + Engine +
/// warm datasets + stream registry.
///
/// A `ProjectHost` serves verbs against an open `Project`. In the daemon
/// it is what makes the daemon worth running: a one-shot CLI invocation
/// pays process spawn, project open (lock + recovery + catalog parse),
/// CSV ingest and automaton compilation on *every* command; a
/// daemon-resident host pays them once and then serves requests against:
///
///  * a warm `anmat::Engine` — its shared `ThreadPool` and engine-wide
///    `AutomatonCache` live as long as the host, so each distinct pattern
///    is compiled once per daemon lifetime instead of once per
///    CLI run (`bench_a8_daemon` measures the amortization; the cache
///    stats are exposed through the daemon's `stats` verb);
///  * the open `Project`, published as an immutable snapshot. The host
///    keeps the project's lock for its lifetime (a writable project holds
///    the whole-project `flock` — cross-*process* exclusion). Within the
///    process, a reading verb (info, fsck, dataset, profile, detect,
///    repair, rules list, stream open) copies the snapshot pointer once
///    and works on that project without holding any lock, so it never
///    waits for a writer. Writers (discover, rules
///    confirm/reject/delete/annotate) serialize on a writer mutex: each
///    copies the current snapshot, edits the copy, commits it through
///    `Project::Save` (a WAL transaction) and only then publishes it. No
///    edit is lost, a reader sees a project either before a write or
///    after its commit, and a failed writer publishes nothing;
///  * warm datasets: one loaded `Relation` per catalog dataset, every
///    column dictionary built, shared read-only by the verbs that read
///    its rows (repair edits a copy). Each use re-checks the entry's key —
///    catalog name, path and schema fingerprint, plus the file's device,
///    inode, size and mtime in ns from one `stat` — and a mismatch
///    reloads it through `Project::LoadDataset`, so a changed schema
///    still fails loudly. A rewrite that keeps the size and lands within
///    the filesystem clock's granularity of the load keeps the mtime too,
///    and is not seen. `kMaxWarmDatasetBytes` bounds what one host keeps,
///    oldest load evicted first; a larger dataset is loaded per call;
///  * a registry of live `DetectionStream`s addressable by stream id from
///    any connection — a hot feed opens a stream once and appends batches
///    over the socket, getting cumulative violations (and, with
///    clean-on-ingest, repairs and majority-flip conflicts) back per
///    batch. Appends to one stream serialize on a per-stream mutex
///    (`DetectionStream` is not reentrant); different streams proceed in
///    parallel.
///
/// Every verb returns the JSON `anmat <verb> --format json` prints (the
/// renderers in anmat/report.h) plus the human-readable text rendering.
/// The daemon (daemon.h) and the CLI route requests here — the CLI builds
/// a host in-process over the project it opened, or sends the same params
/// to a daemon under `--connect` — so the two front-ends cannot drift. The
/// host knows nothing about sockets.
///
/// The bodies of the dataset verbs (profile, detect, repair, stream.*)
/// are free functions over explicit inputs, so the CLI's one-shot forms
/// (`<data.csv> --rules r.json`, no project) run the same code.

#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "anmat/engine.h"
#include "anmat/project.h"
#include "detect/detection_stream.h"
#include "util/json.h"
#include "util/mutex.h"
#include "util/status.h"
#include "util/thread_annotations.h"

namespace anmat {

/// What a verb produced: the CLI's `--format json` document plus its text
/// rendering.
struct VerbResult {
  JsonValue result;
  std::string text;
};

/// \brief profile, detect or repair (`verb`) over explicit inputs. Params:
/// detect's "max" caps the listed violations (the stats block keeps the
/// full counts); repair's "out" names a CSV to write the repaired table to.
/// Only repair copies `relation`, to edit the copy.
Result<VerbResult> RunDatasetVerb(Engine& engine, const std::string& verb,
                                  const Relation& relation,
                                  const std::vector<Pfd>& rules,
                                  const JsonValue& params);

/// One open stream and what it was opened with.
struct StreamState {
  std::unique_ptr<DetectionStream> stream;
  std::vector<Pfd> pfds;
  std::string clean;  ///< "off" / "constant" / "all"
  /// Cumulative violation count after the latest append (reported again
  /// in the close summary).
  size_t violations = 0;
};

/// \brief stream.open: params "columns" (the schema) and "clean"; `id` is
/// the handle the result reports.
Result<VerbResult> StreamOpenVerb(Engine& engine, std::vector<Pfd> rules,
                                  const JsonValue& params, uint64_t id,
                                  StreamState* out);

/// \brief stream.append: params "rows", an array of string arrays.
Result<VerbResult> StreamAppendVerb(StreamState* stream,
                                    const JsonValue& params);

/// \brief stream.close: the run summary; params "out" names a CSV to write
/// the accumulated (cleaned) relation to.
Result<VerbResult> StreamCloseVerb(const StreamState& stream,
                                   const JsonValue& params);

/// \brief Hosts one open project.
class ProjectHost {
 public:
  struct Options {
    /// Engine thread count (ExecutionOptions semantics: 1 serial,
    /// 0 = hardware).
    size_t engine_threads = 1;
  };

  /// Hosts `project` and warms an engine for it. The host keeps whatever
  /// lock the project holds until it dies; over a read-only project the
  /// writer verbs fail at `Save`.
  ProjectHost(Project project, const Options& options);

  ~ProjectHost() = default;
  ProjectHost(const ProjectHost&) = delete;
  ProjectHost& operator=(const ProjectHost&) = delete;

  /// The project.init verb: creates a project at `dir` from params
  /// "name", "coverage" and "violations" (all optional) and saves it.
  static Result<Project> InitProject(const std::string& dir,
                                     const JsonValue& params);

  /// True for the verbs that save the project (they need it writable).
  static bool IsWriterVerb(const std::string& verb);

  /// Bytes of loaded datasets one host keeps warm at most (estimated by
  /// `WarmBytes`: file bytes, cell views, dictionaries).
  static constexpr size_t kMaxWarmDatasetBytes = size_t{256} << 20;

  /// Executes one project-scoped verb. Thread-safe: writers serialize on
  /// the writer mutex, readers work on a snapshot (see file comment).
  /// Verbs: info, fsck, dataset, discover, profile, detect, repair,
  /// rules.list, rules.confirm, rules.reject, rules.delete,
  /// rules.annotate, stream.open, stream.append, stream.close.
  Result<VerbResult> Dispatch(const std::string& verb,
                              const JsonValue& params);

  /// Automaton cache statistics of the warm engine (the `stats` verb; the
  /// hit count is the compile-once amortization made visible).
  JsonValue CacheStatsJson();

  /// Warm dataset statistics (the `stats` verb): entries, bytes, hits,
  /// misses.
  JsonValue WarmStatsJson();

  /// Live streams (diagnostics).
  size_t num_streams();

 private:
  // Verb implementations. Writers hold `writer_mu_` for their whole
  // copy-edit-commit cycle; readers take one snapshot.
  Result<VerbResult> Info();
  Result<VerbResult> Fsck();
  Result<VerbResult> Dataset(const JsonValue& params);
  Result<VerbResult> Discover(const JsonValue& params);
  /// profile, detect, repair: the snapshot's dataset (warm) and confirmed
  /// rules, then `RunDatasetVerb`.
  Result<VerbResult> OnDataset(const std::string& verb,
                               const JsonValue& params);
  Result<VerbResult> RulesList();
  Result<VerbResult> RulesSetStatus(const JsonValue& params,
                                    RuleStatus status);
  Result<VerbResult> RulesDelete(const JsonValue& params);
  Result<VerbResult> RulesAnnotate(const JsonValue& params);
  Result<VerbResult> StreamOpen(const JsonValue& params);
  Result<VerbResult> StreamAppend(const JsonValue& params);
  Result<VerbResult> StreamClose(const JsonValue& params);

  /// The published project.
  std::shared_ptr<const Project> Snapshot() ANMAT_EXCLUDES(snapshot_mu_);

  /// Saves `next` (an edited copy of the snapshot) and publishes it; on a
  /// failed save nothing is published. Returns what was published.
  Result<std::shared_ptr<const Project>> Commit(Project next)
      ANMAT_REQUIRES(writer_mu_) ANMAT_EXCLUDES(snapshot_mu_);

  /// The rows of `entry`, a dataset of `project`: the warm relation while
  /// its key holds, else a fresh load, kept warm when it fits the bound.
  Result<std::shared_ptr<const Relation>> WarmDataset(
      const Project& project, const Project::DatasetEntry& entry)
      ANMAT_EXCLUDES(warm_mu_);

  /// One live stream. `mu` serializes appends (DetectionStream is not
  /// reentrant); the registry mutex is never held across an append.
  struct StreamEntry {
    Mutex mu;
    StreamState state ANMAT_GUARDED_BY(mu);
  };

  /// What one `stat` says about a dataset file.
  struct FileIdentity {
    uint64_t device = 0;
    uint64_t inode = 0;
    uint64_t size = 0;
    int64_t mtime_ns = 0;
    bool operator==(const FileIdentity&) const = default;
  };

  /// One warm dataset, keyed by catalog name in `warm_`.
  struct WarmEntry {
    std::string path;
    std::string fingerprint;
    FileIdentity file;
    std::shared_ptr<const Relation> relation;
    size_t bytes = 0;
    uint64_t load_order = 0;  ///< eviction takes the smallest first
  };

  /// Held by a writer across its copy-edit-commit cycle.
  Mutex writer_mu_;
  /// Guards only the snapshot pointer (copied by readers, swapped by
  /// `Commit`).
  Mutex snapshot_mu_;
  std::shared_ptr<const Project> snapshot_ ANMAT_GUARDED_BY(snapshot_mu_);
  Engine engine_;
  Mutex warm_mu_;
  std::map<std::string, WarmEntry> warm_ ANMAT_GUARDED_BY(warm_mu_);
  size_t warm_bytes_ ANMAT_GUARDED_BY(warm_mu_) = 0;
  uint64_t warm_loads_ ANMAT_GUARDED_BY(warm_mu_) = 0;
  uint64_t warm_hits_ ANMAT_GUARDED_BY(warm_mu_) = 0;
  uint64_t warm_misses_ ANMAT_GUARDED_BY(warm_mu_) = 0;
  Mutex streams_mu_;
  uint64_t next_stream_id_ ANMAT_GUARDED_BY(streams_mu_) = 1;
  std::map<uint64_t, std::shared_ptr<StreamEntry>> streams_
      ANMAT_GUARDED_BY(streams_mu_);
};

}  // namespace anmat

#endif  // ANMAT_SERVICE_PROJECT_HOST_H_
