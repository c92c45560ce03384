#ifndef ANMAT_SERVICE_PROJECT_HOST_H_
#define ANMAT_SERVICE_PROJECT_HOST_H_

/// \file project_host.h
/// The one implementation of ANMAT's project verbs: Project + Engine +
/// stream registry.
///
/// A `ProjectHost` serves verbs against an open `Project`. In the daemon
/// it is what makes the daemon worth running: a one-shot CLI invocation
/// pays process spawn, project open (lock + recovery + catalog parse) and
/// automaton compilation on *every* command; a daemon-resident host pays
/// them once and then serves requests against:
///
///  * a warm `anmat::Engine` — its shared `ThreadPool` and engine-wide
///    `AutomatonCache` live as long as the host, so each distinct pattern
///    is compiled and frozen once per daemon lifetime instead of once per
///    CLI run (`bench_a8_daemon` measures the amortization; the cache
///    stats are exposed through the daemon's `stats` verb);
///  * the open `Project`, whose lock the host keeps for its lifetime (a
///    writable project holds the whole-project `flock` — cross-*process*
///    exclusion). Within the process the host schedules finer than the
///    flock: verbs that mutate project state (discover, rules
///    confirm/reject/delete/annotate) funnel through a writer gate
///    (`std::shared_mutex`, unique side) so their read-modify-write +
///    `Save` cycles serialize FIFO and no edit is ever lost, while
///    reporting verbs (detect, repair, profile, rules list, streams) take
///    the shared side and proceed concurrently with each other. A writer
///    edits a copy of the project and publishes it only once `Save`
///    succeeded, so a failed verb leaves no partial edit behind;
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
Result<VerbResult> RunDatasetVerb(Engine& engine, const std::string& verb,
                                  Relation relation,
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

  /// Executes one project-scoped verb. Thread-safe: writers serialize
  /// through the writer gate, readers run concurrently (see file comment).
  /// Verbs: info, fsck, dataset, discover, profile, detect, repair,
  /// rules.list, rules.confirm, rules.reject, rules.delete,
  /// rules.annotate, stream.open, stream.append, stream.close.
  Result<VerbResult> Dispatch(const std::string& verb,
                              const JsonValue& params);

  /// Automaton cache statistics of the warm engine (the `stats` verb; the
  /// hit count is the compile-once amortization made visible).
  JsonValue CacheStatsJson();

  /// Live streams (diagnostics).
  size_t num_streams();

 private:
  // Verb implementations. Writers take `gate_` uniquely, readers shared.
  Result<VerbResult> Info();
  Result<VerbResult> Fsck();
  Result<VerbResult> Dataset(const JsonValue& params);
  Result<VerbResult> Discover(const JsonValue& params);
  /// profile, detect, repair: inputs loaded under the shared gate, then
  /// `RunDatasetVerb`.
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

  /// The catalog entry a verb operates on: `data` = catalog name, or the
  /// path spelling that attached it (`discover --data` takes a CSV path
  /// and attaches it under its stem). Requires `gate_` held, either side.
  Result<Project::DatasetEntry> FindData(const JsonValue& params)
      ANMAT_REQUIRES_SHARED(gate_);

  /// The confirmed rules; InvalidArgument when there are none.
  Result<std::vector<Pfd>> ConfirmedRules() ANMAT_REQUIRES_SHARED(gate_);

  /// Saves `next` (an edited copy of `project_`) and publishes it; on a
  /// failed save `project_` stays as it was.
  Status Commit(Project next) ANMAT_REQUIRES(gate_);

  /// One live stream. `mu` serializes appends (DetectionStream is not
  /// reentrant); the registry mutex is never held across an append.
  struct StreamEntry {
    Mutex mu;
    StreamState state ANMAT_GUARDED_BY(mu);
  };

  /// The writer gate: in-process scheduling finer than the project flock.
  /// Mutating verbs hold it uniquely around their read-modify-write +
  /// `Save` cycle; reporting verbs hold it shared.
  SharedMutex gate_;
  Project project_ ANMAT_GUARDED_BY(gate_);
  Engine engine_;
  Mutex streams_mu_;
  uint64_t next_stream_id_ ANMAT_GUARDED_BY(streams_mu_) = 1;
  std::map<uint64_t, std::shared_ptr<StreamEntry>> streams_
      ANMAT_GUARDED_BY(streams_mu_);
};

}  // namespace anmat

#endif  // ANMAT_SERVICE_PROJECT_HOST_H_
