#ifndef ANMAT_ANMAT_ENGINE_H_
#define ANMAT_ANMAT_ENGINE_H_

/// \file engine.h
/// The execution layer of ANMAT: one place that owns the thread pool and
/// drives the pipeline stages with it.
///
/// ```
///   ProjectHost (service/)        the project verbs: Project + Engine
///   CLI one-shot forms, benches   (the composition project.h documents)
///      │  call
///      ▼
///   Engine (this file)            owns ThreadPool + ExecutionOptions
///      │  fans out via ParallelFor(…)
///      ├─ Profile   → ProfileRelation   one task per column
///      ├─ Discover  → DiscoverPfds      one task per candidate dependency
///      ├─ Detect    → DetectErrors      one task per (PFD, tableau row)
///      ├─ Repair    → RepairErrors      one detection state kept across
///      │                                its passes: each pass re-runs
///      │                                only the work items its writes
///      │                                touched, one task per item
///      └─ OpenStream → DetectionStream  incremental batch detection: each
///                                       batch is absorbed by the same
///                                       per-item tasks (+ clean-on-ingest
///                                       repair mode: constant and
///                                       cumulative-majority variable
///                                       repairs per batch)
/// ```
///
/// Every parallel stage merges per-task slots in task order, so results are
/// byte-identical to serial runs (asserted by the randomized differential
/// tests in engine_test.cc). The engine overwrites the `execution` block of
/// whatever options it is handed with its own configuration — threads are
/// set once, when the engine is constructed.
///
/// The engine also owns the engine-wide `AutomatonCache`
/// (pattern/automaton_cache.h) and installs it into every stage's options:
/// each distinct pattern is compiled exactly once per engine lifetime, and
/// every matcher of every stage, task, repair pass and stream walks its own
/// copy of that automaton. Union automata are shared engine-wide and grow
/// lazily under their own locks.
///
/// \code
///   anmat::Engine engine(anmat::ExecutionOptions{/*num_threads=*/0});
///   auto discovery = engine.Discover(relation, options);
///   auto detection = engine.Detect(relation, pfds);
///   auto stream = engine.OpenStream(relation.schema(), pfds);
///   for (const anmat::Relation& batch : batches) {
///     auto cumulative = (*stream)->AppendBatch(batch);
///   }
/// \endcode

#include <memory>
#include <vector>

#include "detect/detection_stream.h"
#include "detect/detector.h"
#include "discovery/discovery.h"
#include "pattern/automaton_cache.h"
#include "discovery/profiler.h"
#include "relation/relation.h"
#include "repair/repair.h"
#include "util/status.h"
#include "util/thread_pool.h"

namespace anmat {

/// \brief The execution engine: pipeline stages + a shared thread pool +
/// the engine-wide automaton cache.
///
/// The execution block is fixed at construction. Stage calls
/// (Profile/Discover/Detect/Repair/OpenStream) may run concurrently from
/// several threads, as long as each call uses a distinct relation. Copies
/// share the pool and the cache.
class Engine {
 public:
  /// `execution.num_threads`: 1 = serial (default), 0 = one per hardware
  /// thread, n = exactly n. With more than one thread the pool is built
  /// here and reused by every stage call; a pool passed in
  /// `execution.pool` is ignored.
  explicit Engine(ExecutionOptions execution = {});

  /// Column-parallel profiling (Figure 3).
  std::vector<ColumnProfile> Profile(const Relation& relation,
                                     ProfilerOptions options = {});

  /// Candidate-parallel PFD discovery (Figure 2 / Figure 4).
  Result<DiscoveryResult> Discover(const Relation& relation,
                                   DiscoveryOptions options = {});

  /// (PFD, tableau row)-parallel detection (Figure 5).
  Result<DetectionResult> Detect(const Relation& relation,
                                 const std::vector<Pfd>& pfds,
                                 DetectorOptions options = {});

  /// Iterative repair (§3's suggestion semantics, repair.h's fixpoint
  /// loop). Each pass detects through one detection state kept across the
  /// passes, one task per (PFD, tableau row) it has to re-run, merged in
  /// item order, so the applied repairs, the conflict set and the repaired
  /// relation are byte-identical to a serial `RepairErrors` run at any
  /// thread count (differentially tested at 2/4/8 threads in
  /// engine_test.cc). The engine's execution block overrides
  /// `options.detector.execution`.
  Result<RepairResult> Repair(Relation* relation,
                              const std::vector<Pfd>& pfds,
                              RepairOptions options = {});

  /// Opens a streaming detector for `pfds` over relations with `schema`;
  /// batches appended to it pay pattern work only for newly seen distinct
  /// values (see detection_stream.h). The stream co-owns the engine's pool
  /// and automaton cache through its options, so it stays valid after the
  /// engine is destroyed; both are freed when their last owner lets go.
  Result<std::unique_ptr<DetectionStream>> OpenStream(
      const Schema& schema, std::vector<Pfd> pfds,
      DetectorOptions options = {});

  /// The engine-wide compile-once automaton cache (stats-inspectable;
  /// every stage call installs it into its options).
  AutomatonCache& automata() { return *automata_; }

 private:
  /// Installed into every stage's options. Holds the pool when threads > 1;
  /// each options copy a stream keeps co-owns it.
  ExecutionOptions execution_;
  /// Engine-wide automaton cache, co-owned by streams the same way.
  std::shared_ptr<AutomatonCache> automata_;
};

}  // namespace anmat

#endif  // ANMAT_ANMAT_ENGINE_H_
