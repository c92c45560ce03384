#include "anmat/engine.h"

#include <utility>

#include "detect/detector_internal.h"
#include "util/mutex.h"

namespace anmat {

namespace {

/// What `Engine::Detect` keeps for the next `Engine::Detect` or
/// `Engine::Repair`.
struct KeptDetection {
  /// Whether the state answers for `relation` under `rules`: it absorbed
  /// this relation object, unmutated since, under equal rules.
  bool Serves(const Relation& relation, const std::vector<Pfd>& rules) const {
    return version == relation.version() && pfds == rules;
  }

  /// `Relation::version()` of the relation the state absorbed.
  uint64_t version = 0;
  /// The rules the state was opened on. Its resolved rows point into
  /// them, so the vector is never copied or moved once the state is open.
  std::vector<Pfd> pfds;
  detect_internal::DetectionState state;
};

}  // namespace

/// The engine's one kept detection, shared by its copies.
struct Engine::KeptSlot {
  /// Stores `next` and returns what was kept before, which the caller
  /// frees outside the lock (or repairs from).
  std::unique_ptr<KeptDetection> Swap(std::unique_ptr<KeptDetection> next) {
    MutexLock lock(&mu);
    std::swap(kept, next);
    return next;
  }

  Mutex mu;
  std::unique_ptr<KeptDetection> kept ANMAT_GUARDED_BY(mu);
};

Engine::Engine(ExecutionOptions execution)
    : execution_(std::move(execution)),
      automata_(std::make_shared<AutomatonCache>()),
      kept_(std::make_shared<KeptSlot>()) {
  const size_t threads = execution_.EffectiveThreads();
  execution_.pool =
      threads > 1 ? std::make_shared<ThreadPool>(threads) : nullptr;
}

std::vector<ColumnProfile> Engine::Profile(const Relation& relation,
                                           ProfilerOptions options) {
  options.execution = execution_;
  return ProfileRelation(relation, options);
}

Result<DiscoveryResult> Engine::Discover(const Relation& relation,
                                         DiscoveryOptions options) {
  options.execution = execution_;
  options.automata = automata_;
  return DiscoverPfds(relation, options);
}

Result<DetectionResult> Engine::Detect(const Relation& relation,
                                       const std::vector<Pfd>& pfds,
                                       DetectorOptions options) {
  options.execution = execution_;
  options.automata = automata_;
  // The last Detect's state answers again for the relation and rules it
  // absorbed: it absorbs no row and only assembles the result. Any other
  // call frees it before building its own (one kept state per engine).
  std::unique_ptr<KeptDetection> kept = kept_->Swap(nullptr);
  if (kept == nullptr || !kept->Serves(relation, pfds)) {
    kept.reset();
    kept = std::make_unique<KeptDetection>();
    kept->version = relation.version();
    kept->pfds = pfds;
  }
  ANMAT_ASSIGN_OR_RETURN(
      DetectionResult result,
      detect_internal::DetectErrorsKeepingState(relation, kept->pfds, options,
                                                &kept->state));
  kept_->Swap(std::move(kept));
  return result;
}

Result<RepairResult> Engine::Repair(Relation* relation,
                                    const std::vector<Pfd>& pfds,
                                    RepairOptions options) {
  // Every detection pass inside the repair loop inherits the engine's
  // execution block and automaton cache (tableau matchers are resolved
  // once, and each rule's candidates and groups kept until a pass writes
  // one of its LHS columns — see RepairErrors); the suggestion
  // fold and application steps are deterministic, so the whole run is
  // byte-identical to serial RepairErrors.
  options.detector.execution = execution_;
  options.detector.automata = automata_;
  // The last Detect's state serves only the relation object it absorbed,
  // unmutated since, under equal rules; it is taken either way.
  const std::unique_ptr<KeptDetection> kept = kept_->Swap(nullptr);
  if (kept != nullptr && relation != nullptr && kept->Serves(*relation, pfds)) {
    return repair_internal::RepairFromState(relation, kept->pfds, options,
                                            &kept->state);
  }
  return RepairErrors(relation, pfds, options);
}

Result<std::unique_ptr<DetectionStream>> Engine::OpenStream(
    const Schema& schema, std::vector<Pfd> pfds, DetectorOptions options) {
  options.execution = execution_;
  options.automata = automata_;
  // The stream's own copy of the options co-owns the pool and the cache,
  // so both outlive this engine for as long as the stream needs them.
  return DetectionStream::Open(schema, std::move(pfds), options);
}

}  // namespace anmat
