#include "anmat/engine.h"

namespace anmat {

Engine::Engine(ExecutionOptions execution)
    : execution_(std::move(execution)),
      automata_(std::make_shared<AutomatonCache>()) {
  execution_.pool = nullptr;  // the engine owns its pool; never adopt one
}

Engine::~Engine() = default;

// Moves require external synchronization (no other thread may touch either
// engine during the move), so the guarded members are read lock-free here —
// opted out of the thread-safety analysis rather than taking both locks.
Engine::Engine(Engine&& other) noexcept ANMAT_NO_THREAD_SAFETY_ANALYSIS
    : execution_(other.execution_),
      pool_(std::move(other.pool_)),
      automata_(std::move(other.automata_)) {}

Engine& Engine::operator=(Engine&& other) noexcept
    ANMAT_NO_THREAD_SAFETY_ANALYSIS {
  if (this != &other) {
    execution_ = other.execution_;
    // Dropping our references retires this engine's pool and cache; any
    // stream opened on it co-owns them and frees them when it dies.
    pool_ = std::move(other.pool_);
    automata_ = std::move(other.automata_);
  }
  return *this;
}

void Engine::set_execution(ExecutionOptions execution) {
  MutexLock lock(&pool_mu_);
  const size_t old_threads = execution_.EffectiveThreads();
  execution_ = std::move(execution);
  execution_.pool = nullptr;
  // The pool only embodies the thread count: a reconfiguration that keeps
  // it can reuse the pool. Dropping the reference frees the pool once its
  // last borrowing stream (if any) goes away.
  if (execution_.EffectiveThreads() != old_threads) pool_.reset();
}

void Engine::SetNumThreads(size_t num_threads) {
  MutexLock lock(&pool_mu_);
  const size_t old_threads = execution_.EffectiveThreads();
  execution_.num_threads = num_threads;
  if (execution_.EffectiveThreads() != old_threads) pool_.reset();
}

ExecutionOptions Engine::Exec() {
  MutexLock lock(&pool_mu_);
  const size_t threads = execution_.EffectiveThreads();
  if (threads > 1 &&
      (pool_ == nullptr || pool_->num_threads() != threads)) {
    pool_ = std::make_shared<ThreadPool>(threads);
  }
  ExecutionOptions exec = execution_;
  exec.pool = threads > 1 ? pool_ : nullptr;
  return exec;
}

std::vector<ColumnProfile> Engine::Profile(const Relation& relation,
                                           ProfilerOptions options) {
  options.execution = Exec();
  return ProfileRelation(relation, options);
}

Result<DiscoveryResult> Engine::Discover(const Relation& relation,
                                         DiscoveryOptions options) {
  options.execution = Exec();
  options.automata = automata_;
  return DiscoverPfds(relation, options);
}

Result<DetectionResult> Engine::Detect(const Relation& relation,
                                       const std::vector<Pfd>& pfds,
                                       DetectorOptions options) {
  options.execution = Exec();
  options.automata = automata_;
  return DetectErrors(relation, pfds, options);
}

Result<RepairResult> Engine::Repair(Relation* relation,
                                    const std::vector<Pfd>& pfds,
                                    RepairOptions options) {
  // Every detection pass inside the repair loop inherits the engine's
  // execution block and automaton cache (tableau matchers are resolved
  // once and shared across passes — see RepairErrors); the suggestion
  // fold and application steps are deterministic, so the whole run is
  // byte-identical to serial RepairErrors.
  options.detector.execution = Exec();
  options.detector.automata = automata_;
  return RepairErrors(relation, pfds, options);
}

Result<std::unique_ptr<DetectionStream>> Engine::OpenStream(
    const Schema& schema, std::vector<Pfd> pfds, DetectorOptions options) {
  options.execution = Exec();
  options.automata = automata_;
  // The stream's own copy of the options co-owns the pool and the cache,
  // so both outlive reconfiguration (and this engine) for as long as the
  // stream needs them.
  return DetectionStream::Open(schema, std::move(pfds), options);
}

}  // namespace anmat
