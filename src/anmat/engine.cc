#include "anmat/engine.h"

namespace anmat {

Engine::Engine(ExecutionOptions execution)
    : execution_(std::move(execution)),
      automata_(std::make_shared<AutomatonCache>()) {
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
  options.detector.execution = execution_;
  options.detector.automata = automata_;
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
