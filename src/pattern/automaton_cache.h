#ifndef ANMAT_PATTERN_AUTOMATON_CACHE_H_
#define ANMAT_PATTERN_AUTOMATON_CACHE_H_

/// \file automaton_cache.h
/// Engine-wide compile-once cache of single-pattern and union automata.
///
/// The pipeline probes millions of cell values against a small, heavily
/// repeated set of patterns: every tableau cell, every conjunct, every
/// index verification and every repair pass needs the same handful of
/// automata. `AutomatonCache` maps a pattern's canonical element-sequence
/// signature to a compiled lazy `Dfa` prototype (pattern/dfa.h) that
/// nobody walks. `Get` compiles it on first use and returns a copy of it
/// by value afterwards, so each distinct pattern is compiled exactly once
/// per cache (i.e. once per `anmat::Engine` lifetime) and each matcher slot
/// owns a private automaton whose memo grows without locks. The copies
/// carry the cache's state bound.
///
/// Keying: a `Dfa` compiles exactly a pattern's *element sequence*
/// (conjuncts are separate automata, flattened by the matchers), so the
/// key is the elements-only canonical text — two patterns that differ only
/// in conjuncts share the main automaton, and each conjunct is its own
/// entry.
///
/// Besides single-pattern automata, the cache holds *union* automata
/// (pattern/multi_pattern_dfa.h): `GetUnion` maps the sorted set of
/// member element-sequence signatures to one lazy `MultiPatternDfa`, so
/// every detector / stream that dispatches the same rule set (regardless
/// of rule order) shares a single table, and repair passes, stream batches
/// and daemon detects keep extending the states earlier callers
/// materialized. The per-call member ordering is translated through the
/// returned slot map. A union never fails: it materializes only the states
/// classified values walk and flushes its memo at the state bound
/// (`max_states`), so every union-friendly rule set gets one.
///
/// Thread safety: `Get` and `GetUnion` may be called concurrently (lookups
/// take a mutex; compilation runs outside it, and a same-key race
/// publishes first-wins). A prototype is never walked, so copying it needs
/// no lock. A union's lazy tables grow under its own `SharedUnion::mu`,
/// held by a caller for as long as it classifies. The stats counters are
/// monotone and approximate only in the sense that a racing miss may count
/// twice.

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "pattern/multi_pattern_dfa.h"
#include "pattern/dfa.h"
#include "pattern/pattern.h"
#include "util/mutex.h"
#include "util/thread_annotations.h"

namespace anmat {

/// \brief A lazy union automaton shared engine-wide. Classifying grows its
/// memo tables, so every use holds `mu`.
struct SharedUnion {
  SharedUnion(const std::vector<const Pattern*>& members, size_t max_states)
      : dfa(members, max_states) {}

  Mutex mu;
  MultiPatternDfa dfa ANMAT_GUARDED_BY(mu);
};

/// \brief A shared union automaton plus the caller-order translation:
/// member i of the `GetUnion` argument list is automaton pattern id
/// `slot_of[i]` (signature-sorted internally, so order-insensitive keys
/// share one table). `automaton` is never null.
struct UnionAutomaton {
  std::shared_ptr<SharedUnion> automaton;
  std::vector<uint32_t> slot_of;
};

/// \brief Aggregated dispatch-table statistics (daemon `stats` verb).
struct DispatchStats {
  size_t automata = 0;       ///< union automata held
  size_t total_states = 0;   ///< materialized lazy states over all unions
  size_t total_patterns = 0; ///< sum of member patterns over all unions
  uint64_t flushes = 0;      ///< memo flushes at the state bound
  uint64_t probes = 0;       ///< lifetime Classify calls over all unions
  uint64_t probe_hits = 0;   ///< Classify calls with a non-empty accept set
  size_t hits = 0;           ///< GetUnion lookups answered from the cache
  size_t misses = 0;         ///< GetUnion lookups that compiled
};

/// \brief Compile-once store of lazy automata, keyed by the pattern's
/// canonical element-sequence signature.
class AutomatonCache {
 public:
  /// `max_states` bounds the memo of every automaton handed out: each
  /// `Get` copy and each union.
  explicit AutomatonCache(size_t max_states = kDefaultMaxStates)
      : max_states_(max_states) {}

  AutomatonCache(const AutomatonCache&) = delete;
  AutomatonCache& operator=(const AutomatonCache&) = delete;

  /// A private, unwalked copy of the automaton for `p`'s element sequence,
  /// compiled on first use.
  Dfa Get(const Pattern& p);

  /// The shared lazy union automaton over `patterns`' element sequences,
  /// built on first sight of this signature *set* (the key is
  /// order-insensitive and deduplicates signatures). The returned slot map
  /// translates argument positions to automaton pattern ids.
  UnionAutomaton GetUnion(const std::vector<const Pattern*>& patterns);

  /// The canonical cache key of `p`: its elements-only textual form
  /// (conjuncts excluded — they are separate automata).
  static std::string KeyOf(const Pattern& p);

  /// Distinct patterns compiled.
  size_t entries() const;
  /// Lookups answered from the prototype map. Every hit is one avoided NFA
  /// compile.
  size_t hits() const;
  /// Lookups that compiled into the prototype map (first sight of a
  /// pattern).
  size_t misses() const;
  /// Always 0: every pattern compiles, so no lookup falls back. Kept
  /// because the end-to-end benchmark and the daemon `stats` verb report
  /// it.
  size_t fallbacks() const { return 0; }

  /// Aggregated union-automaton statistics: tables held, materialized
  /// states, flushes and lifetime probe counters summed over every union.
  /// Takes each union's mutex in turn, never two locks at once.
  DispatchStats dispatch_stats() const;

 private:
  const size_t max_states_;
  mutable Mutex mu_;
  /// Signature -> unwalked prototype. Entries are never erased, and the
  /// map's nodes do not move, so a prototype may be copied outside `mu_`.
  std::unordered_map<std::string, Dfa> dfas_ ANMAT_GUARDED_BY(mu_);
  /// Sorted-signature-set key -> shared lazy union automaton.
  std::unordered_map<std::string, std::shared_ptr<SharedUnion>> unions_
      ANMAT_GUARDED_BY(mu_);
  size_t hits_ ANMAT_GUARDED_BY(mu_) = 0;
  size_t misses_ ANMAT_GUARDED_BY(mu_) = 0;
  size_t union_hits_ ANMAT_GUARDED_BY(mu_) = 0;
  size_t union_misses_ ANMAT_GUARDED_BY(mu_) = 0;
};

}  // namespace anmat

#endif  // ANMAT_PATTERN_AUTOMATON_CACHE_H_
