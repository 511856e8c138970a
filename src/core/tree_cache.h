#ifndef CRASHSIM_CORE_TREE_CACHE_H_
#define CRASHSIM_CORE_TREE_CACHE_H_

#include <cstdint>
#include <functional>
#include <list>
#include <memory>
#include <unordered_map>

#include "core/crashsim.h"
#include "core/query_context.h"
#include "core/rev_reach.h"
#include "graph/graph.h"
#include "util/mutex.h"
#include "util/status.h"
#include "util/thread_annotations.h"

namespace crashsim {

// Shared single-flight cache for the serving path: revReach trees and
// complete single-source answers.
//
// CrashSim's per-query cost splits into one BuildRevReach for the source
// plus the Monte-Carlo trials. Both are deterministic: the tree is a pure
// function of (source, l_max, mode) and the per-cache constants (graph, c,
// prune_threshold), and a complete, undegraded score vector is a pure
// function of the same key under one engine's fixed options (scores depend
// only on (seed, source, candidate, trial range) — DESIGN.md §3b). So a
// server answering N queries for a hot source should build its tree once
// and run its trial loop once, not N times. The cache provides exactly that:
//
//  - Keyed by (kind, source, l_max, mode). The kind tag separates the two
//    value types: kTree entries hold a ReverseReachableTree, kAnswer
//    entries a complete PartialResult.
//  - Single-flight deduplication, one implementation for both kinds: the
//    first query for an absent key becomes the builder; concurrent queries
//    for the same key wait for that one computation instead of starting
//    their own (counted as coalesced). Waiters honour their own
//    deadline/cancellation while they wait.
//  - One LRU list and one byte count across both kinds, bounded by
//    capacity_bytes: answers evict least-recently-used trees and vice
//    versa. Evicted values stay alive for queries still holding them
//    (shared_ptr); the cache just forgets them.
//
// Failure semantics: a computation that fails (deadline, cancellation,
// kResourceExhausted from the builder's MemoryBudget, a thrown bad_alloc) —
// or, for answers, one that is not admissible (see GetOrComputeAnswer) — is
// NOT cached: the slot is removed and waiters wake; the first waiter still
// inside its own deadline retries as the new builder. A shed or truncated
// computation therefore never poisons the key for later, healthier queries.
//
// Thread safety: all methods are safe from any number of threads.
// Computations run outside the cache mutex; only map/LRU bookkeeping happens
// under it.

struct TreeCacheOptions {
  // Shared Monte-Carlo decay constant and revReach prune threshold; must
  // match the engine the trees are fed to (CrashSimOptions.mc.c and
  // .tree_prune_threshold).
  double c = 0.6;
  double prune_threshold = 1e-9;
  // Total bytes retained across trees and answers; the least-recently-used
  // entries of either kind are dropped once exceeded. 0 disables eviction
  // (unbounded cache).
  int64_t capacity_bytes = 256ll << 20;

  [[nodiscard]] Status Validate() const;
};

class TreeCache {
 public:
  using TreePtr = std::shared_ptr<const ReverseReachableTree>;
  using AnswerPtr = std::shared_ptr<const PartialResult>;
  using AnswerFn = std::function<PartialResult(QueryContext*)>;

  // The graph is borrowed and must outlive the cache (same contract as
  // CrashSim::Bind). CHECK-fails on invalid options — validate untrusted
  // flag values with options.Validate() first.
  TreeCache(const Graph* g, const TreeCacheOptions& options);

  TreeCache(const TreeCache&) = delete;
  TreeCache& operator=(const TreeCache&) = delete;

  // Returns the cached tree for (source, l_max, mode), building it (or
  // waiting for the in-flight build) when absent. The context — nullptr for
  // unbounded — bounds both the build (checked per level, charged to
  // ctx->memory_budget()) and the wait on someone else's build. Errors:
  // kInvalidArgument (bad source), kDeadlineExceeded / kCancelled,
  // kResourceExhausted (budget hit during the build).
  [[nodiscard]] StatusOr<TreePtr> GetOrBuild(NodeId source, int l_max,
                                             RevReachMode mode,
                                             QueryContext* ctx);

  // Returns the cached complete answer for (source, l_max, mode), or runs
  // `compute(ctx)` as the single-flight builder when absent. Every caller of
  // one cache must pass the same engine computation for a key: the key does
  // not name the engine's trial count or seed (the server owns one engine
  // per cache).
  //
  // Admission: the computed result is published only when it is complete
  // (status OK), ran every planned trial (trials_done == trials_target), and
  // ctx ran at trial fraction 1. Anything else — degraded, truncated,
  // cancelled or failed — goes back to its own caller uncached, and waiters
  // retry as described above. A ctx already at trial fraction < 1 bypasses
  // the cache entirely (no lookup, no insert, no counters).
  //
  // The returned answer may therefore carry a non-OK status (the caller's
  // own anytime result); the StatusOr itself fails only when the wait on
  // another query's computation ran out (kDeadlineExceeded / kCancelled) or
  // `compute` threw std::bad_alloc (kResourceExhausted).
  [[nodiscard]] StatusOr<AnswerPtr> GetOrComputeAnswer(NodeId source,
                                                       int l_max,
                                                       RevReachMode mode,
                                                       QueryContext* ctx,
                                                       const AnswerFn& compute);

  // Point-in-time counters; the same numbers feed the global cache.* (tree)
  // and answer_cache.* metrics for Prometheus export.
  struct Stats {
    // Tree entries.
    int64_t hits = 0;       // tree was resident
    int64_t misses = 0;     // this query became the builder
    int64_t coalesced = 0;  // this query waited on another query's build
    int64_t evictions = 0;
    int64_t bytes = 0;      // resident tree bytes
    int64_t trees = 0;      // resident tree count
    // Answer entries, same meanings.
    int64_t answer_hits = 0;
    int64_t answer_misses = 0;
    int64_t answer_coalesced = 0;
    int64_t answer_evictions = 0;
    int64_t answer_bytes = 0;
    int64_t answers = 0;
    // Both kinds together: what capacity_bytes bounds.
    int64_t resident_bytes() const { return bytes + answer_bytes; }
  };
  Stats stats() const;

  const TreeCacheOptions& options() const { return options_; }
  const Graph& graph() const { return *graph_; }

 private:
  enum class Kind : uint8_t { kTree = 0, kAnswer = 1 };
  static constexpr int kKinds = 2;

  struct Key {
    Kind kind;
    NodeId source;
    int l_max;
    RevReachMode mode;
    friend bool operator==(const Key&, const Key&) = default;
  };
  struct KeyHash {
    size_t operator()(const Key& k) const;
  };
  struct Slot {
    std::shared_ptr<const void> value;  // null while in flight
    int64_t bytes = 0;
    bool building = true;
    // Position in lru_ (valid only once built).
    std::list<Key>::iterator lru_it;
  };
  // A finished computation: the value handed back to the builder, its heap
  // footprint, and whether it may be published for other queries.
  struct Computed {
    std::shared_ptr<const void> value;
    int64_t bytes = 0;
    bool admit = true;
  };
  struct KindCounters {
    int64_t hits = 0;
    int64_t misses = 0;
    int64_t coalesced = 0;
    int64_t evictions = 0;
    int64_t bytes = 0;
    int64_t entries = 0;
  };

  // The single-flight core both kinds share: hit, coalesce onto the
  // in-flight computation, or become the builder and run `compute` outside
  // the lock. `compute` errors and non-admitted values are never published.
  // Time spent here, minus the time inside `compute` for answers (whose
  // computation attributes its own tree lookup and walks), is charged to
  // the query's cache_wait_seconds.
  [[nodiscard]] StatusOr<std::shared_ptr<const void>> GetOrCompute(
      const Key& key, QueryContext* ctx,
      const std::function<StatusOr<Computed>()>& compute);

  // Drops LRU-tail entries of either kind until bytes_ fits capacity again.
  // Never touches in-flight computations (they are not in lru_ yet).
  void EvictOverCapacityLocked() CRASHSIM_REQUIRES(mu_);
  void PublishGaugesLocked() const CRASHSIM_REQUIRES(mu_);

  const Graph* const graph_;
  const TreeCacheOptions options_;

  mutable Mutex mu_;
  CondVar built_;  // notified when a computation publishes or fails
  std::unordered_map<Key, Slot, KeyHash> slots_ CRASHSIM_GUARDED_BY(mu_);
  // Both kinds, front = hottest.
  std::list<Key> lru_ CRASHSIM_GUARDED_BY(mu_);
  int64_t bytes_ CRASHSIM_GUARDED_BY(mu_) = 0;
  KindCounters counters_[kKinds] CRASHSIM_GUARDED_BY(mu_);
};

// The serving path's single-source query over a shared cache: the cached
// complete answer for `source`, or — on a miss, or when ctx is degraded —
// every node scored against the cache-shared tree. Bit-identical to
// engine->SingleSource(source, ctx): the shared tree equals a per-query
// build and the scores are a pure function of (seed, source, candidate,
// trial range). `cache` must be built with the engine's c and
// tree_prune_threshold, and must serve no other engine.
PartialResult CachedSingleSource(TreeCache* cache, CrashSim* engine,
                                 NodeId source, QueryContext* ctx);

}  // namespace crashsim

#endif  // CRASHSIM_CORE_TREE_CACHE_H_
