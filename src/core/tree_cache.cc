#include "core/tree_cache.h"

#include <chrono>
#include <new>
#include <numeric>
#include <string>
#include <utility>
#include <vector>

#include "core/query_stats.h"
#include "util/failpoint.h"
#include "util/logging.h"
#include "util/metrics.h"
#include "util/rng.h"
#include "util/string_util.h"
#include "util/timer.h"
#include "util/trace.h"

namespace crashsim {
namespace {

// The process-wide view of one cache kind. Tree entries keep the cache.*
// names they have always exported; answers get their own answer_cache.*
// family.
struct KindMetrics {
  Counter& hits;
  Counter& misses;
  Counter& coalesced;
  Counter& evictions;
  Gauge& bytes;
  Gauge& entries;
};

KindMetrics MakeKindMetrics(const std::string& prefix, const char* entries) {
  MetricsRegistry& r = MetricsRegistry::Global();
  return {r.counter(prefix + ".hits"),      r.counter(prefix + ".misses"),
          r.counter(prefix + ".coalesced"), r.counter(prefix + ".evictions"),
          r.gauge(prefix + ".bytes"),       r.gauge(prefix + "." + entries)};
}

const KindMetrics& MetricsFor(int kind) {
  static const KindMetrics kMetrics[] = {
      MakeKindMetrics("cache", "trees"),
      MakeKindMetrics("answer_cache", "answers"),
  };
  return kMetrics[kind];
}

// Per-request attribution fields of each kind in QueryStats.
constexpr int64_t QueryStats::*kHitsField[] = {&QueryStats::cache_hits,
                                               &QueryStats::answer_cache_hits};
constexpr int64_t QueryStats::*kMissesField[] = {
    &QueryStats::cache_misses, &QueryStats::answer_cache_misses};
constexpr int64_t QueryStats::*kCoalescedField[] = {
    &QueryStats::cache_coalesced, &QueryStats::answer_cache_coalesced};

int64_t AnswerBytes(const PartialResult& r) {
  return static_cast<int64_t>(sizeof(PartialResult) +
                              r.scores.capacity() * sizeof(double) +
                              r.status.message().capacity());
}

}  // namespace

Status TreeCacheOptions::Validate() const {
  if (!(c > 0.0 && c < 1.0)) {
    return InvalidArgumentError(StrFormat("c must be in (0, 1), got %g", c));
  }
  if (prune_threshold < 0.0) {
    return InvalidArgumentError(StrFormat(
        "prune_threshold must be >= 0, got %g", prune_threshold));
  }
  if (capacity_bytes < 0) {
    return InvalidArgumentError(
        StrFormat("capacity_bytes must be >= 0, got %lld",
                  static_cast<long long>(capacity_bytes)));
  }
  return OkStatus();
}

size_t TreeCache::KeyHash::operator()(const Key& k) const {
  SplitMix64 mix((static_cast<uint64_t>(static_cast<uint32_t>(k.source))
                  << 32) ^
                 (static_cast<uint64_t>(static_cast<uint32_t>(k.l_max))
                  << 3) ^
                 (static_cast<uint64_t>(k.mode) << 1) ^
                 static_cast<uint64_t>(k.kind));
  return static_cast<size_t>(mix.Next());
}

TreeCache::TreeCache(const Graph* g, const TreeCacheOptions& options)
    : graph_(g), options_(options) {
  CRASHSIM_CHECK(g != nullptr) << "TreeCache requires a bound graph";
  if (Status s = options_.Validate(); !s.ok()) {
    CRASHSIM_CHECK(false) << "invalid TreeCacheOptions: " << s.ToString();
  }
  // Register both families up front so /metrics exports them at 0.
  for (int kind = 0; kind < kKinds; ++kind) MetricsFor(kind);
}

StatusOr<TreeCache::TreePtr> TreeCache::GetOrBuild(NodeId source, int l_max,
                                                   RevReachMode mode,
                                                   QueryContext* ctx) {
  TRACE_SPAN("tree_cache.get");
  StatusOr<std::shared_ptr<const void>> value = GetOrCompute(
      Key{Kind::kTree, source, l_max, mode}, ctx,
      [&]() -> StatusOr<Computed> {
        RETURN_IF_ERROR(CRASHSIM_FAILPOINT("tree_cache.build"));
        ASSIGN_OR_RETURN(ReverseReachableTree built,
                         BuildRevReach(*graph_, source, l_max, options_.c,
                                       mode, options_.prune_threshold, ctx));
        auto tree =
            std::make_shared<const ReverseReachableTree>(std::move(built));
        const int64_t bytes = tree->MemoryBytes();
        return Computed{std::move(tree), bytes, /*admit=*/true};
      });
  if (!value.ok()) {
    return value.status().WithContext("shared revReach build");
  }
  return std::static_pointer_cast<const ReverseReachableTree>(*value);
}

StatusOr<TreeCache::AnswerPtr> TreeCache::GetOrComputeAnswer(
    NodeId source, int l_max, RevReachMode mode, QueryContext* ctx,
    const AnswerFn& compute) {
  if (ctx != nullptr && ctx->trial_fraction() != 1.0) {
    // A degraded query plans fewer trials than the cached answer holds:
    // serving it the full answer would misreport its work, and its own
    // result must not enter the cache. Neither read nor write.
    return std::make_shared<const PartialResult>(compute(ctx));
  }
  TRACE_SPAN("answer_cache.get");
  StatusOr<std::shared_ptr<const void>> value = GetOrCompute(
      Key{Kind::kAnswer, source, l_max, mode}, ctx,
      [&]() -> StatusOr<Computed> {
        auto answer = std::make_shared<const PartialResult>(compute(ctx));
        const bool admit =
            answer->complete() &&
            answer->trials_done == answer->trials_target &&
            (ctx == nullptr || ctx->trial_fraction() == 1.0);
        const int64_t bytes = AnswerBytes(*answer);
        return Computed{std::move(answer), bytes, admit};
      });
  if (!value.ok()) {
    return value.status().WithContext("shared answer computation");
  }
  return std::static_pointer_cast<const PartialResult>(*value);
}

StatusOr<std::shared_ptr<const void>> TreeCache::GetOrCompute(
    const Key& key, QueryContext* ctx,
    const std::function<StatusOr<Computed>()>& compute) {
  const int kind = static_cast<int>(key.kind);
  // Per-request attribution (the process-wide counters cannot say which
  // query paid for a computation): outcome counts plus the wall time this
  // query spent inside the cache, recorded on every exit path. An answer
  // computation's own time is excluded: it charges its nested tree lookup
  // here and its walks to the walk stage.
  QueryStats* const qstats = ctx != nullptr ? ctx->stats() : nullptr;
  struct WaitRecorder {
    QueryStats* stats;
    Stopwatch sw;
    double excluded_seconds = 0.0;
    ~WaitRecorder() {
      if (stats != nullptr) {
        stats->cache_wait_seconds += sw.ElapsedSeconds() - excluded_seconds;
      }
    }
  } wait_recorder{qstats, {}};
  const KindMetrics& metrics = MetricsFor(kind);
  MutexLock lock(mu_);
  for (;;) {
    auto it = slots_.find(key);
    if (it != slots_.end() && !it->second.building) {
      ++counters_[kind].hits;
      metrics.hits.Add(1);
      if (qstats != nullptr) ++(qstats->*kHitsField[kind]);
      // Refresh LRU position: this key is hot again.
      lru_.splice(lru_.begin(), lru_, it->second.lru_it);
      return it->second.value;
    }
    if (it != slots_.end()) {
      // Another query is computing this entry right now: coalesce onto it.
      // Bounded waits so this query's own deadline/cancellation is honoured
      // promptly even if the builder stalls.
      ++counters_[kind].coalesced;
      metrics.coalesced.Add(1);
      if (qstats != nullptr) ++(qstats->*kCoalescedField[kind]);
      for (;;) {
        built_.WaitFor(mu_, std::chrono::milliseconds(5));
        if (ctx != nullptr) {
          if (Status s = ctx->Check(); !s.ok()) {
            return s.WithContext("waiting for a shared computation");
          }
        }
        auto again = slots_.find(key);
        if (again == slots_.end()) break;  // failed: retry from the top
        if (!again->second.building) {
          lru_.splice(lru_.begin(), lru_, again->second.lru_it);
          return again->second.value;
        }
      }
      continue;
    }

    // This query becomes the builder. Publish the in-flight slot, then
    // compute outside the lock so waiters and unrelated keys are not
    // serialised behind an O(l_max * m) build or a whole trial loop.
    ++counters_[kind].misses;
    metrics.misses.Add(1);
    if (qstats != nullptr) ++(qstats->*kMissesField[kind]);
    slots_.emplace(key, Slot{});
    lock.Unlock();
    // Everything that can fail runs outside the lock and funnels into
    // `computed`: a failure that escaped here (std::bad_alloc from the build
    // or from make_shared) would leave the in-flight slot behind with
    // building == true forever, and every later query for this key would
    // coalesce onto a computation that no longer exists.
    StatusOr<Computed> computed = Computed{};
    const Stopwatch compute_timer;
    try {
      computed = compute();
    } catch (const std::bad_alloc&) {
      computed = ResourceExhaustedError("out of memory in a shared cache "
                                        "computation");
    } catch (...) {
      // Unexpected escape (e.g. a fault hoisted out of a parallel region the
      // builder did not convert): still remove the in-flight slot so the key
      // is not poisoned, then let the exception propagate.
      lock.Lock();
      slots_.erase(key);
      built_.NotifyAll();
      throw;
    }
    if (key.kind == Kind::kAnswer) {
      wait_recorder.excluded_seconds = compute_timer.ElapsedSeconds();
    }
    lock.Lock();
    if (!computed.ok() || !computed->admit) {
      // Never cache a failed, partial or degraded result; wake waiters so
      // one of them can retry as the new builder.
      slots_.erase(key);
      built_.NotifyAll();
      if (!computed.ok()) return computed.status();
      return std::move(computed->value);
    }
    Slot& slot = slots_[key];
    slot.value = computed->value;
    slot.bytes = computed->bytes;
    slot.building = false;
    lru_.push_front(key);
    slot.lru_it = lru_.begin();
    bytes_ += slot.bytes;
    counters_[kind].bytes += slot.bytes;
    ++counters_[kind].entries;
    EvictOverCapacityLocked();
    PublishGaugesLocked();
    built_.NotifyAll();
    return std::move(computed->value);
  }
}

void TreeCache::EvictOverCapacityLocked() {
  if (options_.capacity_bytes == 0) return;
  while (bytes_ > options_.capacity_bytes && !lru_.empty()) {
    const Key victim = lru_.back();
    lru_.pop_back();
    auto it = slots_.find(victim);
    CRASHSIM_CHECK(it != slots_.end() && !it->second.building)
        << "LRU entry without a built slot";
    const int kind = static_cast<int>(victim.kind);
    bytes_ -= it->second.bytes;
    counters_[kind].bytes -= it->second.bytes;
    --counters_[kind].entries;
    ++counters_[kind].evictions;
    MetricsFor(kind).evictions.Add(1);
    slots_.erase(it);
  }
}

void TreeCache::PublishGaugesLocked() const {
  for (int kind = 0; kind < kKinds; ++kind) {
    MetricsFor(kind).bytes.Set(counters_[kind].bytes);
    MetricsFor(kind).entries.Set(counters_[kind].entries);
  }
}

TreeCache::Stats TreeCache::stats() const {
  const MutexLock lock(mu_);
  const KindCounters& tree = counters_[static_cast<int>(Kind::kTree)];
  const KindCounters& answer = counters_[static_cast<int>(Kind::kAnswer)];
  Stats s;
  s.hits = tree.hits;
  s.misses = tree.misses;
  s.coalesced = tree.coalesced;
  s.evictions = tree.evictions;
  s.bytes = tree.bytes;
  s.trees = tree.entries;
  s.answer_hits = answer.hits;
  s.answer_misses = answer.misses;
  s.answer_coalesced = answer.coalesced;
  s.answer_evictions = answer.evictions;
  s.answer_bytes = answer.bytes;
  s.answers = answer.entries;
  return s;
}

PartialResult CachedSingleSource(TreeCache* cache, CrashSim* engine,
                                 NodeId source, QueryContext* ctx) {
  const int l_max = engine->LMax();
  const RevReachMode mode = engine->options().mode;
  StatusOr<TreeCache::AnswerPtr> answer = cache->GetOrComputeAnswer(
      source, l_max, mode, ctx, [&](QueryContext* run_ctx) {
        StatusOr<TreeCache::TreePtr> tree =
            cache->GetOrBuild(source, l_max, mode, run_ctx);
        if (!tree.ok()) {
          PartialResult r;
          r.status = tree.status();
          return r;
        }
        std::vector<NodeId> all(
            static_cast<size_t>(cache->graph().num_nodes()));
        std::iota(all.begin(), all.end(), 0);
        return engine->PartialWithTree(**tree, all, run_ctx);
      });
  if (!answer.ok()) {
    PartialResult r;
    r.status = answer.status();
    return r;
  }
  return **answer;
}

}  // namespace crashsim
