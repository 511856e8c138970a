#include "core/tree_cache.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <numeric>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "core/crashsim.h"
#include "graph/generators.h"
#include "util/failpoint.h"
#include "util/memory_budget.h"
#include "util/rng.h"
#include "util/status.h"

namespace crashsim {
namespace {

using std::chrono::milliseconds;

CrashSimOptions TestEngineOptions() {
  CrashSimOptions opt;
  opt.mc.trials_override = 100;
  opt.mc.seed = 17;
  return opt;
}

TreeCacheOptions MatchingCacheOptions(const CrashSimOptions& engine) {
  TreeCacheOptions opt;
  opt.c = engine.mc.c;
  opt.prune_threshold = engine.tree_prune_threshold;
  return opt;
}

std::vector<NodeId> AllNodes(const Graph& g) {
  std::vector<NodeId> all(static_cast<size_t>(g.num_nodes()));
  std::iota(all.begin(), all.end(), 0);
  return all;
}

TEST(TreeCacheOptionsTest, ValidateRejectsBadValues) {
  TreeCacheOptions opt;
  opt.c = 0.0;
  EXPECT_EQ(opt.Validate().code(), StatusCode::kInvalidArgument);
  opt = TreeCacheOptions{};
  opt.c = 1.0;
  EXPECT_EQ(opt.Validate().code(), StatusCode::kInvalidArgument);
  opt = TreeCacheOptions{};
  opt.prune_threshold = -1e-3;
  EXPECT_EQ(opt.Validate().code(), StatusCode::kInvalidArgument);
  opt = TreeCacheOptions{};
  opt.capacity_bytes = -1;
  EXPECT_EQ(opt.Validate().code(), StatusCode::kInvalidArgument);
  EXPECT_TRUE(TreeCacheOptions{}.Validate().ok());
}

TEST(TreeCacheTest, CachedTreeEqualsDirectBuild) {
  Rng rng(5);
  const Graph g = ErdosRenyi(300, 1500, /*undirected=*/false, &rng);
  const CrashSimOptions eopt = TestEngineOptions();
  CrashSim engine(eopt);
  engine.Bind(&g);

  TreeCache cache(&g, MatchingCacheOptions(eopt));
  QueryContext ctx;
  StatusOr<TreeCache::TreePtr> cached =
      cache.GetOrBuild(7, engine.LMax(), eopt.mode, &ctx);
  ASSERT_TRUE(cached.ok()) << cached.status().ToString();
  EXPECT_TRUE(**cached == engine.BuildTree(7));
}

TEST(TreeCacheTest, SecondLookupHitsAndDistinctKeysMiss) {
  Rng rng(5);
  const Graph g = ErdosRenyi(200, 900, /*undirected=*/false, &rng);
  const CrashSimOptions eopt = TestEngineOptions();
  CrashSim engine(eopt);
  engine.Bind(&g);
  TreeCache cache(&g, MatchingCacheOptions(eopt));

  QueryContext ctx;
  const int l_max = engine.LMax();
  ASSERT_TRUE(cache.GetOrBuild(3, l_max, eopt.mode, &ctx).ok());
  ASSERT_TRUE(cache.GetOrBuild(3, l_max, eopt.mode, &ctx).ok());
  ASSERT_TRUE(cache.GetOrBuild(4, l_max, eopt.mode, &ctx).ok());
  // Same source at a different l_max is a different tree: no false sharing.
  ASSERT_TRUE(cache.GetOrBuild(3, l_max - 1, eopt.mode, &ctx).ok());

  const TreeCache::Stats stats = cache.stats();
  EXPECT_EQ(stats.hits, 1);
  EXPECT_EQ(stats.misses, 3);
  EXPECT_EQ(stats.trees, 3);
  EXPECT_GT(stats.bytes, 0);
}

// The serving-path correctness claim: scoring against a cache-shared tree is
// bit-identical to the uncached SingleSource path, including when many
// threads share one engine and one cached tree concurrently (ctx-path
// scores are a pure function of (seed, source, candidate)).
TEST(TreeCacheTest, ConcurrentSharedTreeQueriesAreBitIdenticalToUncached) {
  Rng rng(9);
  const Graph g = ErdosRenyi(300, 1500, /*undirected=*/false, &rng);
  const CrashSimOptions eopt = TestEngineOptions();
  CrashSim engine(eopt);
  engine.Bind(&g);

  constexpr NodeId kSource = 11;
  QueryContext direct_ctx;
  const PartialResult expected = engine.SingleSource(kSource, &direct_ctx);
  ASSERT_TRUE(expected.status.ok());

  TreeCache cache(&g, MatchingCacheOptions(eopt));
  const std::vector<NodeId> all = AllNodes(g);
  constexpr int kThreads = 8;
  std::vector<PartialResult> results(kThreads);
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      QueryContext ctx;
      StatusOr<TreeCache::TreePtr> tree =
          cache.GetOrBuild(kSource, engine.LMax(), eopt.mode, &ctx);
      ASSERT_TRUE(tree.ok()) << tree.status().ToString();
      results[static_cast<size_t>(t)] =
          engine.PartialWithTree(**tree, all, &ctx);
    });
  }
  for (std::thread& t : threads) t.join();

  for (const PartialResult& r : results) {
    ASSERT_TRUE(r.status.ok());
    EXPECT_EQ(r.trials_done, expected.trials_done);
    EXPECT_EQ(r.scores, expected.scores);
  }
  const TreeCache::Stats stats = cache.stats();
  EXPECT_EQ(stats.misses, 1);  // one build total across all eight threads
  EXPECT_EQ(stats.hits + stats.coalesced, kThreads - 1);
}

// Single-flight observability: with the build slowed by the rev_reach.build
// latency failpoint, threads arriving during the in-flight build must
// coalesce onto it (cache.coalesced > 0) instead of re-entering the builder
// path — the metric the smoke lane asserts on.
TEST(TreeCacheTest, InFlightBuildCoalescesWaiters) {
  Rng rng(13);
  const Graph g = ErdosRenyi(200, 900, /*undirected=*/false, &rng);
  const CrashSimOptions eopt = TestEngineOptions();
  CrashSim engine(eopt);
  engine.Bind(&g);
  TreeCache cache(&g, MatchingCacheOptions(eopt));

  FailpointScope failpoints(/*seed=*/3);
  FailpointSpec spec;
  spec.action = FailpointAction::kLatency;
  spec.latency_ms = 100;
  spec.max_fires = 1;  // only the first build is slowed
  ASSERT_TRUE(ConfigureFailpoint("rev_reach.build", spec).ok());

  std::atomic<bool> builder_started{false};
  std::thread builder([&] {
    QueryContext ctx;
    builder_started.store(true);
    StatusOr<TreeCache::TreePtr> tree =
        cache.GetOrBuild(2, engine.LMax(), eopt.mode, &ctx);
    EXPECT_TRUE(tree.ok());
  });
  while (!builder_started.load()) std::this_thread::yield();
  // Give the builder time to claim the slot and enter the slowed build.
  std::this_thread::sleep_for(milliseconds(20));

  QueryContext ctx;
  StatusOr<TreeCache::TreePtr> tree =
      cache.GetOrBuild(2, engine.LMax(), eopt.mode, &ctx);
  builder.join();
  ASSERT_TRUE(tree.ok()) << tree.status().ToString();

  const TreeCache::Stats stats = cache.stats();
  EXPECT_EQ(stats.misses, 1);
  EXPECT_EQ(stats.coalesced, 1);
  EXPECT_EQ(stats.trees, 1);
}

// A waiter's own deadline is honoured while it waits on someone else's
// build: it gives up with kDeadlineExceeded, the builder still completes.
TEST(TreeCacheTest, WaiterDeadlineExpiresDuringInFlightBuild) {
  Rng rng(13);
  const Graph g = ErdosRenyi(200, 900, /*undirected=*/false, &rng);
  const CrashSimOptions eopt = TestEngineOptions();
  CrashSim engine(eopt);
  engine.Bind(&g);
  TreeCache cache(&g, MatchingCacheOptions(eopt));

  FailpointScope failpoints(/*seed=*/3);
  FailpointSpec spec;
  spec.action = FailpointAction::kLatency;
  spec.latency_ms = 200;
  spec.max_fires = 1;
  ASSERT_TRUE(ConfigureFailpoint("rev_reach.build", spec).ok());

  std::atomic<bool> builder_started{false};
  std::thread builder([&] {
    QueryContext ctx;
    builder_started.store(true);
    EXPECT_TRUE(cache.GetOrBuild(2, engine.LMax(), eopt.mode, &ctx).ok());
  });
  while (!builder_started.load()) std::this_thread::yield();
  std::this_thread::sleep_for(milliseconds(20));

  QueryContext ctx(milliseconds(30));
  StatusOr<TreeCache::TreePtr> tree =
      cache.GetOrBuild(2, engine.LMax(), eopt.mode, &ctx);
  EXPECT_EQ(tree.status().code(), StatusCode::kDeadlineExceeded);
  builder.join();
  EXPECT_EQ(cache.stats().trees, 1);  // the build itself still landed
}

// A build shed by the builder's MemoryBudget surfaces kResourceExhausted and
// must NOT poison the slot: the next (budget-free) query builds normally.
TEST(TreeCacheTest, BudgetShedBuildIsNotCachedAndSlotRecovers) {
  Rng rng(21);
  const Graph g = ErdosRenyi(400, 3000, /*undirected=*/false, &rng);
  const CrashSimOptions eopt = TestEngineOptions();
  CrashSim engine(eopt);
  engine.Bind(&g);
  TreeCache cache(&g, MatchingCacheOptions(eopt));

  MemoryBudget tiny(64);  // far below any revReach scratch allocation
  QueryContext starved;
  starved.set_memory_budget(&tiny);
  StatusOr<TreeCache::TreePtr> shed =
      cache.GetOrBuild(1, engine.LMax(), eopt.mode, &starved);
  ASSERT_FALSE(shed.ok());
  EXPECT_EQ(shed.status().code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(cache.stats().trees, 0);

  QueryContext healthy;
  StatusOr<TreeCache::TreePtr> ok =
      cache.GetOrBuild(1, engine.LMax(), eopt.mode, &healthy);
  ASSERT_TRUE(ok.ok()) << ok.status().ToString();
  EXPECT_TRUE(**ok == engine.BuildTree(1));
  EXPECT_EQ(cache.stats().trees, 1);
}

// LRU eviction under byte pressure: capacity for roughly one tree means
// inserting a second evicts the first, resident bytes stay bounded, and an
// evicted tree already handed to a query remains valid (shared ownership).
TEST(TreeCacheTest, EvictsLeastRecentlyUsedUnderCapacityPressure) {
  Rng rng(31);
  const Graph g = ErdosRenyi(300, 1500, /*undirected=*/false, &rng);
  const CrashSimOptions eopt = TestEngineOptions();
  CrashSim engine(eopt);
  engine.Bind(&g);

  QueryContext ctx;
  TreeCacheOptions copt = MatchingCacheOptions(eopt);
  // Size the capacity from a real build: one tree fits, two do not.
  const ReverseReachableTree probe = engine.BuildTree(0);
  copt.capacity_bytes = probe.MemoryBytes() * 3 / 2;
  TreeCache cache(&g, copt);

  StatusOr<TreeCache::TreePtr> first =
      cache.GetOrBuild(0, engine.LMax(), eopt.mode, &ctx);
  ASSERT_TRUE(first.ok());
  StatusOr<TreeCache::TreePtr> second =
      cache.GetOrBuild(1, engine.LMax(), eopt.mode, &ctx);
  ASSERT_TRUE(second.ok());

  const TreeCache::Stats stats = cache.stats();
  EXPECT_GE(stats.evictions, 1);
  EXPECT_LE(stats.bytes, copt.capacity_bytes);
  // The evicted tree outlives its cache slot for the query still holding it.
  EXPECT_TRUE(**first == probe);

  // Re-querying the evicted key is a miss (it really is gone) ...
  const int64_t misses_before = cache.stats().misses;
  ASSERT_TRUE(cache.GetOrBuild(0, engine.LMax(), eopt.mode, &ctx).ok());
  EXPECT_EQ(cache.stats().misses, misses_before + 1);
}

// Regression: an exception escaping the build — here a simulated allocation
// failure injected at the tree_cache.build failpoint — used to leave the
// in-flight slot behind with building == true and no builder. Every later
// query for that key then coalesced onto a build that no longer existed:
// deadline-free queries hung, deadline-bearing ones burned their whole
// budget and came back kDeadlineExceeded. The cache must convert the
// bad_alloc into kResourceExhausted, drop the slot, and let the next query
// rebuild the key normally.
TEST(TreeCacheTest, BadAllocDuringBuildDoesNotPoisonTheKey) {
  Rng rng(41);
  const Graph g = ErdosRenyi(200, 900, /*undirected=*/false, &rng);
  const CrashSimOptions eopt = TestEngineOptions();
  CrashSim engine(eopt);
  engine.Bind(&g);
  TreeCache cache(&g, MatchingCacheOptions(eopt));

  {
    FailpointScope failpoints(/*seed=*/7);
    FailpointSpec spec;
    spec.action = FailpointAction::kBadAlloc;
    spec.max_fires = 1;
    ASSERT_TRUE(ConfigureFailpoint("tree_cache.build", spec).ok());
    StatusOr<TreeCache::TreePtr> faulted =
        cache.GetOrBuild(3, engine.LMax(), eopt.mode, nullptr);
    ASSERT_FALSE(faulted.ok());
    EXPECT_EQ(faulted.status().code(), StatusCode::kResourceExhausted);
    EXPECT_EQ(cache.stats().trees, 0);
  }

  // Pre-fix, this lookup found the leaked in-flight slot and waited for a
  // builder that did not exist until its deadline expired. The deadline
  // bounds the regression to a quick failure instead of a test hang.
  QueryContext ctx(milliseconds(2000));
  StatusOr<TreeCache::TreePtr> rebuilt =
      cache.GetOrBuild(3, engine.LMax(), eopt.mode, &ctx);
  ASSERT_TRUE(rebuilt.ok()) << rebuilt.status().ToString();
  EXPECT_TRUE(**rebuilt == engine.BuildTree(3));
  EXPECT_EQ(cache.stats().misses, 2);
  EXPECT_EQ(cache.stats().trees, 1);
}

// --- answer entries --------------------------------------------------------

// Polls `done` for up to five seconds; the single-flight tests use it to hold
// a builder until the other threads have provably coalesced onto it.
template <typename Pred>
bool WaitUntil(Pred done) {
  const auto deadline = std::chrono::steady_clock::now() + milliseconds(5000);
  while (!done()) {
    if (std::chrono::steady_clock::now() > deadline) return false;
    std::this_thread::sleep_for(milliseconds(1));
  }
  return true;
}

PartialResult Failed(StatusCode code) {
  PartialResult r;
  r.status = Status(code, "synthetic");
  return r;
}

// N threads ask for one source's answer at once: exactly one computation
// runs, the other N-1 queries coalesce onto it, and every thread gets the
// same vector — the one an uncached SingleSource produces.
TEST(AnswerCacheTest, ConcurrentQueriesForOneSourceRunOneComputation) {
  Rng rng(9);
  const Graph g = ErdosRenyi(300, 1500, /*undirected=*/false, &rng);
  const CrashSimOptions eopt = TestEngineOptions();
  CrashSim engine(eopt);
  engine.Bind(&g);
  constexpr NodeId kSource = 11;
  QueryContext direct_ctx;
  const PartialResult expected = engine.SingleSource(kSource, &direct_ctx);
  ASSERT_TRUE(expected.status.ok());

  TreeCache cache(&g, MatchingCacheOptions(eopt));
  constexpr int kThreads = 8;
  std::atomic<int> computations{0};
  const TreeCache::AnswerFn compute = [&](QueryContext* ctx) {
    computations.fetch_add(1);
    // Hold the computation until every other thread has coalesced onto it.
    EXPECT_TRUE(WaitUntil(
        [&] { return cache.stats().answer_coalesced == kThreads - 1; }));
    return engine.SingleSource(kSource, ctx);
  };
  std::vector<TreeCache::AnswerPtr> answers(kThreads);
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      QueryContext ctx;
      StatusOr<TreeCache::AnswerPtr> answer = cache.GetOrComputeAnswer(
          kSource, engine.LMax(), eopt.mode, &ctx, compute);
      ASSERT_TRUE(answer.ok()) << answer.status().ToString();
      answers[static_cast<size_t>(t)] = *answer;
    });
  }
  for (std::thread& t : threads) t.join();

  EXPECT_EQ(computations.load(), 1);
  const TreeCache::Stats stats = cache.stats();
  EXPECT_EQ(stats.answer_misses, 1);
  EXPECT_EQ(stats.answer_coalesced, kThreads - 1);
  EXPECT_EQ(stats.answer_hits, 0);
  EXPECT_EQ(stats.answers, 1);
  for (const TreeCache::AnswerPtr& answer : answers) {
    ASSERT_NE(answer, nullptr);
    ASSERT_TRUE(answer->status.ok());
    EXPECT_EQ(answer->trials_done, expected.trials_done);
    EXPECT_EQ(answer->scores, expected.scores);
  }
}

// Only a complete, full-trial, undegraded result is admitted. Truncated,
// short-of-target, cancelled and failed results go back to their own caller
// uncached, so the next lookup is a miss that computes afresh.
TEST(AnswerCacheTest, OnlyCompleteFullTrialResultsAreAdmitted) {
  Rng rng(5);
  const Graph g = ErdosRenyi(100, 400, /*undirected=*/false, &rng);
  TreeCache cache(&g, TreeCacheOptions{});

  PartialResult truncated = Failed(StatusCode::kDeadlineExceeded);
  truncated.scores.assign(100, 0.25);
  truncated.trials_done = 3;
  truncated.trials_target = 100;
  PartialResult short_of_target;
  short_of_target.scores.assign(100, 0.5);
  short_of_target.trials_done = 99;
  short_of_target.trials_target = 100;
  const std::vector<PartialResult> rejected = {
      truncated, short_of_target, Failed(StatusCode::kCancelled),
      Failed(StatusCode::kUnavailable),
      Failed(StatusCode::kResourceExhausted)};
  for (const PartialResult& result : rejected) {
    SCOPED_TRACE(result.status.ToString());
    const int64_t misses_before = cache.stats().answer_misses;
    QueryContext ctx;
    StatusOr<TreeCache::AnswerPtr> answer = cache.GetOrComputeAnswer(
        4, 5, RevReachMode::kCorrected, &ctx,
        [&](QueryContext*) { return result; });
    ASSERT_TRUE(answer.ok());
    // The builder still gets its own (anytime) result back ...
    EXPECT_EQ((*answer)->status.code(), result.status.code());
    EXPECT_EQ((*answer)->scores, result.scores);
    // ... but nothing was published.
    EXPECT_EQ(cache.stats().answers, 0);
    EXPECT_EQ(cache.stats().answer_bytes, 0);
    EXPECT_EQ(cache.stats().answer_misses, misses_before + 1);
  }

  PartialResult complete;
  complete.scores.assign(100, 0.125);
  complete.trials_done = 100;
  complete.trials_target = 100;
  QueryContext ctx;
  ASSERT_TRUE(cache
                  .GetOrComputeAnswer(4, 5, RevReachMode::kCorrected, &ctx,
                                      [&](QueryContext*) { return complete; })
                  .ok());
  EXPECT_EQ(cache.stats().answers, 1);
  StatusOr<TreeCache::AnswerPtr> hit = cache.GetOrComputeAnswer(
      4, 5, RevReachMode::kCorrected, &ctx, [&](QueryContext*) {
        ADD_FAILURE() << "a resident answer must not be recomputed";
        return complete;
      });
  ASSERT_TRUE(hit.ok());
  EXPECT_EQ((*hit)->scores, complete.scores);
  EXPECT_EQ(cache.stats().answer_hits, 1);
}

// A query admitted at a degraded trial fraction neither reads nor writes the
// answer cache: it runs its own shrunken trial budget even when the full
// answer is resident, and its result is not published.
TEST(AnswerCacheTest, DegradedQueryBypassesTheAnswerCache) {
  Rng rng(5);
  const Graph g = ErdosRenyi(200, 900, /*undirected=*/false, &rng);
  const CrashSimOptions eopt = TestEngineOptions();
  CrashSim engine(eopt);
  engine.Bind(&g);
  TreeCache cache(&g, MatchingCacheOptions(eopt));

  QueryContext degraded;
  degraded.set_trial_fraction(0.5);
  const PartialResult first = CachedSingleSource(&cache, &engine, 3, &degraded);
  ASSERT_TRUE(first.status.ok());
  EXPECT_EQ(first.trials_target, 50);
  TreeCache::Stats stats = cache.stats();
  EXPECT_EQ(stats.answers, 0);
  EXPECT_EQ(stats.answer_misses + stats.answer_hits + stats.answer_coalesced,
            0);

  QueryContext full;
  const PartialResult complete = CachedSingleSource(&cache, &engine, 3, &full);
  ASSERT_TRUE(complete.status.ok());
  EXPECT_EQ(complete.trials_done, 100);
  EXPECT_EQ(cache.stats().answers, 1);

  QueryContext degraded_again;
  degraded_again.set_trial_fraction(0.5);
  const PartialResult second =
      CachedSingleSource(&cache, &engine, 3, &degraded_again);
  EXPECT_EQ(second.trials_done, 50);  // not the resident full answer
  EXPECT_EQ(second.scores, first.scores);
  stats = cache.stats();
  EXPECT_EQ(stats.answer_hits, 0);
  EXPECT_EQ(stats.answer_misses, 1);
}

// Real engine faults: a deadline-truncated answer, a failpoint-failed trial
// loop and an allocation failure in the shared tree build are all returned
// to their caller and never served later; the next healthy query recomputes
// and matches the uncached SingleSource bit for bit.
TEST(AnswerCacheTest, TruncatedAndFaultedAnswersAreNeverServed) {
  Rng rng(21);
  const Graph g = ErdosRenyi(200, 900, /*undirected=*/false, &rng);
  const CrashSimOptions eopt = TestEngineOptions();
  CrashSim engine(eopt);
  engine.Bind(&g);
  constexpr NodeId kSource = 6;
  QueryContext direct_ctx;
  const PartialResult expected = engine.SingleSource(kSource, &direct_ctx);
  ASSERT_TRUE(expected.status.ok());
  TreeCache cache(&g, MatchingCacheOptions(eopt));

  const auto healthy_matches = [&] {
    QueryContext ctx;
    const PartialResult r = CachedSingleSource(&cache, &engine, kSource, &ctx);
    EXPECT_TRUE(r.status.ok()) << r.status.ToString();
    EXPECT_EQ(r.scores, expected.scores);
  };

  // Deadline truncation: with the tree resident, an already-expired
  // deadline still runs the first one-trial block, then stops.
  ASSERT_TRUE(
      cache.GetOrBuild(kSource, engine.LMax(), eopt.mode, nullptr).ok());
  QueryContext expired(milliseconds(0));
  const PartialResult truncated =
      CachedSingleSource(&cache, &engine, kSource, &expired);
  EXPECT_EQ(truncated.status.code(), StatusCode::kDeadlineExceeded);
  EXPECT_EQ(truncated.trials_done, 1);
  EXPECT_EQ(cache.stats().answers, 0);

  {
    FailpointScope failpoints(/*seed=*/5);
    FailpointSpec spec;
    spec.action = FailpointAction::kError;
    spec.code = StatusCode::kUnavailable;
    spec.max_fires = 1;
    ASSERT_TRUE(ConfigureFailpoint("crashsim.trial_block", spec).ok());
    QueryContext ctx;
    const PartialResult faulted =
        CachedSingleSource(&cache, &engine, kSource, &ctx);
    EXPECT_EQ(faulted.status.code(), StatusCode::kUnavailable);
    EXPECT_EQ(cache.stats().answers, 0);
  }

  {
    // A fresh source, so the nested tree build runs and hits the fault.
    FailpointScope failpoints(/*seed=*/5);
    FailpointSpec spec;
    spec.action = FailpointAction::kBadAlloc;
    spec.max_fires = 1;
    ASSERT_TRUE(ConfigureFailpoint("tree_cache.build", spec).ok());
    QueryContext ctx;
    const PartialResult oom = CachedSingleSource(&cache, &engine, 7, &ctx);
    EXPECT_EQ(oom.status.code(), StatusCode::kResourceExhausted);
    EXPECT_EQ(cache.stats().answers, 0);
  }

  EXPECT_EQ(cache.stats().answer_misses, 3);
  healthy_matches();
  EXPECT_EQ(cache.stats().answers, 1);
  EXPECT_EQ(cache.stats().answer_misses, 4);
  healthy_matches();  // now served from the cache
  EXPECT_EQ(cache.stats().answer_hits, 1);
}

// When the builder's computation fails, its waiters wake and one of them
// retries as the new builder instead of inheriting the failure.
TEST(AnswerCacheTest, FailedComputationWakesAWaiterToRetryAsBuilder) {
  Rng rng(13);
  const Graph g = ErdosRenyi(200, 900, /*undirected=*/false, &rng);
  const CrashSimOptions eopt = TestEngineOptions();
  CrashSim engine(eopt);
  engine.Bind(&g);
  TreeCache cache(&g, MatchingCacheOptions(eopt));
  constexpr NodeId kSource = 2;

  std::thread failing_builder([&] {
    QueryContext ctx;
    StatusOr<TreeCache::AnswerPtr> answer = cache.GetOrComputeAnswer(
        kSource, engine.LMax(), eopt.mode, &ctx, [&](QueryContext*) {
          // Fail only once the waiter has coalesced onto this computation.
          EXPECT_TRUE(
              WaitUntil([&] { return cache.stats().answer_coalesced == 1; }));
          return Failed(StatusCode::kUnavailable);
        });
    ASSERT_TRUE(answer.ok());
    EXPECT_EQ((*answer)->status.code(), StatusCode::kUnavailable);
  });
  ASSERT_TRUE(WaitUntil([&] { return cache.stats().answer_misses == 1; }));

  QueryContext ctx(milliseconds(5000));
  StatusOr<TreeCache::AnswerPtr> retried = cache.GetOrComputeAnswer(
      kSource, engine.LMax(), eopt.mode, &ctx,
      [&](QueryContext* run_ctx) {
        return engine.SingleSource(kSource, run_ctx);
      });
  failing_builder.join();
  ASSERT_TRUE(retried.ok()) << retried.status().ToString();
  EXPECT_TRUE((*retried)->status.ok());
  const TreeCache::Stats stats = cache.stats();
  EXPECT_EQ(stats.answer_coalesced, 1);
  EXPECT_EQ(stats.answer_misses, 2);  // the waiter became the second builder
  EXPECT_EQ(stats.answers, 1);
}

// A waiter's own deadline is honoured while it waits on another query's
// answer computation, exactly as for tree builds.
TEST(AnswerCacheTest, WaiterDeadlineExpiresDuringInFlightComputation) {
  Rng rng(13);
  const Graph g = ErdosRenyi(100, 400, /*undirected=*/false, &rng);
  TreeCache cache(&g, TreeCacheOptions{});
  std::atomic<bool> release{false};
  const TreeCache::AnswerFn slow_compute = [&](QueryContext*) {
    EXPECT_TRUE(WaitUntil([&] { return release.load(); }));
    PartialResult r;
    r.scores.assign(100, 0.5);
    r.trials_done = r.trials_target = 7;
    return r;
  };
  std::thread builder([&] {
    QueryContext ctx;
    EXPECT_TRUE(cache
                    .GetOrComputeAnswer(1, 5, RevReachMode::kCorrected, &ctx,
                                        slow_compute)
                    .ok());
  });
  ASSERT_TRUE(WaitUntil([&] { return cache.stats().answer_misses == 1; }));
  QueryContext ctx(milliseconds(30));
  StatusOr<TreeCache::AnswerPtr> waited = cache.GetOrComputeAnswer(
      1, 5, RevReachMode::kCorrected, &ctx, [&](QueryContext*) {
        ADD_FAILURE() << "the waiter must not compute";
        return PartialResult{};
      });
  EXPECT_EQ(waited.status().code(), StatusCode::kDeadlineExceeded);
  release.store(true);
  builder.join();
  EXPECT_EQ(cache.stats().answers, 1);  // the computation itself landed
}

// Trees and answers share one LRU list and one byte budget: an answer evicts
// the least-recently-used tree, a tree evicts the least-recently-used
// answer, and resident bytes never exceed the capacity.
TEST(AnswerCacheTest, TreesAndAnswersShareOneByteBudget) {
  Rng rng(31);
  const Graph g = ErdosRenyi(300, 1500, /*undirected=*/false, &rng);
  const CrashSimOptions eopt = TestEngineOptions();
  CrashSim engine(eopt);
  engine.Bind(&g);
  const int l_max = engine.LMax();
  PartialResult complete;
  complete.scores.assign(static_cast<size_t>(g.num_nodes()), 0.5);
  complete.trials_done = complete.trials_target = 100;
  const auto compute = [&](QueryContext*) { return complete; };

  // Measure one tree and one answer in an unbounded cache first.
  TreeCacheOptions copt = MatchingCacheOptions(eopt);
  copt.capacity_bytes = 0;
  int64_t tree_bytes = 0;
  int64_t answer_bytes = 0;
  {
    TreeCache probe(&g, copt);
    ASSERT_TRUE(probe.GetOrBuild(0, l_max, eopt.mode, nullptr).ok());
    ASSERT_TRUE(
        probe.GetOrComputeAnswer(1, l_max, eopt.mode, nullptr, compute).ok());
    tree_bytes = probe.stats().bytes;
    answer_bytes = probe.stats().answer_bytes;
  }
  ASSERT_GT(tree_bytes, 0);
  ASSERT_GT(answer_bytes, 0);
  // Room for either entry alone, never for both.
  copt.capacity_bytes = std::max(tree_bytes, answer_bytes) +
                        std::min(tree_bytes, answer_bytes) / 2;
  TreeCache cache(&g, copt);

  ASSERT_TRUE(cache.GetOrBuild(0, l_max, eopt.mode, nullptr).ok());
  EXPECT_EQ(cache.stats().trees, 1);
  ASSERT_TRUE(
      cache.GetOrComputeAnswer(1, l_max, eopt.mode, nullptr, compute).ok());
  TreeCache::Stats stats = cache.stats();
  EXPECT_EQ(stats.trees, 0);  // the answer evicted the tree
  EXPECT_EQ(stats.evictions, 1);
  EXPECT_EQ(stats.answers, 1);
  EXPECT_LE(stats.resident_bytes(), copt.capacity_bytes);

  ASSERT_TRUE(cache.GetOrBuild(0, l_max, eopt.mode, nullptr).ok());
  stats = cache.stats();
  EXPECT_EQ(stats.misses, 2);  // the evicted tree really was gone
  EXPECT_EQ(stats.trees, 1);
  EXPECT_EQ(stats.answers, 0);  // the tree evicted the answer
  EXPECT_EQ(stats.answer_evictions, 1);
  EXPECT_EQ(stats.resident_bytes(), tree_bytes);
  EXPECT_LE(stats.resident_bytes(), copt.capacity_bytes);
}

// The cache key carries the kind: a tree and an answer for the same
// (source, l_max, mode) are separate entries that never alias.
TEST(AnswerCacheTest, TreeAndAnswerForOneKeyAreSeparateEntries) {
  Rng rng(5);
  const Graph g = ErdosRenyi(200, 900, /*undirected=*/false, &rng);
  const CrashSimOptions eopt = TestEngineOptions();
  CrashSim engine(eopt);
  engine.Bind(&g);
  TreeCache cache(&g, MatchingCacheOptions(eopt));

  QueryContext ctx;
  const PartialResult answer = CachedSingleSource(&cache, &engine, 3, &ctx);
  ASSERT_TRUE(answer.status.ok());
  StatusOr<TreeCache::TreePtr> tree =
      cache.GetOrBuild(3, engine.LMax(), eopt.mode, &ctx);
  ASSERT_TRUE(tree.ok());
  EXPECT_TRUE(**tree == engine.BuildTree(3));
  const TreeCache::Stats stats = cache.stats();
  EXPECT_EQ(stats.trees, 1);
  EXPECT_EQ(stats.answers, 1);
  EXPECT_EQ(stats.hits, 1);  // the tree built inside the answer computation
  EXPECT_EQ(stats.resident_bytes(), stats.bytes + stats.answer_bytes);
}

}  // namespace
}  // namespace crashsim
