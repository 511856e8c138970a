#include "core/crashsim_t.h"

#include <string>

#include <gtest/gtest.h>

#include "core/query_context.h"
#include "core/query_stats.h"
#include "datasets/datasets.h"
#include "graph/generators.h"
#include "graph/temporal_generators.h"
#include "graph/temporal_graph.h"

namespace crashsim {
namespace {

// Two components: a static undirected star 0..5 (hub 0) that contains the
// query source, and a churning clique-ish component 6..9. Deltas never touch
// the star, so once the candidate set lives inside it, both pruning rules
// can retire every remaining candidate.
TemporalGraph SplitWorld(int snapshots) {
  TemporalGraphBuilder b(10, /*undirected=*/true);
  std::vector<Edge> star;
  for (NodeId v = 1; v <= 5; ++v) star.push_back({0, v});
  std::vector<Edge> base = star;
  base.push_back({6, 7});
  base.push_back({8, 9});
  b.AddSnapshot(base);
  for (int t = 1; t < snapshots; ++t) {
    std::vector<Edge> edges = star;
    // Rotate the far component's wiring every snapshot.
    const NodeId a = static_cast<NodeId>(6 + (t % 4));
    const NodeId c = static_cast<NodeId>(6 + ((t + 1) % 4));
    const NodeId d = static_cast<NodeId>(6 + ((t + 2) % 4));
    if (a != c) edges.push_back({a, c});
    if (c != d) edges.push_back({c, d});
    b.AddSnapshot(edges);
  }
  return b.Build();
}

CrashSimTOptions Options(int64_t trials, uint64_t seed = 42) {
  CrashSimTOptions opt;
  opt.crashsim.mc.c = 0.6;
  opt.crashsim.mc.trials_override = trials;
  opt.crashsim.mc.seed = seed;
  return opt;
}

TemporalQuery StarThresholdQuery(int end_snapshot) {
  TemporalQuery q;
  q.kind = TemporalQueryKind::kThreshold;
  q.source = 1;  // a leaf
  q.begin_snapshot = 0;
  q.end_snapshot = end_snapshot;
  // True leaf-leaf SimRank is 0.6; paper mode's recurrence understates it on
  // this degree-skewed star (~0.18, see DESIGN.md §3) but still clears 0.1
  // with a wide noise margin, while hub and far-component scores are ~0.
  q.theta = 0.1;
  return q;
}

TEST(CrashSimTTest, FindsCoLeavesUnderThreshold) {
  const TemporalGraph tg = SplitWorld(6);
  CrashSimT engine(Options(4000));
  const TemporalAnswer answer = engine.Answer(tg, StarThresholdQuery(5));
  // Leaves 2..5 share the hub with the source; hub and far component fail.
  EXPECT_EQ(answer.nodes, (std::vector<NodeId>{2, 3, 4, 5}));
  EXPECT_EQ(answer.stats.snapshots_processed, 6);
}

TEST(CrashSimTTest, PruningRetiresUnaffectedCandidates) {
  const TemporalGraph tg = SplitWorld(6);
  CrashSimT engine(Options(4000));
  const TemporalAnswer answer = engine.Answer(tg, StarThresholdQuery(5));
  // After snapshot 0 the candidate set is {2,3,4,5}; every later snapshot's
  // delta is confined to the far component, so all 4 are pruned each time.
  EXPECT_EQ(answer.stats.pruned_by_delta +
                answer.stats.pruned_by_difference,
            4 * 5);
  EXPECT_EQ(answer.stats.stable_tree_snapshots, 5);
  // Only snapshot 0 computed scores (9 candidates).
  EXPECT_EQ(answer.stats.scores_computed, 9);
}

TEST(CrashSimTTest, DisabledPruningRecomputesEverything) {
  const TemporalGraph tg = SplitWorld(6);
  CrashSimTOptions opt = Options(4000);
  opt.enable_delta_pruning = false;
  opt.enable_difference_pruning = false;
  CrashSimT engine(opt);
  const TemporalAnswer answer = engine.Answer(tg, StarThresholdQuery(5));
  EXPECT_EQ(answer.nodes, (std::vector<NodeId>{2, 3, 4, 5}));
  EXPECT_EQ(answer.stats.pruned_by_delta, 0);
  EXPECT_EQ(answer.stats.pruned_by_difference, 0);
  // 9 at snapshot 0, then 4 per remaining snapshot.
  EXPECT_EQ(answer.stats.scores_computed, 9 + 4 * 5);
}

TEST(CrashSimTTest, PruningMatchesUnprunedAnswerSet) {
  const TemporalGraph tg = SplitWorld(8);
  CrashSimT pruned(Options(4000, 11));
  CrashSimTOptions no_prune = Options(4000, 11);
  no_prune.enable_delta_pruning = false;
  no_prune.enable_difference_pruning = false;
  CrashSimT unpruned(no_prune);
  const TemporalQuery q = StarThresholdQuery(7);
  EXPECT_EQ(pruned.Answer(tg, q).nodes, unpruned.Answer(tg, q).nodes);
}

TEST(CrashSimTTest, PrefilterEquivalentToLiteralTreeComparison) {
  // The reachability pre-filter must make the exact same pruning decisions
  // as Algorithm 3's literal per-candidate tree comparison; with identical
  // decisions the RNG stream aligns and answers match bit-for-bit.
  Rng rng(5);
  const Graph base = ErdosRenyi(40, 120, false, &rng);
  ChurnOptions churn;
  churn.num_snapshots = 6;
  churn.churn_rate = 0.01;
  const TemporalGraph tg = EvolveWithChurn(base, churn, &rng);

  TemporalQuery q;
  q.kind = TemporalQueryKind::kThreshold;
  q.source = 3;
  q.begin_snapshot = 0;
  q.end_snapshot = 5;
  q.theta = 0.01;

  CrashSimTOptions with_prefilter = Options(500, 9);
  with_prefilter.difference_reachability_prefilter = true;
  CrashSimTOptions literal = Options(500, 9);
  literal.difference_reachability_prefilter = false;

  const TemporalAnswer a = CrashSimT(with_prefilter).Answer(tg, q);
  const TemporalAnswer b = CrashSimT(literal).Answer(tg, q);
  EXPECT_EQ(a.nodes, b.nodes);
  EXPECT_EQ(a.stats.pruned_by_delta, b.stats.pruned_by_delta);
  EXPECT_EQ(a.stats.pruned_by_difference, b.stats.pruned_by_difference);
  EXPECT_EQ(a.stats.scores_computed, b.stats.scores_computed);
}

TEST(CrashSimTTest, TreeReuseMatchesLiteralRebuildExactly) {
  // In the split world every delta is confined to the far component, where
  // the reachability stability test is exact, so the reuse path makes the
  // same decisions as Algorithm 3's rebuild-and-compare — same answers,
  // same pruning counts, bit-identical RNG consumption.
  const TemporalGraph tg = SplitWorld(8);
  const TemporalQuery q = StarThresholdQuery(7);
  CrashSimTOptions reuse = Options(2000, 13);
  reuse.reuse_source_tree = true;
  CrashSimTOptions literal = Options(2000, 13);
  literal.reuse_source_tree = false;
  const TemporalAnswer a = CrashSimT(reuse).Answer(tg, q);
  const TemporalAnswer b = CrashSimT(literal).Answer(tg, q);
  EXPECT_EQ(a.nodes, b.nodes);
  EXPECT_EQ(a.stats.pruned_by_delta, b.stats.pruned_by_delta);
  EXPECT_EQ(a.stats.scores_computed, b.stats.scores_computed);
  EXPECT_EQ(a.stats.stable_tree_snapshots, b.stats.stable_tree_snapshots);
}

TEST(CrashSimTTest, TreeReuseConservativeOnGlobalChurn) {
  // Under global churn the reachability test may flag more snapshots as
  // unstable than literal equality would — never fewer. Both paths must
  // still produce valid (subset-of-nodes) answers.
  Rng rng(15);
  const Graph base = ErdosRenyi(50, 150, false, &rng);
  ChurnOptions churn;
  churn.num_snapshots = 6;
  churn.churn_rate = 0.02;
  const TemporalGraph tg = EvolveWithChurn(base, churn, &rng);
  TemporalQuery q;
  q.kind = TemporalQueryKind::kThreshold;
  q.source = 4;
  q.begin_snapshot = 0;
  q.end_snapshot = 5;
  q.theta = 0.01;
  CrashSimTOptions reuse = Options(600, 3);
  CrashSimTOptions literal = Options(600, 3);
  literal.reuse_source_tree = false;
  const TemporalAnswer a = CrashSimT(reuse).Answer(tg, q);
  const TemporalAnswer b = CrashSimT(literal).Answer(tg, q);
  EXPECT_LE(a.stats.stable_tree_snapshots, b.stats.stable_tree_snapshots);
}

TEST(CrashSimTTest, TrendQueryReturnsSubsetOfNodes) {
  Rng rng(6);
  GrowthOptions growth;
  growth.num_snapshots = 8;
  const TemporalGraph tg = GrowTemporalGraph(60, true, growth, &rng);
  TemporalQuery q;
  q.kind = TemporalQueryKind::kTrendIncreasing;
  q.source = 0;
  q.begin_snapshot = 0;
  q.end_snapshot = 7;
  q.trend_tolerance = 0.02;
  CrashSimT engine(Options(800));
  const TemporalAnswer answer = engine.Answer(tg, q);
  EXPECT_LT(answer.nodes.size(), 60u);
  for (NodeId v : answer.nodes) {
    EXPECT_NE(v, q.source);
    EXPECT_GE(v, 0);
    EXPECT_LT(v, 60);
  }
}

TEST(CrashSimTTest, SingleSnapshotIntervalDegeneratesToCrashSim) {
  const TemporalGraph tg = SplitWorld(3);
  TemporalQuery q = StarThresholdQuery(0);
  CrashSimT engine(Options(4000));
  const TemporalAnswer answer = engine.Answer(tg, q);
  EXPECT_EQ(answer.stats.snapshots_processed, 1);
  EXPECT_EQ(answer.nodes, (std::vector<NodeId>{2, 3, 4, 5}));
}

TEST(CrashSimTTest, EmptyCandidateSetShortCircuits) {
  const TemporalGraph tg = SplitWorld(5);
  TemporalQuery q = StarThresholdQuery(4);
  q.theta = 0.99;  // nothing survives snapshot 0
  CrashSimT engine(Options(500));
  const TemporalAnswer answer = engine.Answer(tg, q);
  EXPECT_TRUE(answer.nodes.empty());
  EXPECT_EQ(answer.stats.snapshots_processed, 1);
}

// Every TemporalAnswerStats counter (total_seconds is wall time, not a
// counter).
void ExpectSameCounters(const TemporalAnswerStats& a,
                        const TemporalAnswerStats& b) {
  EXPECT_EQ(a.snapshots_processed, b.snapshots_processed);
  EXPECT_EQ(a.scores_computed, b.scores_computed);
  EXPECT_EQ(a.pruned_by_delta, b.pruned_by_delta);
  EXPECT_EQ(a.pruned_by_difference, b.pruned_by_difference);
  EXPECT_EQ(a.stable_tree_snapshots, b.stable_tree_snapshots);
  EXPECT_EQ(a.delta_prune_checks, b.delta_prune_checks);
  EXPECT_EQ(a.difference_prune_checks, b.difference_prune_checks);
  EXPECT_EQ(a.difference_prefilter_skips, b.difference_prefilter_skips);
  EXPECT_EQ(a.difference_tree_rebuilds, b.difference_tree_rebuilds);
  EXPECT_EQ(a.source_tree_rebuilds, b.source_tree_rebuilds);
  EXPECT_EQ(a.source_tree_reuses, b.source_tree_reuses);
}

TEST(CrashSimTTest, EntryPointsAgreeAcrossOptionGrid) {
  // The plain entry point, the context-aware one without a context, and the
  // context-aware one with a stats sink must answer every configuration
  // identically: same node set, same pruning counters. The sink must also
  // mirror the answer's own counters. The two dataset stand-ins grow
  // everywhere, so their source trees never stabilise; the split world and
  // a low-churn random graph are where both pruning rules fire.
  struct Case {
    std::string name;
    TemporalGraph tg;
  };
  std::vector<Case> cases;
  for (const std::string name : {"as733", "hepth"}) {
    cases.push_back(
        {name, MakeDataset(name, 0.015, /*snapshots_override=*/6).temporal});
  }
  cases.push_back({"split", SplitWorld(6)});
  Rng rng(5);
  ChurnOptions churn;
  churn.num_snapshots = 6;
  churn.churn_rate = 0.01;
  const Graph base = ErdosRenyi(40, 120, false, &rng);
  cases.push_back({"churn", EvolveWithChurn(base, churn, &rng)});

  int64_t delta_hits = 0;
  int64_t difference_hits = 0;
  for (const Case& c : cases) {
    const TemporalGraph& tg = c.tg;
    for (int mask = 0; mask < 16; ++mask) {
      for (const RevReachMode mode :
           {RevReachMode::kPaper, RevReachMode::kCorrected}) {
        for (const TemporalQueryKind kind :
             {TemporalQueryKind::kThreshold,
              TemporalQueryKind::kTrendIncreasing,
              TemporalQueryKind::kTrendDecreasing}) {
          SCOPED_TRACE(c.name + " mask " + std::to_string(mask) + " mode " +
                       std::to_string(static_cast<int>(mode)) + " kind " +
                       std::to_string(static_cast<int>(kind)));
          CrashSimTOptions opt = Options(64, 11);
          opt.crashsim.mode = mode;
          opt.enable_delta_pruning = (mask & 1) != 0;
          opt.enable_difference_pruning = (mask & 2) != 0;
          opt.difference_reachability_prefilter = (mask & 4) != 0;
          opt.reuse_source_tree = (mask & 8) != 0;
          TemporalQuery q;
          q.kind = kind;
          q.source = 1;
          q.begin_snapshot = 0;
          q.end_snapshot = tg.num_snapshots() - 1;
          q.theta = 0.01;
          q.trend_tolerance = 0.02;

          const TemporalAnswer plain = CrashSimT(opt).Answer(tg, q);
          const TemporalAnswer no_ctx = CrashSimT(opt).Answer(tg, q, nullptr);
          QueryStats sink;
          QueryContext ctx;
          ctx.set_stats(&sink);
          const TemporalAnswer with_ctx = CrashSimT(opt).Answer(tg, q, &ctx);

          ASSERT_TRUE(no_ctx.complete()) << no_ctx.status;
          ASSERT_TRUE(with_ctx.complete()) << with_ctx.status;
          EXPECT_EQ(plain.nodes, no_ctx.nodes);
          EXPECT_EQ(plain.nodes, with_ctx.nodes);
          ExpectSameCounters(plain.stats, no_ctx.stats);
          ExpectSameCounters(plain.stats, with_ctx.stats);
          EXPECT_EQ(sink.snapshots_processed,
                    with_ctx.stats.snapshots_processed);
          EXPECT_EQ(sink.delta_prune_hits, with_ctx.stats.pruned_by_delta);
          EXPECT_EQ(sink.difference_prune_hits,
                    with_ctx.stats.pruned_by_difference);
          EXPECT_EQ(sink.scores_computed, with_ctx.stats.scores_computed);
          delta_hits += plain.stats.pruned_by_delta;
          difference_hits += plain.stats.pruned_by_difference;
        }
      }
    }
  }
  // The grid must exercise both pruning rules, or it compares only the
  // recompute-everything path.
  EXPECT_GT(delta_hits, 0);
  EXPECT_GT(difference_hits, 0);
}

}  // namespace
}  // namespace crashsim
