#include "core/crashsim_t.h"

#include <algorithm>
#include <optional>
#include <utility>

#include "core/query_stats.h"
#include "graph/snapshot_diff.h"
#include "util/failpoint.h"
#include "util/logging.h"
#include "util/string_util.h"
#include "util/timer.h"
#include "util/trace.h"

namespace crashsim {

Status CrashSimTOptions::Validate() const { return crashsim.Validate(); }

CrashSimT::CrashSimT(const CrashSimTOptions& options)
    : options_(options), crashsim_(options.crashsim) {}

int64_t CrashSimT::CandidateEdgeCount(const Graph& g,
                                      const std::vector<NodeId>& candidates) {
  std::vector<char> in_set(static_cast<size_t>(g.num_nodes()), 0);
  for (NodeId v : candidates) in_set[static_cast<size_t>(v)] = 1;
  int64_t count = 0;
  for (NodeId v : candidates) {
    for (NodeId w : g.OutNeighbors(v)) {
      if (in_set[static_cast<size_t>(w)]) ++count;
    }
  }
  return count;
}

TemporalAnswer CrashSimT::Answer(const TemporalGraph& tg,
                                 const TemporalQuery& query) {
  CheckQueryInterval(tg, query);
  TemporalAnswer answer = Answer(tg, query, nullptr);
  CRASHSIM_CHECK(answer.status.ok()) << answer.status;
  return answer;
}

TemporalAnswer CrashSimT::Answer(const TemporalGraph& tg,
                                 const TemporalQuery& query,
                                 QueryContext* ctx) {
  Stopwatch timer;
  TemporalAnswer answer;
  if (Status s = options_.Validate(); !s.ok()) {
    answer.status = s;
    return answer;
  }
  if (Status s = ValidateQueryInterval(tg, query); !s.ok()) {
    answer.status = s;
    return answer;
  }
  CandidateFilter filter(query, tg.num_nodes());

  // Observability: per-rule counters accumulate in answer.stats; the sink
  // receives a per-snapshot breakdown as snapshots complete and the aggregate
  // copy in finish(), which every exit after validation goes through (the
  // nested CrashSim and BuildRevReach calls record trial/tree work into the
  // same sink).
  QueryStats* const qs = ctx != nullptr ? ctx->stats() : nullptr;
  auto finish = [&]() {
    answer.nodes = filter.candidates();
    answer.stats.total_seconds = timer.ElapsedSeconds();
    if (qs == nullptr) return std::move(answer);
    const TemporalAnswerStats& s = answer.stats;
    qs->snapshots_processed += s.snapshots_processed;
    qs->stable_tree_snapshots += s.stable_tree_snapshots;
    qs->source_tree_rebuilds += s.source_tree_rebuilds;
    qs->source_tree_reuses += s.source_tree_reuses;
    qs->delta_prune_checks += s.delta_prune_checks;
    qs->delta_prune_hits += s.pruned_by_delta;
    qs->difference_prune_checks += s.difference_prune_checks;
    qs->difference_prune_hits += s.pruned_by_difference;
    qs->difference_prefilter_skips += s.difference_prefilter_skips;
    qs->difference_tree_rebuilds += s.difference_tree_rebuilds;
    qs->scores_computed += s.scores_computed;
    return std::move(answer);
  };

  // Records why snapshot t was not processed; the caller then exits.
  auto fail_at = [&answer](int t, const Status& s) {
    answer.status = s.WithContext(StrFormat("snapshot %d", t));
  };

  SnapshotCursor cursor(&tg);
  while (cursor.snapshot_index() < query.begin_snapshot) cursor.Advance();

  // Snapshot T_1: full partial evaluation over all candidates (line 2).
  crashsim_.Bind(&cursor.graph());
  const int l_max = crashsim_.LMax();
  auto tree_of = [&](const Graph& g, NodeId v) {
    return BuildRevReach(g, v, l_max, options_.crashsim.mc.c,
                         options_.crashsim.mode,
                         options_.crashsim.tree_prune_threshold, ctx);
  };
  ReverseReachableTree prev_tree;
  {
    StatusOr<ReverseReachableTree> tree_or =
        tree_of(cursor.graph(), query.source);
    if (!tree_or.ok()) {
      fail_at(query.begin_snapshot, tree_or.status());
      return finish();
    }
    prev_tree = std::move(*tree_or);
    const int64_t first_candidates =
        static_cast<int64_t>(filter.candidates().size());
    PartialResult first =
        crashsim_.PartialWithTree(prev_tree, filter.candidates(), ctx);
    if (!first.complete()) {
      fail_at(query.begin_snapshot, first.status);
      return finish();
    }
    answer.stats.scores_computed += first_candidates;
    filter.Observe(first.scores);
    ++answer.stats.snapshots_processed;
    if (qs != nullptr) {
      qs->snapshots.push_back({query.begin_snapshot, first_candidates, 0, 0,
                               first_candidates, false});
    }
  }

  // Previous snapshot graph kept for difference pruning's tree comparison.
  Graph prev_graph = cursor.graph();

  for (int t = query.begin_snapshot + 1;
       t <= query.end_snapshot && !filter.candidates().empty(); ++t) {
    TRACE_SPAN("crashsim_t.snapshot");
    // One checkpoint per snapshot; finer-grained checks happen inside the
    // tree builds and the trial loop below.
    if (ctx != nullptr) {
      if (Status s = ctx->Check(); !s.ok()) {
        fail_at(t, s);
        break;
      }
    }
    if (Status s = CRASHSIM_FAILPOINT("crashsim_t.snapshot"); !s.ok()) {
      fail_at(t, s);
      break;
    }
    // Baselines for this snapshot's per-rule deltas (per-snapshot entry
    // appended once the snapshot completes).
    const int64_t delta_hits_before = answer.stats.pruned_by_delta;
    const int64_t diff_hits_before = answer.stats.pruned_by_difference;
    cursor.Advance();
    const Graph& g = cursor.graph();
    crashsim_.Bind(&g);

    const EdgeDelta& delta = tg.Delta(t);
    // Heads of all changed edges; the stability test and both pruning rules
    // reason from them.
    std::vector<NodeId> delta_heads;
    delta_heads.reserve(delta.Size());
    for (const Edge& e : delta.added) delta_heads.push_back(e.dst);
    for (const Edge& e : delta.removed) delta_heads.push_back(e.dst);
    std::sort(delta_heads.begin(), delta_heads.end());
    delta_heads.erase(std::unique(delta_heads.begin(), delta_heads.end()),
                      delta_heads.end());

    // Source-tree stability (Algorithm 3 lines 5-7). The literal path
    // rebuilds the tree and compares; the reuse path replaces the rebuild
    // with a reverse-reachability membership test on stable snapshots.
    bool tree_stable = true;
    if (options_.reuse_source_tree) {
      std::vector<char> in_reach(static_cast<size_t>(g.num_nodes()), 0);
      for (NodeId w : ReverseReachableWithin(g, query.source, l_max)) {
        in_reach[static_cast<size_t>(w)] = 1;
      }
      for (NodeId w :
           ReverseReachableWithin(prev_graph, query.source, l_max)) {
        in_reach[static_cast<size_t>(w)] = 1;
      }
      for (NodeId y : delta_heads) {
        if (in_reach[static_cast<size_t>(y)]) {
          tree_stable = false;
          break;
        }
      }
    }
    std::optional<ReverseReachableTree> fresh_tree;
    if (!options_.reuse_source_tree || !tree_stable) {
      StatusOr<ReverseReachableTree> tree_or = tree_of(g, query.source);
      if (!tree_or.ok()) {
        fail_at(t, tree_or.status());
        break;
      }
      fresh_tree = std::move(*tree_or);
      if (!options_.reuse_source_tree) tree_stable = (*fresh_tree == prev_tree);
    }
    if (fresh_tree.has_value()) {
      ++answer.stats.source_tree_rebuilds;
    } else {
      ++answer.stats.source_tree_reuses;
    }
    const ReverseReachableTree& tree =
        fresh_tree.has_value() ? *fresh_tree : prev_tree;

    const std::vector<NodeId>& omega = filter.candidates();
    // omega aliases the filter's live candidate set, which Observe() below
    // shrinks — capture the examined count before that happens.
    const int64_t omega_size_before = static_cast<int64_t>(omega.size());
    const int64_t n_r = crashsim_.TrialsFor(g.num_nodes());

    // recompute[i] — whether omega[i] needs a fresh score this snapshot.
    std::vector<char> recompute(omega.size(), 1);

    // Lines 7-19: pruning applies only when the source tree is stable
    // across the adjacent snapshots.
    if (tree_stable &&
        (options_.enable_delta_pruning || options_.enable_difference_pruning)) {
      ++answer.stats.stable_tree_snapshots;
      const int64_t e_omega = CandidateEdgeCount(g, omega);
      const int64_t e_delta = static_cast<int64_t>(delta.Size());

      // Delta pruning (Property 1): affected area = nodes the changed edges'
      // heads out-reach within l_max - 1 (Theorem 2); everything else keeps
      // its score.
      // |E(Delta)| < |Omega| * n_r / |E(Omega)|; an edgeless candidate set
      // makes the bound vacuous (always cheaper to prune).
      if (options_.enable_delta_pruning &&
          (e_omega == 0 ||
           e_delta < static_cast<int64_t>(omega.size()) * n_r / e_omega)) {
        TRACE_SPAN("crashsim_t.delta_prune");
        answer.stats.delta_prune_checks += static_cast<int64_t>(omega.size());
        std::vector<char> affected(static_cast<size_t>(g.num_nodes()), 0);
        for (NodeId y : delta_heads) {
          for (NodeId v : ForwardReachableWithin(g, y, l_max - 1)) {
            affected[static_cast<size_t>(v)] = 1;
          }
          // Removed edges no longer appear in g; cover the pre-delta
          // reachability too so removals prune soundly.
          for (NodeId v : ForwardReachableWithin(prev_graph, y, l_max - 1)) {
            affected[static_cast<size_t>(v)] = 1;
          }
        }
        for (size_t i = 0; i < omega.size(); ++i) {
          if (!affected[static_cast<size_t>(omega[i])]) {
            recompute[i] = 0;
            ++answer.stats.pruned_by_delta;
          }
        }
      }

      // Difference pruning (Property 2): compare each remaining candidate's
      // reverse-reachable tree across the two snapshots.
      if (options_.enable_difference_pruning && e_omega < n_r) {
        TRACE_SPAN("crashsim_t.difference_prune");
        Status snapshot_status;
        std::vector<char> maybe_changed;
        if (options_.difference_reachability_prefilter) {
          maybe_changed.assign(static_cast<size_t>(g.num_nodes()), 0);
          for (NodeId y : delta_heads) {
            for (NodeId v : ForwardReachableWithin(g, y, l_max)) {
              maybe_changed[static_cast<size_t>(v)] = 1;
            }
            for (NodeId v : ForwardReachableWithin(prev_graph, y, l_max)) {
              maybe_changed[static_cast<size_t>(v)] = 1;
            }
          }
        }
        for (size_t i = 0; i < omega.size(); ++i) {
          if (!recompute[i]) continue;
          const NodeId v = omega[i];
          ++answer.stats.difference_prune_checks;
          bool unchanged;
          bool via_prefilter = false;
          if (options_.difference_reachability_prefilter &&
              !maybe_changed[static_cast<size_t>(v)]) {
            unchanged = true;
            via_prefilter = true;
          } else {
            ++answer.stats.difference_tree_rebuilds;
            StatusOr<ReverseReachableTree> cur_or = tree_of(g, v);
            if (!cur_or.ok()) {
              snapshot_status = cur_or.status();
              break;
            }
            StatusOr<ReverseReachableTree> prev_or = tree_of(prev_graph, v);
            if (!prev_or.ok()) {
              snapshot_status = prev_or.status();
              break;
            }
            unchanged = (*cur_or == *prev_or);
          }
          if (unchanged) {
            recompute[i] = 0;
            ++answer.stats.pruned_by_difference;
            if (via_prefilter) ++answer.stats.difference_prefilter_skips;
          }
        }
        if (!snapshot_status.ok()) {
          fail_at(t, snapshot_status);
          break;
        }
      }
    }

    // Line 20: CrashSim over the residual set Omega'.
    std::vector<NodeId> residual;
    residual.reserve(omega.size());
    for (size_t i = 0; i < omega.size(); ++i) {
      if (recompute[i]) residual.push_back(omega[i]);
    }
    PartialResult fresh = crashsim_.PartialWithTree(tree, residual, ctx);
    if (!fresh.complete()) {
      fail_at(t, fresh.status);
      break;
    }
    answer.stats.scores_computed += static_cast<int64_t>(residual.size());

    // Merge fresh scores with carried-over scores, aligned with omega.
    std::vector<double> merged(omega.size());
    size_t fi = 0;
    for (size_t i = 0; i < omega.size(); ++i) {
      merged[i] = recompute[i] ? fresh.scores[fi++]
                               : filter.previous_score(omega[i]);
    }
    filter.Observe(merged);
    ++answer.stats.snapshots_processed;
    if (qs != nullptr) {
      qs->snapshots.push_back(
          {t, omega_size_before,
           answer.stats.pruned_by_delta - delta_hits_before,
           answer.stats.pruned_by_difference - diff_hits_before,
           static_cast<int64_t>(residual.size()), tree_stable});
    }

    if (fresh_tree.has_value()) prev_tree = std::move(*fresh_tree);
    prev_graph = g;
  }

  return finish();
}

}  // namespace crashsim
