#include "simrank/topk.h"

#include "util/logging.h"
#include "util/top_k.h"

namespace crashsim {

TopKResult TopKOfScores(std::span<const double> scores, NodeId source,
                        int k) {
  CRASHSIM_CHECK_GT(k, 0);
  TopK<NodeId> top(static_cast<size_t>(k));
  for (size_t v = 0; v < scores.size(); ++v) {
    if (static_cast<NodeId>(v) == source) continue;
    top.Offer(scores[v], static_cast<NodeId>(v));
  }
  return top.Sorted();
}

TopKResult TopKSimRank(SimRankAlgorithm* algorithm, NodeId source, int k) {
  return TopKOfScores(algorithm->SingleSource(source), source, k);
}

TopKResult TopKSimRank(SimRankAlgorithm* algorithm, NodeId source, int k,
                       std::span<const NodeId> candidates) {
  CRASHSIM_CHECK_GT(k, 0);
  const std::vector<double> scores = algorithm->Partial(source, candidates);
  TopK<NodeId> top(static_cast<size_t>(k));
  for (size_t i = 0; i < candidates.size(); ++i) {
    if (candidates[i] == source) continue;
    top.Offer(scores[i], candidates[i]);
  }
  return top.Sorted();
}

}  // namespace crashsim
