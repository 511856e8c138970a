#ifndef CRASHSIM_SIMRANK_TOPK_H_
#define CRASHSIM_SIMRANK_TOPK_H_

#include <span>
#include <utility>
#include <vector>

#include "simrank/simrank.h"

namespace crashsim {

// A ranked single-source result: (score, node) pairs, descending score with
// node-id tie-break.
using TopKResult = std::vector<std::pair<double, NodeId>>;

// The k best nodes of a single-source score vector (indexed by node id),
// skipping the source itself. Same order and tie-breaks as TopKResult.
TopKResult TopKOfScores(std::span<const double> scores, NodeId source, int k);

// Top-k single-source SimRank query — the query form most SimRank systems
// (ProbeSim, READS, SLING) are evaluated on. Runs the bound algorithm's
// SingleSource and selects the k best nodes other than the source.
TopKResult TopKSimRank(SimRankAlgorithm* algorithm, NodeId source, int k);

// Top-k restricted to a candidate set (uses Partial, so CrashSim pays only
// for the candidates).
TopKResult TopKSimRank(SimRankAlgorithm* algorithm, NodeId source, int k,
                       std::span<const NodeId> candidates);

}  // namespace crashsim

#endif  // CRASHSIM_SIMRANK_TOPK_H_
