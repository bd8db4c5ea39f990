#ifndef GAL_TLAV_ALGOS_TRAVERSAL_H_
#define GAL_TLAV_ALGOS_TRAVERSAL_H_

#include <cstdint>
#include <limits>
#include <vector>

#include "common/status.h"
#include "frontier/direction.h"
#include "graph/graph.h"
#include "tlav/engine.h"

namespace gal {

inline constexpr uint32_t kUnreachable = std::numeric_limits<uint32_t>::max();

/// How a traversal (TlavBfs, TlavSssp, Wcc) runs. Every traversal runs
/// on the direction-optimizing frontier substrate (src/frontier/), whose
/// `direction` policy (kAuto unless GAL_FRONTIER_MODE says otherwise)
/// picks push, pull or Beamer's switch per step. From `engine` the run
/// takes the worker count, shared cluster, message envelope, step bound
/// and FaultPlan; `mirror_degree_threshold` is a vertex-program setting
/// and does not apply. Results are bit-identical under any direction,
/// worker count, host thread count and fault schedule.
struct TraversalOptions {
  TlavConfig engine;
  DirectionConfig direction = DirectionConfig::FromEnv();
};

/// Hop distances from `source` (level-synchronous BFS). `status` is non-OK
/// and `distance` empty when `source` is out of range — callers that
/// ignored the old silent all-kUnreachable behavior now see the error.
struct BfsResult {
  std::vector<uint32_t> distance;  // kUnreachable if not reached
  TlavStats stats;
  Status status;
};
BfsResult TlavBfs(const Graph& g, VertexId source,
                  const TraversalOptions& options);
BfsResult TlavBfs(const Graph& g, VertexId source,
                  const TlavConfig& config = {});

/// Deterministic synthetic edge weight in [1, 16], symmetric in (u, v).
/// Gives the unweighted substrate a weighted-SSSP workload without
/// storing weights in the CSR arrays.
uint32_t SyntheticEdgeWeight(VertexId u, VertexId v);

/// Single-source shortest paths with SyntheticEdgeWeight (delta-free
/// Bellman-Ford over the frontier of improved vertices). Same error
/// contract as TlavBfs for an out-of-range source.
struct SsspResult {
  std::vector<uint64_t> distance;  // UINT64_MAX if not reached
  TlavStats stats;
  Status status;
};
SsspResult TlavSssp(const Graph& g, VertexId source,
                    const TraversalOptions& options);
SsspResult TlavSssp(const Graph& g, VertexId source,
                    const TlavConfig& config = {});

}  // namespace gal

#endif  // GAL_TLAV_ALGOS_TRAVERSAL_H_
