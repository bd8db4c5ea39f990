#ifndef GAL_TLAV_ALGOS_WCC_H_
#define GAL_TLAV_ALGOS_WCC_H_

#include <vector>

#include "graph/graph.h"
#include "tlav/algos/traversal.h"
#include "tlav/engine.h"

namespace gal {

/// Weakly connected components by hash-min label propagation: each
/// vertex repeatedly adopts the minimum id seen in its neighborhood.
/// On directed graphs, propagation runs over the symmetrized
/// Graph::UndirectedView() — weak connectivity ignores edge direction
/// (an earlier version propagated along out-edges only, over-counting
/// components on directed graphs).
///
/// Superstep count is O(diameter) — the workload behind the survey's
/// discussion of TLAV's O((|V|+|E|) log |V|) practical-efficiency
/// envelope (low-diameter graphs converge in ~log |V| rounds; a path
/// graph shows the degenerate linear case).
struct WccResult {
  std::vector<VertexId> component;  // min vertex id of each component
  uint32_t num_components = 0;
  TlavStats stats;
};

/// WCC runs on the frontier substrate like every traversal: push
/// steps scatter changed labels, pull steps gather the neighborhood
/// minimum, and a FaultPlan is handled at the step barrier. Components
/// are identical under any direction, worker count and fault schedule.
using WccOptions = TraversalOptions;

WccResult Wcc(const Graph& g, const WccOptions& options);
WccResult Wcc(const Graph& g, const TlavConfig& config = {});

}  // namespace gal

#endif  // GAL_TLAV_ALGOS_WCC_H_
