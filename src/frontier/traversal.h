#ifndef GAL_FRONTIER_TRAVERSAL_H_
#define GAL_FRONTIER_TRAVERSAL_H_

#include <cstdint>
#include <limits>
#include <vector>

#include "cluster/checkpoint.h"
#include "cluster/cluster.h"
#include "cluster/fault.h"
#include "common/status.h"
#include "frontier/direction.h"
#include "frontier/frontier.h"
#include "graph/graph.h"

namespace gal {

/// Distance sentinel of the frontier traversals (same value as the TLAV
/// kUnreachable so result vectors compare bit-identical across engines).
inline constexpr uint32_t kFrontierUnreachable =
    std::numeric_limits<uint32_t>::max();

/// Configuration of the frontier-based (level-synchronous) traversal
/// engine. Like TlavConfig, a non-null `cluster` makes the run charge
/// the shared runtime's TrafficLedger and VirtualClock and adopt its
/// worker count; otherwise a private runtime with `num_workers` workers
/// is used. Host threads (GAL_TASK_THREADS) never change results.
struct FrontierEngineOptions {
  DirectionConfig direction = DirectionConfig::FromEnv();
  ClusterRuntime* cluster = nullptr;
  /// The shared fault-tolerance schedule (cluster/fault.h), driven
  /// through one RecoverySession at the step barrier: checkpoints
  /// snapshot the per-vertex array, the frontier and the direction
  /// state; failures roll back and replay; stragglers stretch the
  /// modeled round; rebalancing migrates vertices. Results are
  /// bit-identical to the fault-free run. The default resolves
  /// GAL_CLUSTER_FAULT_* (empty plan when unset); an empty plan costs
  /// a few branches and one ledger snapshot per step.
  FaultPlan faults = FaultPlan::FromEnvOrWarn();
  /// Simulated workers when `cluster` is null (0 = GAL_CLUSTER_WORKERS,
  /// else 4 — the same default every engine config uses).
  uint32_t num_workers = 0;
  /// Per-wire-message envelope added to the payload, matching the TLAV
  /// engine's message_overhead_bytes so wire volumes are comparable.
  uint32_t message_overhead_bytes = 8;
  /// Safety bound on level-synchronous steps.
  uint32_t max_steps = 1000000;
};

/// One level-synchronous step as the engine executed it.
struct FrontierStep {
  Direction direction = Direction::kPush;
  uint64_t frontier_vertices = 0;  // n_f entering the step
  uint64_t frontier_edges = 0;     // m_f scout count entering the step
  uint64_t active_vertices = 0;    // vertices computed this step
  uint64_t edges_scanned = 0;      // adjacency entries inspected
  uint64_t messages = 0;           // logical sends (push) / probes (pull)
  /// Cross-partition traffic: per-message for scatter steps; for a BFS
  /// pull step, the all-to-all frontier-bitmap broadcast that makes the
  /// membership probes local (WCC pulls fetch remote *labels*, so they
  /// stay per-probe).
  uint64_t wire_messages = 0;
  uint64_t wire_bytes = 0;
};

/// Run totals; wire fields are this run's TrafficLedger delta and
/// modeled seconds this run's VirtualClock delta, exactly like
/// TlavStats, so push-only and direction-optimizing rows land on one
/// comparable axis. After a rollback, `per_step` and the step and
/// direction counts describe the surviving schedule, while the work
/// totals (edges, messages, activations) include the replayed steps.
struct FrontierTraversalStats {
  uint32_t steps = 0;
  uint32_t push_steps = 0;
  uint32_t pull_steps = 0;
  uint32_t direction_switches = 0;
  uint64_t edges_scanned = 0;
  uint64_t messages = 0;
  uint64_t vertex_activations = 0;
  uint64_t wire_messages = 0;
  uint64_t wire_bytes = 0;
  double wall_seconds = 0.0;
  double modeled_seconds = 0.0;
  std::vector<FrontierStep> per_step;
  FaultStats faults;  // the run's RecoverySession accounting
};

/// Direction-optimizing BFS (Beamer-style): push steps scatter the
/// frontier over out-edges; pull steps gather over Graph::ReversedView()
/// in-edges with first-hit early exit. Results are bit-identical to a
/// push-only run for any direction schedule, worker count, and host
/// thread count. `status` is non-OK (and `distance` empty) when `source`
/// is out of range.
struct FrontierBfsResult {
  std::vector<uint32_t> distance;  // kFrontierUnreachable if not reached
  FrontierTraversalStats stats;
  Status status;
};
FrontierBfsResult FrontierBfs(const Graph& g, VertexId source,
                              const FrontierEngineOptions& options = {});

/// Hash-min weakly-connected components over the undirected view
/// (Graph::UndirectedView(): out ∪ in neighbors), so directed graphs get
/// *weak* components. Push steps scatter changed labels; pull steps
/// gather the neighborhood minimum under the frontier bitmap.
struct FrontierWccResult {
  std::vector<VertexId> component;  // min vertex id of each component
  uint32_t num_components = 0;
  FrontierTraversalStats stats;
};
FrontierWccResult FrontierWcc(const Graph& g,
                              const FrontierEngineOptions& options = {});

/// Bellman-Ford SSSP with SyntheticEdgeWeight-compatible weights
/// supplied by `weight`. Always scatters (weighted gather has no early
/// exit), but the active set rides the frontier substrate: the sparse
/// queue tracks improved vertices, deduplicated through the bitmap.
struct FrontierSsspResult {
  std::vector<uint64_t> distance;  // UINT64_MAX if not reached
  FrontierTraversalStats stats;
  Status status;
};
using EdgeWeightFn = uint32_t (*)(VertexId, VertexId);
FrontierSsspResult FrontierSssp(const Graph& g, VertexId source,
                                EdgeWeightFn weight,
                                const FrontierEngineOptions& options = {});

}  // namespace gal

#endif  // GAL_FRONTIER_TRAVERSAL_H_
