#ifndef GAL_TLAG_ALGOS_TRIANGLES_H_
#define GAL_TLAG_ALGOS_TRIANGLES_H_

#include <cstdint>
#include <span>
#include <vector>

#include "graph/graph.h"
#include "tlag/task_engine.h"

namespace gal {

/// The degree-oriented adjacency of vertices [begin, end), flattened:
/// row v holds v's neighbors u with (deg(u), u) > (deg(v), v), sorted by
/// id. Orientation makes every triangle counted exactly once and bounds
/// out-degrees by O(sqrt(|E|)) on arbitrary graphs. The serial and task
/// counters build it once over the whole graph, the out-of-core counter
/// once per shard, so all three intersect the same operands.
struct OrientedRows {
  VertexId begin = 0;
  std::vector<EdgeId> start;  // row v: [start[v - begin], start[v - begin + 1])
  std::vector<VertexId> rows;

  std::span<const VertexId> Row(VertexId v) const {
    return {rows.data() + start[v - begin], rows.data() + start[v - begin + 1]};
  }

  /// Rebuilds the rows of [first, last) from `adj` (anything with
  /// ForEachOutNeighbor: a Graph, a PinnedShard) oriented by `degrees`
  /// (anything with Degree), reusing this object's capacity.
  template <typename Adjacency, typename Degrees>
  void Build(const Adjacency& adj, const Degrees& degrees, VertexId first,
             VertexId last) {
    begin = first;
    start.assign(last - first + 1, 0);
    rows.clear();
    for (VertexId v = first; v < last; ++v) {
      const uint32_t dv = degrees.Degree(v);
      adj.ForEachOutNeighbor(v, [&](VertexId u) {
        const uint32_t du = degrees.Degree(u);
        if (du > dv || (du == dv && u > v)) rows.push_back(u);
      });
      start[v - first + 1] = rows.size();
    }
  }
};

/// Intersection-based triangle counting — the "one machine beats 1636"
/// side of the survey's §1 anecdote. Work is Σ_v d+(v)² intersections
/// over a degree-oriented graph with *zero* messages, versus the TLAV
/// formulation's one message per wedge.
struct TriangleCountResult {
  uint64_t triangles = 0;
  /// Adjacency elements touched by the merge intersections; the unit to
  /// compare against TlavStats::total_messages.
  uint64_t intersection_ops = 0;
  double wall_seconds = 0.0;
  TaskEngineStats task_stats;  // zeroed for the serial variant

  /// Simulated-cluster attribution, populated only when
  /// TaskEngineConfig::cluster is set: the task for v runs on v's home
  /// worker (owner computes), and every oriented row it intersects is
  /// charged on the runtime's ledger from the row's home to v's.
  /// `migrated_bytes` is the subset homed off v's worker — what a real
  /// cluster would move; both byte counts are independent of host
  /// threads and stealing. Each chunk-round closes one VirtualClock
  /// round (max worker busy + transfer time).
  uint64_t data_touched_bytes = 0;
  uint64_t migrated_bytes = 0;
  double modeled_seconds = 0.0;

  /// Fault-tolerance accounting (cluster/checkpoint.h), populated when
  /// the config carries an active FaultPlan and a cluster: the vertex
  /// tasks run as chunk-rounds with the folded {triangles, ops} totals
  /// checkpointed between chunks, so an injected worker failure replays
  /// only the chunks since the last checkpoint and the final counts stay
  /// bit-identical to the failure-free run.
  uint32_t checkpoints_taken = 0;
  uint64_t checkpoint_bytes = 0;
  uint64_t restored_bytes = 0;
  uint32_t failures_recovered = 0;
  uint32_t recomputed_rounds = 0;
};

/// Single-threaded external-memory-style pass (Chu & Cheng's serial
/// contender).
TriangleCountResult SerialTriangleCount(const Graph& g);

/// The same algorithm as per-vertex tasks on the work-stealing engine.
TriangleCountResult TaskTriangleCount(const Graph& g,
                                      const TaskEngineConfig& config = {});

}  // namespace gal

#endif  // GAL_TLAG_ALGOS_TRIANGLES_H_
