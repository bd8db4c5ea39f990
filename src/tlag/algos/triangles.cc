#include "tlag/algos/triangles.h"

#include <algorithm>
#include <numeric>
#include <optional>
#include <vector>

#include "cluster/checkpoint.h"
#include "cluster/cluster.h"
#include "common/timer.h"
#include "graph/intersect.h"
#include "partition/partition.h"

namespace gal {
namespace {

/// Builds the degree-oriented adjacency: for each v, neighbors u with
/// (deg(u), u) > (deg(v), v), kept sorted by id. Orientation makes every
/// triangle counted exactly once and bounds out-degrees by O(sqrt(|E|))
/// on arbitrary graphs.
std::vector<std::vector<VertexId>> OrientByDegree(const Graph& g) {
  const VertexId n = g.NumVertices();
  std::vector<std::vector<VertexId>> out(n);
  for (VertexId v = 0; v < n; ++v) {
    const uint32_t dv = g.Degree(v);
    g.ForEachOutNeighbor(v, [&](VertexId u) {
      const uint32_t du = g.Degree(u);
      if (du > dv || (du == dv && u > v)) out[v].push_back(u);
    });
  }
  return out;
}

/// Per-worker triangle/ops tally, padded to a cache line so concurrent
/// workers never share one — the ledger idiom; folded once at the end.
struct alignas(64) WorkerTally {
  uint64_t triangles = 0;
  uint64_t ops = 0;
};

/// Folds one chunk-round's engine stats into the run's: the first
/// round's are taken whole (span summaries included), later rounds add
/// their counters and busy time.
void AddRoundStats(const TaskEngineStats& round, TaskEngineStats& run) {
  if (run.busy_seconds.empty()) {
    run = round;
    return;
  }
  run.tasks_executed += round.tasks_executed;
  run.tasks_spawned += round.tasks_spawned;
  run.steals += round.steals;
  run.failed_steal_attempts += round.failed_steal_attempts;
  run.parks += round.parks;
  run.wall_seconds += round.wall_seconds;
  for (size_t t = 0; t < round.busy_seconds.size(); ++t) {
    run.busy_seconds[t] += round.busy_seconds[t];
  }
}

}  // namespace

TriangleCountResult SerialTriangleCount(const Graph& g) {
  Timer timer;
  TriangleCountResult result;
  const std::vector<std::vector<VertexId>> oriented = OrientByDegree(g);
  for (VertexId v = 0; v < g.NumVertices(); ++v) {
    for (VertexId u : oriented[v]) {
      result.triangles +=
          IntersectCount(oriented[v], oriented[u], &result.intersection_ops);
    }
  }
  result.wall_seconds = timer.ElapsedSeconds();
  return result;
}

TriangleCountResult TaskTriangleCount(const Graph& g,
                                      const TaskEngineConfig& config) {
  Timer timer;
  TriangleCountResult result;
  const std::vector<std::vector<VertexId>> oriented = OrientByDegree(g);
  // One padded tally per engine thread; contention-free during a round,
  // folded after the engine drains.
  std::vector<WorkerTally> tallies(ResolveTaskThreads(config.num_threads));

  // Simulated-cluster attribution: make sure the runtime has a placement
  // for this graph (hash by default, or whatever a caller pre-installed);
  // the session marks the ledger so the job's traffic is a clean delta.
  ClusterRuntime* cluster = config.cluster;
  const VertexPartition* parts = nullptr;
  std::optional<RecoverySession> session;
  if (cluster != nullptr) {
    if (!cluster->has_partition() ||
        cluster->partition().assignment.size() != g.NumVertices()) {
      cluster->InstallPartition(HashPartition(g, cluster->num_workers()));
    }
    parts = &cluster->partition();
    session.emplace(cluster, config.faults);
    // The checkpointed state is the folded {triangles, ops} running
    // totals: the order-independent sum keeps recovered counts
    // bit-identical to the failure-free run.
    session->Start({[&](BlobWriter& w) {
                      w.Pod(result.triangles);
                      w.Pod(result.intersection_ops);
                    },
                    [&](BlobReader& r) {
                      result.triangles = r.Pod<uint64_t>();
                      result.intersection_ops = r.Pod<uint64_t>();
                    }});
  }

  const auto process = [&](VertexId& v, TaskEngine<VertexId>::Context& ctx) {
    WorkerTally& tally = tallies[ctx.thread_id()];
    if (parts != nullptr) {
      ctx.TouchPartition(parts->assignment[v],
                         oriented[v].size() * sizeof(VertexId));
    }
    for (VertexId u : oriented[v]) {
      if (parts != nullptr) {
        ctx.TouchPartition(parts->assignment[u],
                           oriented[u].size() * sizeof(VertexId));
      }
      tally.triangles += IntersectCount(oriented[v], oriented[u], &tally.ops);
    }
  };

  // The vertex-task list runs as chunk-rounds, each one work-stealing
  // pass closed by the session's round barrier. A fault plan slices it
  // into 16 rounds, so a failure replays only the chunks since the last
  // checkpoint and stragglers stretch single rounds; otherwise the whole
  // list is one round. (No rebalancing: work-stealing already balances
  // within a round.)
  const VertexId n = g.NumVertices();
  const VertexId rounds = session && !config.faults.empty() ? 16 : 1;
  const VertexId chunk = std::max<VertexId>(1, (n + rounds - 1) / rounds);
  const uint32_t num_rounds = std::max<VertexId>(1, (n + chunk - 1) / chunk);
  TaskEngine<VertexId> engine(config);
  uint32_t round = 0;
  while (round < num_rounds) {
    const VertexId begin = round * chunk;
    std::vector<VertexId> tasks(std::min<VertexId>(n, begin + chunk) - begin);
    std::iota(tasks.begin(), tasks.end(), begin);
    for (WorkerTally& tally : tallies) tally = WorkerTally{};
    const TaskEngineStats round_stats = engine.Run(std::move(tasks), process);
    for (const WorkerTally& tally : tallies) {
      result.triangles += tally.triangles;
      result.intersection_ops += tally.ops;
    }
    AddRoundStats(round_stats, result.task_stats);
    if (!session) {
      ++round;
      continue;
    }
    // Fold host-thread busy time onto simulated workers (thread t ran
    // worker t mod W).
    std::vector<double> worker_compute(cluster->num_workers(), 0.0);
    for (size_t t = 0; t < round_stats.busy_seconds.size(); ++t) {
      worker_compute[t % worker_compute.size()] += round_stats.busy_seconds[t];
    }
    session->EndRound(&round, worker_compute, session->PendingTraffic());
  }
  result.wall_seconds = timer.ElapsedSeconds();

  if (session) {
    const TrafficSnapshot traffic = session->RunTraffic();
    result.migrated_bytes = traffic.cross_bytes;
    result.data_touched_bytes = traffic.cross_bytes + traffic.local_bytes;
    result.modeled_seconds = session->RunSeconds();
    const FaultStats& fault_stats = session->stats();
    result.checkpoints_taken = fault_stats.checkpoints_taken;
    result.checkpoint_bytes = fault_stats.checkpoint_bytes;
    result.restored_bytes = fault_stats.restored_bytes;
    result.failures_recovered = fault_stats.failures_recovered;
    result.recomputed_rounds = fault_stats.recomputed_rounds;
  }
  return result;
}

}  // namespace gal
