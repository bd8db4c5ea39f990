#include "frontier/traversal.h"

#include <algorithm>
#include <numeric>

#include "common/threadpool.h"
#include "common/timer.h"
#include "graph/components.h"
#include "partition/partition.h"

namespace gal {
namespace {

/// Per-worker counters a worker updates without synchronization.
struct alignas(64) StepCounters {
  uint64_t edges = 0;
  uint64_t messages = 0;
  uint64_t active = 0;
};

/// The simulated-cluster scaffolding every frontier traversal shares:
/// worker count and partition resolution, per-worker vertex buckets,
/// exchange lanes, the wire charges of one step, and the step barrier,
/// which is the shared RecoverySession's round barrier. Step indices are
/// 0-based and double as the session's round numbers.
class FrontierRuntime {
 public:
  /// `payload_bytes` is the size of one logical message (and of one
  /// vertex's traversal value, which is what a migration moves).
  FrontierRuntime(const Graph& g, const FrontierEngineOptions& options,
                  uint64_t payload_bytes)
      : graph_(g),
        owned_(options.cluster == nullptr
                   ? std::make_unique<ClusterRuntime>(ClusterOptions{
                         ResolveClusterWorkers(options.num_workers),
                         NetworkCostModel{}})
                   : nullptr),
        cluster_(options.cluster != nullptr ? options.cluster : owned_.get()),
        workers_(cluster_->num_workers()),
        payload_bytes_(payload_bytes),
        wire_message_bytes_(payload_bytes + options.message_overhead_bytes),
        partition_(HashPartition(g, workers_)),
        pool_(std::min(workers_, ResolveTaskThreads(0))),
        owned_vertices_(VerticesByWorker(partition_)),
        counters_(workers_),
        wire_msgs_(workers_, std::vector<uint64_t>(workers_, 0)),
        compute_seconds_(workers_, 0.0),
        session_(cluster_, options.faults) {
    cluster_->InstallPartition(partition_);
  }

  uint32_t workers() const { return workers_; }
  uint32_t OwnerOf(VertexId v) const { return partition_.assignment[v]; }
  const std::vector<VertexId>& OwnedVertices(uint32_t w) const {
    return owned_vertices_[w];
  }

  /// Registers the traversal's state at the step barrier (`save`
  /// appends it to a snapshot, `load` reads it back in the same order)
  /// with the session, which snapshots it as the pre-step-0 rollback
  /// point when the fault plan can fail a worker. The runtime adds the
  /// surviving step schedule's length and its own migration hook.
  void Start(RoundHooks traversal) {
    session_.Start(
        {[this, save = std::move(traversal.save)](BlobWriter& w) {
           save(w);
           w.Pod(stats_.steps);
           w.Pod(stats_.push_steps);
           w.Pod(stats_.pull_steps);
         },
         [this, load = std::move(traversal.load)](BlobReader& r) {
           load(r);
           stats_.steps = r.Pod<uint32_t>();
           stats_.push_steps = r.Pod<uint32_t>();
           stats_.pull_steps = r.Pod<uint32_t>();
           stats_.per_step.resize(stats_.steps);
         },
         [this](uint32_t from) {
           // A moved vertex ships its value and its frontier bit.
           if (session_.MigrateAway(
                   graph_, from, [&](VertexId) { return payload_bytes_ + 1; },
                   partition_)) {
             owned_vertices_ = VerticesByWorker(partition_);
           }
         }});
  }

  /// Runs fn(w) on every simulated worker (host threads are an
  /// execution detail) and accumulates per-worker wall time for the
  /// virtual clock.
  void ForEachWorker(const std::function<void(uint32_t)>& fn) {
    pool_.ParallelFor(workers_, [&](size_t w) {
      Timer t;
      fn(static_cast<uint32_t>(w));
      compute_seconds_[w] += t.ElapsedSeconds();
    });
  }

  StepCounters& counters(uint32_t w) { return counters_[w]; }
  /// Counts one wire message from src to dst (no-op when src == dst —
  /// local handoffs are free on the wire).
  void CountWire(uint32_t src, uint32_t dst) {
    if (src != dst) ++wire_msgs_[src][dst];
  }

  /// Opens a step walking `dir` from a frontier of the given size.
  void BeginStep(Direction dir, uint64_t frontier_vertices,
                 uint64_t frontier_edges) {
    step_ = FrontierStep{};
    step_.direction = dir;
    step_.frontier_vertices = frontier_vertices;
    step_.frontier_edges = frontier_edges;
    for (StepCounters& c : counters_) c = StepCounters{};
    for (auto& row : wire_msgs_) std::fill(row.begin(), row.end(), 0);
    std::fill(compute_seconds_.begin(), compute_seconds_.end(), 0.0);
  }

  /// Charges an all-to-all broadcast of `bytes_per_pair` from every
  /// worker to every other — the frontier-bitmap shipment that lets a
  /// pull step test membership locally instead of messaging per edge.
  void ChargeBroadcast(uint64_t bytes_per_pair) {
    for (uint32_t src = 0; src < workers_; ++src) {
      cluster_->ledger().ChargeBroadcast(src, bytes_per_pair);
    }
  }

  /// The step barrier, called once the traversal has installed the next
  /// frontier. Charges the step's wire messages to the ledger, folds the
  /// counters into the run's stats, and closes the session's round:
  /// clock round, checkpoint, failure rollback, rebalance. Returns the
  /// index of the step to run next — `step + 1`, or the replay point
  /// after a rollback.
  uint32_t EndStep(uint32_t step) {
    for (const StepCounters& c : counters_) {
      step_.edges_scanned += c.edges;
      step_.messages += c.messages;
      step_.active_vertices += c.active;
    }
    TrafficLedger& ledger = cluster_->ledger();
    for (uint32_t src = 0; src < workers_; ++src) {
      for (uint32_t dst = 0; dst < workers_; ++dst) {
        const uint64_t msgs = wire_msgs_[src][dst];
        if (msgs > 0) ledger.Charge(src, dst, msgs * wire_message_bytes_, msgs);
      }
    }
    const TrafficSnapshot traffic = session_.PendingTraffic();
    step_.wire_messages = traffic.cross_messages;
    step_.wire_bytes = traffic.cross_bytes;
    ++stats_.steps;
    if (step_.direction == Direction::kPush) ++stats_.push_steps;
    else ++stats_.pull_steps;
    stats_.edges_scanned += step_.edges_scanned;
    stats_.messages += step_.messages;
    stats_.vertex_activations += step_.active_vertices;
    stats_.per_step.push_back(step_);
    session_.EndRound(&step, compute_seconds_, traffic);
    return step;
  }

  /// Finalizes the run's stats from the ledger/clock deltas.
  FrontierTraversalStats Finish(uint32_t switches) {
    const TrafficSnapshot traffic = session_.RunTraffic();
    stats_.wire_messages = traffic.cross_messages;
    stats_.wire_bytes = traffic.cross_bytes;
    stats_.modeled_seconds = session_.RunSeconds();
    stats_.wall_seconds = timer_.ElapsedSeconds();
    stats_.direction_switches = switches;
    stats_.faults = session_.stats();
    return std::move(stats_);
  }

 private:
  Timer timer_;
  const Graph& graph_;
  std::unique_ptr<ClusterRuntime> owned_;
  ClusterRuntime* cluster_;
  uint32_t workers_;
  uint64_t payload_bytes_;
  uint64_t wire_message_bytes_;
  VertexPartition partition_;
  ThreadPool pool_;
  std::vector<std::vector<VertexId>> owned_vertices_;
  std::vector<StepCounters> counters_;
  std::vector<std::vector<uint64_t>> wire_msgs_;  // [src][dst], per step
  std::vector<double> compute_seconds_;
  RecoverySession session_;
  FrontierStep step_;  // the step in flight
  FrontierTraversalStats stats_;
};

/// Appends a frontier's vertex list to a snapshot.
void SaveFrontier(const VertexFrontier& frontier, BlobWriter& w) {
  const std::span<const VertexId> verts = frontier.Vertices();
  w.Vec(std::vector<VertexId>(verts.begin(), verts.end()));
}

/// Rebuilds a frontier (and its scout count) from a snapshot.
void LoadFrontier(const Graph& g, BlobReader& r, VertexFrontier& frontier) {
  frontier.Clear();
  for (VertexId v : r.Vec<VertexId>()) frontier.Add(v, g.Degree(v));
}

/// Per-(src worker, dst worker) exchange lanes of one step, reused
/// across steps. Only the owning src worker appends to its row.
template <typename Entry>
class Lanes {
 public:
  explicit Lanes(uint32_t workers)
      : lanes_(workers, std::vector<std::vector<Entry>>(workers)) {}

  void Push(uint32_t src, uint32_t dst, Entry e) {
    lanes_[src][dst].push_back(std::move(e));
  }
  /// Visits dst's inbound lanes in ascending src order (the
  /// deterministic delivery order) and clears them.
  void Drain(uint32_t dst, const std::function<void(const Entry&)>& fn) {
    for (auto& row : lanes_) {
      for (const Entry& e : row[dst]) fn(e);
      row[dst].clear();
    }
  }

 private:
  std::vector<std::vector<std::vector<Entry>>> lanes_;  // [src][dst]
};

/// Splits the frontier into per-owner buckets for a push step.
void BucketByOwner(const FrontierRuntime& rt,
                   std::span<const VertexId> frontier,
                   std::vector<std::vector<VertexId>>& buckets) {
  for (auto& b : buckets) b.clear();
  for (VertexId v : frontier) buckets[rt.OwnerOf(v)].push_back(v);
}

}  // namespace

FrontierBfsResult FrontierBfs(const Graph& g, VertexId source,
                              const FrontierEngineOptions& options) {
  FrontierBfsResult result;
  const VertexId n = g.NumVertices();
  if (source >= n) {
    result.status = Status::InvalidArgument(
        "BFS source " + std::to_string(source) + " out of range for |V|=" +
        std::to_string(n));
    return result;
  }
  FrontierRuntime rt(g, options, sizeof(VertexId));
  const uint32_t W = rt.workers();

  std::vector<uint32_t>& dist = result.distance;
  dist.assign(n, kFrontierUnreachable);
  dist[source] = 0;

  VertexFrontier frontier(n), next(n);
  frontier.Add(source, g.Degree(source));
  uint64_t unexplored_edges = g.NumAdjacencyEntries() - g.Degree(source);
  DirectionController controller(options.direction, n);
  const Graph* reversed = nullptr;  // in-neighbor view, built at first pull
  // With the frontier, the controller state and the unexplored mass
  // restored, a replayed step picks the same direction.
  rt.Start({[&](BlobWriter& w) {
              w.Vec(dist);
              SaveFrontier(frontier, w);
              w.Pod(controller);
              w.Pod(unexplored_edges);
            },
            [&](BlobReader& r) {
              dist = r.Vec<uint32_t>();
              LoadFrontier(g, r, frontier);
              controller = r.Pod<DirectionController>();
              unexplored_edges = r.Pod<uint64_t>();
            }});

  Lanes<VertexId> lanes(W);
  std::vector<std::vector<VertexId>> buckets(W);
  std::vector<std::vector<VertexId>> next_lane(W);

  uint32_t step = 0;
  while (!frontier.Empty() && step < options.max_steps) {
    const uint32_t level = step + 1;
    const Direction dir = controller.Next(
        frontier.EdgeCount(), frontier.VertexCount(), unexplored_edges);
    rt.BeginStep(dir, frontier.VertexCount(), frontier.EdgeCount());

    if (dir == Direction::kPush) {
      BucketByOwner(rt, frontier.Vertices(), buckets);
      // Scatter: frontier vertices send their id to every still
      // unvisited out-neighbor's owner.
      rt.ForEachWorker([&](uint32_t w) {
        StepCounters& c = rt.counters(w);
        for (VertexId v : buckets[w]) {
          ++c.active;
          g.ForEachOutNeighbor(v, [&](VertexId u) {
            ++c.edges;
            if (dist[u] != kFrontierUnreachable) return;
            ++c.messages;
            const uint32_t dst = rt.OwnerOf(u);
            rt.CountWire(w, dst);
            lanes.Push(w, dst, u);
          });
        }
      });
      // Deliver: each owner claims its newly reached vertices in the
      // deterministic lane order.
      rt.ForEachWorker([&](uint32_t d) {
        lanes.Drain(d, [&](const VertexId& u) {
          if (dist[u] == kFrontierUnreachable) {
            dist[u] = level;
            next_lane[d].push_back(u);
          }
        });
      });
    } else {
      if (reversed == nullptr) reversed = &g.ReversedView();
      const FrontierBitmap& bits = frontier.Bitmap();
      // A pull step's only wire traffic is the frontier bitmap: each
      // worker ships its |V|/W-vertex slice to every other worker once,
      // and all membership probes after that are local. This is the
      // comm-volume flip: a dense frontier costs O(|V|/8) bytes instead
      // of one message per unclaimed in-edge.
      rt.ChargeBroadcast((n + W - 1) / W / 8 + 1 +
                         options.message_overhead_bytes);
      // Gather: every unvisited vertex probes its in-neighbors and
      // claims the level at the first frontier hit.
      rt.ForEachWorker([&](uint32_t d) {
        StepCounters& c = rt.counters(d);
        for (VertexId v : rt.OwnedVertices(d)) {
          if (dist[v] != kFrontierUnreachable) continue;
          ++c.active;
          // Cursor, not callback: the whole point of the pull lane is
          // stopping at the first frontier hit, which a ForEach can't.
          for (Graph::NeighborCursor cur = reversed->OutNeighbors(v);
               cur.Valid(); cur.Next()) {
            ++c.edges;
            ++c.messages;
            if (bits.Test(cur.Get())) {
              dist[v] = level;
              next_lane[d].push_back(v);
              break;
            }
          }
        }
      });
    }

    // Merge the next frontier in worker order — deterministic at any
    // host thread count.
    next.Clear();
    for (uint32_t w = 0; w < W; ++w) {
      for (VertexId v : next_lane[w]) next.Add(v, g.Degree(v));
      next_lane[w].clear();
    }
    unexplored_edges -= next.EdgeCount();
    frontier.Swap(next);
    step = rt.EndStep(step);
  }

  result.stats = rt.Finish(controller.switches());
  return result;
}

FrontierWccResult FrontierWcc(const Graph& g,
                              const FrontierEngineOptions& options) {
  FrontierWccResult result;
  // Weak components: propagate over out ∪ in neighbors. For undirected
  // graphs this is the graph itself; for directed ones the lazily
  // cached symmetrized view.
  const Graph& ug = g.UndirectedView();
  const VertexId n = ug.NumVertices();
  FrontierRuntime rt(ug, options, sizeof(VertexId));
  const uint32_t W = rt.workers();

  std::vector<VertexId>& label = result.component;
  label.resize(n);
  std::iota(label.begin(), label.end(), 0);
  // Equal to `label` at every step barrier; a step writes improvements
  // here first so its reads see the previous step's labels.
  std::vector<VertexId> next_label = label;

  VertexFrontier frontier(n), next(n);
  for (VertexId v = 0; v < n; ++v) frontier.Add(v, ug.Degree(v));
  // Labels keep improving anywhere, so Beamer's "unexplored" mass is the
  // whole edge set: pull once the frontier covers > 1/alpha of it.
  const uint64_t total_edges = ug.NumAdjacencyEntries();
  DirectionController controller(options.direction, n);
  rt.Start({[&](BlobWriter& w) {
              w.Vec(label);
              SaveFrontier(frontier, w);
              w.Pod(controller);
            },
            [&](BlobReader& r) {
              label = r.Vec<VertexId>();
              next_label = label;
              LoadFrontier(ug, r, frontier);
              controller = r.Pod<DirectionController>();
            }});

  struct LabelMsg {
    VertexId dst;
    VertexId label;
  };
  Lanes<LabelMsg> lanes(W);
  std::vector<std::vector<VertexId>> buckets(W);
  std::vector<std::vector<VertexId>> next_lane(W);

  uint32_t step = 0;
  while (!frontier.Empty() && step < options.max_steps) {
    const Direction dir = controller.Next(
        frontier.EdgeCount(), frontier.VertexCount(), total_edges);
    rt.BeginStep(dir, frontier.VertexCount(), frontier.EdgeCount());

    if (dir == Direction::kPush) {
      BucketByOwner(rt, frontier.Vertices(), buckets);
      rt.ForEachWorker([&](uint32_t w) {
        StepCounters& c = rt.counters(w);
        for (VertexId v : buckets[w]) {
          ++c.active;
          const VertexId lv = label[v];
          ug.ForEachOutNeighbor(v, [&](VertexId u) {
            ++c.edges;
            if (lv >= label[u]) return;  // cannot improve u
            ++c.messages;
            const uint32_t dst = rt.OwnerOf(u);
            rt.CountWire(w, dst);
            lanes.Push(w, dst, {u, lv});
          });
        }
      });
      rt.ForEachWorker([&](uint32_t d) {
        lanes.Drain(d, [&](const LabelMsg& m) {
          if (m.label < next_label[m.dst]) {
            // First improvement enrolls the vertex in the next frontier.
            if (next_label[m.dst] == label[m.dst]) {
              next_lane[d].push_back(m.dst);
            }
            next_label[m.dst] = m.label;
          }
        });
      });
    } else {
      const FrontierBitmap& bits = frontier.Bitmap();
      // Gather: every vertex takes the minimum label over its frontier
      // neighbors. No early exit exists for a min-gather, but the scan
      // is sequential over the local CSR and pays wire cost only for
      // cross-partition probes.
      rt.ForEachWorker([&](uint32_t d) {
        StepCounters& c = rt.counters(d);
        for (VertexId v : rt.OwnedVertices(d)) {
          ++c.active;
          VertexId best = label[v];
          ug.ForEachOutNeighbor(v, [&](VertexId u) {
            ++c.edges;
            if (!bits.Test(u)) return;
            ++c.messages;
            rt.CountWire(d, rt.OwnerOf(u));
            best = std::min(best, label[u]);
          });
          if (best < label[v]) {
            next_label[v] = best;
            next_lane[d].push_back(v);
          }
        }
      });
    }

    next.Clear();
    for (uint32_t w = 0; w < W; ++w) {
      for (VertexId v : next_lane[w]) {
        label[v] = next_label[v];
        next.Add(v, ug.Degree(v));
      }
      next_lane[w].clear();
    }
    frontier.Swap(next);
    step = rt.EndStep(step);
  }

  result.num_components = CountComponents(label);
  result.stats = rt.Finish(controller.switches());
  return result;
}

FrontierSsspResult FrontierSssp(const Graph& g, VertexId source,
                                EdgeWeightFn weight,
                                const FrontierEngineOptions& options) {
  FrontierSsspResult result;
  const VertexId n = g.NumVertices();
  if (source >= n) {
    result.status = Status::InvalidArgument(
        "SSSP source " + std::to_string(source) + " out of range for |V|=" +
        std::to_string(n));
    return result;
  }
  constexpr uint64_t kInf = std::numeric_limits<uint64_t>::max();
  FrontierRuntime rt(g, options, sizeof(uint64_t));
  const uint32_t W = rt.workers();

  std::vector<uint64_t>& dist = result.distance;
  dist.assign(n, kInf);
  dist[source] = 0;

  // Weighted relaxation has no pull early-exit, so every step scatters;
  // the frontier substrate still carries the active set (sparse queue,
  // bitmap dedup of re-improved vertices).
  VertexFrontier frontier(n), next(n);
  frontier.Add(source, g.Degree(source));
  rt.Start({[&](BlobWriter& w) {
              w.Vec(dist);
              SaveFrontier(frontier, w);
            },
            [&](BlobReader& r) {
              dist = r.Vec<uint64_t>();
              LoadFrontier(g, r, frontier);
            }});
  // One dedup bitmap PER drain worker: workers own disjoint vertices,
  // but bits of different owners share 64-bit words, so a single
  // shared bitmap would make the drain phase's read-modify-writes race
  // (a lost Set drops an improved vertex from the next frontier).
  std::vector<FrontierBitmap> in_next(W, FrontierBitmap(n));

  struct DistMsg {
    VertexId dst;
    uint64_t dist;
  };
  Lanes<DistMsg> lanes(W);
  std::vector<std::vector<VertexId>> buckets(W);
  std::vector<std::vector<VertexId>> next_lane(W);

  uint32_t step = 0;
  while (!frontier.Empty() && step < options.max_steps) {
    rt.BeginStep(Direction::kPush, frontier.VertexCount(),
                 frontier.EdgeCount());
    BucketByOwner(rt, frontier.Vertices(), buckets);
    rt.ForEachWorker([&](uint32_t w) {
      StepCounters& c = rt.counters(w);
      for (VertexId v : buckets[w]) {
        ++c.active;
        const uint64_t dv = dist[v];
        g.ForEachOutNeighbor(v, [&](VertexId u) {
          ++c.edges;
          // Weights are a function of ORIGINAL ids so a reordered
          // layout traverses the same weighted graph.
          const uint64_t cand = dv + weight(g.OriginalId(v), g.OriginalId(u));
          if (cand >= dist[u]) return;  // stale reads only skip work
          ++c.messages;
          const uint32_t dst = rt.OwnerOf(u);
          rt.CountWire(w, dst);
          lanes.Push(w, dst, {u, cand});
        });
      }
    });
    rt.ForEachWorker([&](uint32_t d) {
      lanes.Drain(d, [&](const DistMsg& m) {
        if (m.dist < dist[m.dst]) {
          dist[m.dst] = m.dist;
          if (!in_next[d].Test(m.dst)) {
            in_next[d].Set(m.dst);
            next_lane[d].push_back(m.dst);
          }
        }
      });
    });

    next.Clear();
    for (uint32_t w = 0; w < W; ++w) {
      for (VertexId v : next_lane[w]) {
        in_next[w].Clear(v);
        next.Add(v, g.Degree(v));
      }
      next_lane[w].clear();
    }
    frontier.Swap(next);
    step = rt.EndStep(step);
  }

  result.stats = rt.Finish(0);
  return result;
}

}  // namespace gal
