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

/// The simulated-cluster scaffolding and the one step loop every
/// frontier traversal shares: worker count and partition resolution,
/// the frontier and next frontier, the direction controller, the
/// `[src][dst]` exchange lanes of `Msg`, the wire charges of one step,
/// and the step barrier, which is the shared RecoverySession's round
/// barrier. A traversal supplies only its per-vertex state and step
/// bodies. Step indices are 0-based and double as the session's round
/// numbers.
template <typename Msg>
class FrontierRuntime {
 public:
  /// `payload_bytes` is the size of one logical message (and of one
  /// vertex's traversal value, which is what a migration moves).
  FrontierRuntime(const Graph& g, const FrontierEngineOptions& options,
                  uint64_t payload_bytes, const DirectionConfig& direction)
      : graph_(g),
        owned_(options.cluster == nullptr
                   ? std::make_unique<ClusterRuntime>(ClusterOptions{
                         ResolveClusterWorkers(options.num_workers),
                         NetworkCostModel{}})
                   : nullptr),
        cluster_(options.cluster != nullptr ? options.cluster : owned_.get()),
        workers_(cluster_->num_workers()),
        max_steps_(options.max_steps),
        payload_bytes_(payload_bytes),
        wire_message_bytes_(payload_bytes + options.message_overhead_bytes),
        partition_(HashPartition(g, workers_)),
        pool_(std::min(workers_, ResolveTaskThreads(0))),
        owned_vertices_(VerticesByWorker(partition_)),
        frontier_(g.NumVertices()),
        next_(g.NumVertices()),
        controller_(direction, g.NumVertices()),
        lanes_(workers_, std::vector<std::vector<Msg>>(workers_)),
        buckets_(workers_),
        enrolled_(workers_),
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

  /// Adds v to the frontier of step 0; call before Start.
  void Seed(VertexId v) { frontier_.Add(v, graph_.Degree(v)); }

  /// Dense view of the step's frontier, for pull bodies.
  const FrontierBitmap& FrontierBits() { return frontier_.Bitmap(); }

  /// Registers the traversal's state at the step barrier (`save`
  /// appends it to a snapshot, `load` reads it back in the same order)
  /// with the session, which snapshots it as the pre-step-0 rollback
  /// point when the fault plan can fail a worker. The runtime adds the
  /// frontier, the controller (so a replayed step picks the same
  /// direction), the surviving step schedule's length and its own
  /// migration hook.
  void Start(RoundHooks traversal) {
    session_.Start(
        {[this, save = std::move(traversal.save)](BlobWriter& w) {
           save(w);
           const std::span<const VertexId> verts = frontier_.Vertices();
           w.Vec(std::vector<VertexId>(verts.begin(), verts.end()));
           w.Pod(controller_);
           w.Pod(stats_.steps);
           w.Pod(stats_.push_steps);
           w.Pod(stats_.pull_steps);
         },
         [this, load = std::move(traversal.load)](BlobReader& r) {
           load(r);
           frontier_.Clear();
           for (VertexId v : r.Vec<VertexId>()) Seed(v);
           controller_ = r.Pod<DirectionController>();
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
  template <typename Fn>
  void ForEachWorker(Fn&& fn) {
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

  /// A push step: buckets the frontier by owner, runs scatter(w, v) for
  /// each frontier vertex on its owner (counting it active and its
  /// out-edges scanned), then has every owner drain its inbound lanes
  /// through deliver(d, msg) in ascending src order — the deterministic
  /// delivery order.
  template <typename Scatter, typename Deliver>
  void Push(Scatter&& scatter, Deliver&& deliver) {
    for (auto& b : buckets_) b.clear();
    for (VertexId v : frontier_.Vertices()) buckets_[OwnerOf(v)].push_back(v);
    ForEachWorker([&](uint32_t w) {
      StepCounters& c = counters_[w];
      for (VertexId v : buckets_[w]) {
        ++c.active;
        c.edges += graph_.Degree(v);
        scatter(w, v);
      }
    });
    ForEachWorker([&](uint32_t d) {
      for (auto& row : lanes_) {
        for (const Msg& m : row[d]) deliver(d, m);
        row[d].clear();
      }
    });
  }

  /// Sends msg from worker w to u's owner during a scatter, counting
  /// the logical message and its wire cost.
  void Send(uint32_t w, VertexId u, Msg msg) {
    ++counters_[w].messages;
    const uint32_t dst = OwnerOf(u);
    CountWire(w, dst);
    lanes_[w][dst].push_back(std::move(msg));
  }

  /// Worker w puts v in the next frontier (at most once per step).
  void Enroll(uint32_t w, VertexId v) { enrolled_[w].push_back(v); }

  /// Charges an all-to-all broadcast of `bytes_per_pair` from every
  /// worker to every other — the frontier-bitmap shipment that lets a
  /// pull step test membership locally instead of messaging per edge.
  void ChargeBroadcast(uint64_t bytes_per_pair) {
    for (uint32_t src = 0; src < workers_; ++src) {
      cluster_->ledger().ChargeBroadcast(src, bytes_per_pair);
    }
  }

  /// The one step loop. While the frontier is non-empty and under
  /// `max_steps`: picks the step's direction from the frontier and the
  /// `unexplored` edge mass (Beamer's m_u, read every step), runs
  /// step(dir, step_index), merges the enrolled vertices into the next
  /// frontier in worker order — deterministic at any host thread count —
  /// calling admit(w, v) on each, and closes the step at the barrier.
  template <typename Step, typename Admit>
  FrontierTraversalStats Run(const uint64_t& unexplored, Step&& step,
                             Admit&& admit) {
    uint32_t s = 0;
    while (!frontier_.Empty() && s < max_steps_) {
      BeginStep(controller_.Next(frontier_.EdgeCount(),
                                 frontier_.VertexCount(), unexplored));
      step(step_.direction, s);
      next_.Clear();
      for (uint32_t w = 0; w < workers_; ++w) {
        for (VertexId v : enrolled_[w]) {
          admit(w, v);
          next_.Add(v, graph_.Degree(v));
        }
        enrolled_[w].clear();
      }
      frontier_.Swap(next_);
      s = EndStep(s);
    }
    return Finish();
  }

 private:
  /// Opens a step walking `dir` from the current frontier.
  void BeginStep(Direction dir) {
    step_ = FrontierStep{};
    step_.direction = dir;
    step_.frontier_vertices = frontier_.VertexCount();
    step_.frontier_edges = frontier_.EdgeCount();
    for (StepCounters& c : counters_) c = StepCounters{};
    for (auto& row : wire_msgs_) std::fill(row.begin(), row.end(), 0);
    std::fill(compute_seconds_.begin(), compute_seconds_.end(), 0.0);
  }

  /// The step barrier, called once the next frontier is installed.
  /// Charges the step's wire messages to the ledger, folds the counters
  /// into the run's stats, and closes the session's round: clock round,
  /// checkpoint, failure rollback, rebalance. Returns the index of the
  /// step to run next — `step + 1`, or the replay point after a
  /// rollback.
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
  FrontierTraversalStats Finish() {
    const TrafficSnapshot traffic = session_.RunTraffic();
    stats_.wire_messages = traffic.cross_messages;
    stats_.wire_bytes = traffic.cross_bytes;
    stats_.modeled_seconds = session_.RunSeconds();
    stats_.wall_seconds = timer_.ElapsedSeconds();
    stats_.direction_switches = controller_.switches();
    stats_.faults = session_.stats();
    return std::move(stats_);
  }

  Timer timer_;
  const Graph& graph_;
  std::unique_ptr<ClusterRuntime> owned_;
  ClusterRuntime* cluster_;
  uint32_t workers_;
  uint32_t max_steps_;
  uint64_t payload_bytes_;
  uint64_t wire_message_bytes_;
  VertexPartition partition_;
  ThreadPool pool_;
  std::vector<std::vector<VertexId>> owned_vertices_;
  VertexFrontier frontier_;
  VertexFrontier next_;
  DirectionController controller_;
  // Only the owning src worker appends to its row of lanes_.
  std::vector<std::vector<std::vector<Msg>>> lanes_;  // [src][dst], per step
  std::vector<std::vector<VertexId>> buckets_;   // push step, per owner
  std::vector<std::vector<VertexId>> enrolled_;  // next frontier, per owner
  std::vector<StepCounters> counters_;
  std::vector<std::vector<uint64_t>> wire_msgs_;  // [src][dst], per step
  std::vector<double> compute_seconds_;
  RecoverySession session_;
  FrontierStep step_;  // the step in flight
  FrontierTraversalStats stats_;
};

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
  FrontierRuntime<VertexId> rt(g, options, sizeof(VertexId), options.direction);
  const uint32_t W = rt.workers();

  std::vector<uint32_t>& dist = result.distance;
  dist.assign(n, kFrontierUnreachable);
  dist[source] = 0;
  rt.Seed(source);
  uint64_t unexplored_edges = g.NumAdjacencyEntries() - g.Degree(source);
  const Graph* reversed = nullptr;  // in-neighbor view, built at first pull
  // With the unexplored mass restored (the runtime restores the frontier
  // and the controller), a replayed step picks the same direction.
  rt.Start({[&](BlobWriter& w) {
              w.Vec(dist);
              w.Pod(unexplored_edges);
            },
            [&](BlobReader& r) {
              dist = r.Vec<uint32_t>();
              unexplored_edges = r.Pod<uint64_t>();
            }});

  const auto step = [&](Direction dir, uint32_t step) {
    const uint32_t level = step + 1;
    if (dir == Direction::kPush) {
      // Scatter: frontier vertices send their id to every still
      // unvisited out-neighbor's owner. Deliver: each owner claims its
      // newly reached vertices in the deterministic lane order.
      rt.Push(
          [&](uint32_t w, VertexId v) {
            g.ForEachOutNeighbor(v, [&](VertexId u) {
              if (dist[u] == kFrontierUnreachable) rt.Send(w, u, u);
            });
          },
          [&](uint32_t d, VertexId u) {
            if (dist[u] == kFrontierUnreachable) {
              dist[u] = level;
              rt.Enroll(d, u);
            }
          });
      return;
    }
    if (reversed == nullptr) reversed = &g.ReversedView();
    const FrontierBitmap& bits = rt.FrontierBits();
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
            rt.Enroll(d, v);
            break;
          }
        }
      }
    });
  };
  result.stats = rt.Run(unexplored_edges, step, [&](uint32_t, VertexId v) {
    unexplored_edges -= g.Degree(v);
  });
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
  struct LabelMsg {
    VertexId dst;
    VertexId label;
  };
  FrontierRuntime<LabelMsg> rt(ug, options, sizeof(VertexId),
                               options.direction);

  std::vector<VertexId>& label = result.component;
  label.resize(n);
  std::iota(label.begin(), label.end(), 0);
  // Equal to `label` at every step barrier; a step writes improvements
  // here first so its reads see the previous step's labels.
  std::vector<VertexId> next_label = label;
  for (VertexId v = 0; v < n; ++v) rt.Seed(v);
  rt.Start({[&](BlobWriter& w) { w.Vec(label); },
            [&](BlobReader& r) {
              label = r.Vec<VertexId>();
              next_label = label;
            }});

  const auto step = [&](Direction dir, uint32_t) {
    if (dir == Direction::kPush) {
      rt.Push(
          [&](uint32_t w, VertexId v) {
            const VertexId lv = label[v];
            ug.ForEachOutNeighbor(v, [&](VertexId u) {
              if (lv < label[u]) rt.Send(w, u, {u, lv});  // improves u
            });
          },
          [&](uint32_t d, const LabelMsg& m) {
            if (m.label < next_label[m.dst]) {
              // First improvement enrolls the vertex in the next frontier.
              if (next_label[m.dst] == label[m.dst]) rt.Enroll(d, m.dst);
              next_label[m.dst] = m.label;
            }
          });
      return;
    }
    const FrontierBitmap& bits = rt.FrontierBits();
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
          rt.Enroll(d, v);
        }
      }
    });
  };
  // Labels keep improving anywhere, so Beamer's "unexplored" mass is the
  // whole edge set: pull once the frontier covers > 1/alpha of it.
  const uint64_t total_edges = ug.NumAdjacencyEntries();
  result.stats = rt.Run(total_edges, step, [&](uint32_t, VertexId v) {
    label[v] = next_label[v];
  });
  result.num_components = CountComponents(label);
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
  struct DistMsg {
    VertexId dst;
    uint64_t dist;
  };
  // Weighted relaxation has no pull early-exit, so every step scatters;
  // the frontier substrate still carries the active set (sparse queue,
  // bitmap dedup of re-improved vertices).
  FrontierRuntime<DistMsg> rt(g, options, sizeof(uint64_t),
                              DirectionConfig{DirectionMode::kPushOnly});

  std::vector<uint64_t>& dist = result.distance;
  dist.assign(n, kInf);
  dist[source] = 0;
  rt.Seed(source);
  rt.Start({[&](BlobWriter& w) { w.Vec(dist); },
            [&](BlobReader& r) { dist = r.Vec<uint64_t>(); }});
  // One dedup bitmap PER drain worker: workers own disjoint vertices,
  // but bits of different owners share 64-bit words, so a single
  // shared bitmap would make the drain phase's read-modify-writes race
  // (a lost Set drops an improved vertex from the next frontier).
  std::vector<FrontierBitmap> in_next(rt.workers(), FrontierBitmap(n));

  const auto step = [&](Direction, uint32_t) {
    rt.Push(
        [&](uint32_t w, VertexId v) {
          const uint64_t dv = dist[v];
          g.ForEachOutNeighbor(v, [&](VertexId u) {
            // Weights are a function of ORIGINAL ids so a reordered
            // layout traverses the same weighted graph.
            const uint64_t cand =
                dv + weight(g.OriginalId(v), g.OriginalId(u));
            // Stale reads only skip work.
            if (cand < dist[u]) rt.Send(w, u, {u, cand});
          });
        },
        [&](uint32_t d, const DistMsg& m) {
          if (m.dist < dist[m.dst]) {
            dist[m.dst] = m.dist;
            if (!in_next[d].Test(m.dst)) {
              in_next[d].Set(m.dst);
              rt.Enroll(d, m.dst);
            }
          }
        });
  };
  result.stats = rt.Run(0, step, [&](uint32_t w, VertexId v) {
    in_next[w].Clear(v);
  });
  return result;
}

}  // namespace gal
