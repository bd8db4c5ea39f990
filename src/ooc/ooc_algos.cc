#include "ooc/ooc_algos.h"

#include <algorithm>
#include <atomic>
#include <numeric>
#include <span>

#include "cluster/cluster.h"
#include "common/threadpool.h"
#include "common/timer.h"
#include "graph/components.h"
#include "graph/intersect.h"
#include "tlag/algos/triangles.h"
#include "tlav/algos/pagerank.h"

namespace gal {
namespace {

/// Books one run's cache traffic and modeled time against the store:
/// snapshots counters at construction, charges one VirtualClock round
/// per superstep (compute wall + bytes/loads since the last charge),
/// and folds the deltas into an OocStats at the end.
class OocRunTracker {
 public:
  explicit OocRunTracker(const ShardedGraph& g)
      : g_(g),
        start_(g.cache().Stats()),
        last_(start_),
        clock_mark_(g.clock().rounds()) {}

  void ChargeSuperstep(double compute_seconds) {
    const ShardCacheStats now = g_.cache().Stats();
    g_.clock().AdvanceRound(compute_seconds, now.bytes_loaded - last_.bytes_loaded,
                            now.loads - last_.loads);
    last_ = now;
    ++supersteps_;
  }

  void AddSkipped(uint64_t n) { shards_skipped_ += n; }

  OocStats Finish() {
    const ShardCacheStats now = g_.cache().Stats();
    OocStats s;
    s.supersteps = supersteps_;
    s.shard_loads = now.loads - start_.loads;
    s.shard_load_bytes = now.bytes_loaded - start_.bytes_loaded;
    s.cache_hits = now.hits - start_.hits;
    s.evictions = now.evictions - start_.evictions;
    s.shards_skipped = shards_skipped_;
    s.peak_resident_bytes = now.peak_resident_bytes;
    s.budget_bytes = g_.cache().budget_bytes();
    s.wall_seconds = timer_.ElapsedSeconds();
    s.modeled_seconds = g_.clock().SecondsSince(clock_mark_);
    for (const ClusterRound& r : g_.clock().RoundsSince(clock_mark_)) {
      s.modeled_io_seconds += r.comm_seconds;
    }
    s.load_timings = g_.cache().LoadTimings();
    return s;
  }

 private:
  const ShardedGraph& g_;
  Timer timer_;
  ShardCacheStats start_;
  ShardCacheStats last_;
  size_t clock_mark_;
  uint32_t supersteps_ = 0;
  uint64_t shards_skipped_ = 0;
};

}  // namespace

OocPageRankResult OocPageRank(const ShardedGraph& g,
                              const OocPageRankOptions& options) {
  const VertexId n = g.NumVertices();
  const uint32_t threads = ResolveTaskThreads(options.num_threads);
  ThreadPool pool(threads);
  OocRunTracker run(g);
  OocPageRankResult result;
  if (n == 0) {
    result.stats = run.Finish();
    return result;
  }

  const double dn = static_cast<double>(n);
  std::vector<double> values(n, 1.0 / dn);
  std::vector<uint64_t> accum(n, 0);
  for (uint32_t step = 1; step <= options.iterations; ++step) {
    Timer superstep;
    std::fill(accum.begin(), accum.end(), 0);

    // Dangling mass needs only vertex state (degrees live in RAM); an
    // exact integer sum, mirroring the TLAV "dangling" aggregator.
    uint64_t dangling_fixed = 0;
    for (VertexId v = 0; v < n; ++v) {
      if (g.Degree(v) == 0) dangling_fixed += ToFixed(values[v]);
    }

    // Scatter sweep, shard at a time: the main thread holds the single
    // pin while the pool fans out over the shard's vertex range.
    // Integer fetch_adds commute, so any interleaving sums exactly.
    for (uint32_t s = 0; s < g.NumShards(); ++s) {
      PinnedShard pin = g.Pin(s);
      const VertexId begin = pin.begin();
      pool.ParallelFor(pin.end() - begin, [&](size_t i) {
        const VertexId v = begin + static_cast<VertexId>(i);
        const uint32_t degree = g.Degree(v);
        if (degree == 0) return;
        const uint64_t contribution = ToFixed(values[v] / degree);
        pin.ForEachOutNeighbor(v, [&](VertexId u) {
          std::atomic_ref<uint64_t>(accum[u])
              .fetch_add(contribution, std::memory_order_relaxed);
        });
      });
    }

    // Gather over vertex state only — no shard access. Same expression
    // as the TLAV Compute body, term for term.
    const double dangling = FromFixed(dangling_fixed) / dn;
    pool.ParallelFor(n, [&](size_t v) {
      values[v] = (1.0 - options.damping) / dn +
                  options.damping * (FromFixed(accum[v]) + dangling);
    });
    run.ChargeSuperstep(superstep.ElapsedSeconds());
  }

  result.ranks = g.MapToOriginal(std::move(values));
  result.stats = run.Finish();
  return result;
}

OocWccResult OocWcc(const ShardedGraph& g, const OocWccOptions& options) {
  GAL_CHECK(!g.directed())
      << "OocWcc needs an undirected shard set — write the UndirectedView";
  const VertexId n = g.NumVertices();
  const uint32_t num_shards = g.NumShards();
  const uint32_t threads = ResolveTaskThreads(options.num_threads);
  ThreadPool pool(threads);
  OocRunTracker run(g);
  OocWccResult result;

  std::vector<VertexId> label(n);
  std::iota(label.begin(), label.end(), 0);
  std::vector<VertexId> next(label);
  std::vector<uint8_t> active(n, 1);
  // Per-shard active-source counts drive the frontier-aware skip: a
  // shard with no active vertex in its range sends nothing this
  // superstep, so it is never even loaded.
  std::vector<uint64_t> shard_active(num_shards, 0);
  for (uint32_t s = 0; s < num_shards; ++s) {
    shard_active[s] = g.shard(s).NumVertices();
  }
  uint64_t total_active = n;

  uint32_t steps = 0;
  while (total_active > 0 && steps < options.max_supersteps) {
    Timer superstep;
    for (uint32_t s = 0; s < num_shards; ++s) {
      if (shard_active[s] == 0) {
        run.AddSkipped(1);
        continue;
      }
      PinnedShard pin = g.Pin(s);
      const VertexId begin = pin.begin();
      pool.ParallelFor(pin.end() - begin, [&](size_t i) {
        const VertexId v = begin + static_cast<VertexId>(i);
        if (!active[v]) return;
        const VertexId lv = label[v];
        pin.ForEachOutNeighbor(v, [&](VertexId u) {
          std::atomic_ref<VertexId> ref(next[u]);
          VertexId cur = ref.load(std::memory_order_relaxed);
          while (lv < cur &&
                 !ref.compare_exchange_weak(cur, lv,
                                            std::memory_order_relaxed)) {
          }
        });
      });
    }
    // Barrier: fold the new frontier and per-shard counts (serial and
    // deterministic; O(n) over RAM-resident state).
    total_active = 0;
    std::fill(shard_active.begin(), shard_active.end(), 0);
    for (uint32_t s = 0; s < num_shards; ++s) {
      const ShardInfo& info = g.shard(s);
      for (VertexId v = info.begin; v < info.end; ++v) {
        const bool changed = next[v] < label[v];
        active[v] = changed ? 1 : 0;
        if (changed) {
          ++shard_active[s];
          ++total_active;
        }
        label[v] = next[v];
      }
    }
    ++steps;
    run.ChargeSuperstep(superstep.ElapsedSeconds());
  }

  // Canonicalize to min-original-id labels with the pass Wcc() uses, so
  // reordered stores report the exact labels the in-memory run does.
  result.component = CanonicalizeComponents(g, std::move(label));
  result.num_components = CountComponents(result.component);
  result.stats = run.Finish();
  return result;
}

OocTriangleResult OocTriangleCount(const ShardedGraph& g,
                                   const OocTriangleOptions& options) {
  OocRunTracker run(g);
  OocTriangleResult result;
  Timer timer;
  const uint32_t threads = ResolveTaskThreads(options.engine.num_threads);

  // Orientation is evaluated on RAM-resident degrees, so every
  // IntersectCount below sees the same operands as the in-memory run.
  // Pins shard s only for the build.
  const auto build = [&g](uint32_t s, OrientedRows& out) {
    const PinnedShard pin = g.Pin(s);
    out.Build(pin, g, pin.begin(), pin.end());
  };

  /// Per-thread workspace, cache-line padded like the in-memory tally:
  /// the source shard's rows, one target shard's rows, and a cursor per
  /// source row.
  struct alignas(64) Scratch {
    OrientedRows source;
    OrientedRows target;
    std::vector<EdgeId> cursor;
    std::vector<uint8_t> wanted;  // [shard] some source row points into it
    uint64_t triangles = 0;
    uint64_t ops = 0;
  };
  std::vector<Scratch> scratch(threads);

  const uint32_t num_shards = g.NumShards();
  std::vector<uint32_t> tasks(num_shards);
  std::iota(tasks.begin(), tasks.end(), 0);
  TaskEngine<uint32_t> engine(options.engine);
  result.task_stats = engine.Run(
      std::move(tasks), [&](uint32_t& s, TaskEngine<uint32_t>::Context& ctx) {
        Scratch& sc = scratch[ctx.thread_id()];
        // Phase 1: pin s once, build its oriented rows, and note the
        // target shards they point into.
        build(s, sc.source);
        const size_t num_rows = sc.source.start.size() - 1;
        sc.wanted.assign(num_shards, 0);
        for (VertexId u : sc.source.rows) sc.wanted[g.ShardOf(u)] = 1;
        sc.cursor.assign(sc.source.start.begin(), sc.source.start.end() - 1);
        // Phase 2: one pin per (s, t) pair. Rows are sorted and shards
        // are contiguous id ranges, so a row's targets in t are one run
        // starting at its cursor; walking t in order consumes each row
        // once. The pin on t is released before intersecting, so this
        // thread never holds two pins. t == s reuses phase 1's rows.
        for (uint32_t t = 0; t < num_shards; ++t) {
          if (!sc.wanted[t]) continue;
          if (t != s) build(t, sc.target);
          const OrientedRows& target = t == s ? sc.source : sc.target;
          const VertexId tend = g.shard(t).end;
          for (size_t i = 0; i < num_rows; ++i) {
            const std::span<const VertexId> ov =
                sc.source.Row(sc.source.begin + static_cast<VertexId>(i));
            EdgeId& c = sc.cursor[i];
            for (; c < sc.source.start[i + 1] && sc.source.rows[c] < tend;
                 ++c) {
              sc.triangles +=
                  IntersectCount(ov, target.Row(sc.source.rows[c]), &sc.ops);
            }
          }
        }
      });

  for (const Scratch& sc : scratch) {
    result.triangles += sc.triangles;
    result.intersection_ops += sc.ops;
  }
  // The whole count is one bulk round on the modeled disk.
  run.ChargeSuperstep(timer.ElapsedSeconds());
  result.stats = run.Finish();
  return result;
}

}  // namespace gal
