// Workload `ooc`: the analytics graph written to a shard store and run
// out of core — PageRank and WCC at a 25% adjacency budget, triangle
// counting at an unlimited budget. Set-up drops the in-memory graph once
// the store is written, so the passes run from the store alone.

#include <algorithm>
#include <optional>
#include <string>
#include <vector>

#include "bench.h"
#include "graph/graph.h"
#include "graph/io.h"
#include "ooc/ooc_algos.h"
#include "ooc/sharded_graph.h"
#include "tlag/algos/triangles.h"
#include "tlav/algos/pagerank.h"
#include "tlav/algos/wcc.h"

namespace perfbench {
namespace {

constexpr uint32_t kScale = 16;
constexpr uint32_t kTargetShards = 16;
constexpr uint32_t kPageRankIterations = 20;

class Ooc : public Workload {
 public:
  explicit Ooc(const RunConfig& config)
      : config_(config),
        path_(config.workdir + "/rmat.el"),
        store_(config.workdir + "/store") {}

  ~Ooc() override { gal::RemoveShardedGraphFiles(store_); }

  void CreateInputs() override {
    WriteRmatEdgeList(path_, kScale, config_.seed);
  }

  void Setup(Recorder& rec, Values& values) override {
    budget_store_.reset();
    unlimited_store_.reset();
    const gal::Graph graph = rec.Call("graph", "LoadEdgeListFile", nullptr,
                                      [&] { return LoadGraph(); });
    const double load_s = rec.last_seconds();

    gal::ShardWriterOptions writer;
    writer.target_shard_bytes = graph.AdjacencyBytes() / kTargetShards;
    summary_ = rec.Call("ooc", "WriteShardedGraph", nullptr, [&] {
      return Unwrap(gal::WriteShardedGraph(graph, store_, writer),
                    "WriteShardedGraph");
    });
    const double write_s = rec.last_seconds();

    gal::OocOptions budget;
    budget.memory_budget_bytes =
        std::max(summary_.total_adj_bytes / 4, summary_.max_shard_resident_bytes);
    budget_store_ = rec.Call("ooc", "ShardedGraph::Open", nullptr, [&] {
      return Unwrap(gal::ShardedGraph::Open(store_, budget), "Open");
    });
    double open_s = rec.last_seconds();
    unlimited_store_ = rec.Call("ooc", "ShardedGraph::Open", nullptr, [&] {
      return Unwrap(gal::ShardedGraph::Open(store_), "Open");
    });
    open_s += rec.last_seconds();

    values.Set("graph.load_s", load_s);
    values.Set("ooc.write_s", write_s);
    values.Set("ooc.open_s", open_s);
    values.Set("setup_s", load_s + write_s + open_s);
    values.Set("graph.bytes_per_edge",
               static_cast<double>(graph.AdjacencyBytes()) /
                   static_cast<double>(graph.NumAdjacencyEntries()));
  }

  void BuildReferences() override {
    // The in-memory engines on the same graph, loaded again for them.
    const gal::Graph graph = LoadGraph();
    gal::PageRankOptions pr;
    pr.iterations = kPageRankIterations;
    pr.engine.num_workers = config_.workers;
    pr.engine.faults = gal::FaultPlan();
    ref_ranks_ = gal::PageRank(graph, pr).ranks;
    gal::WccOptions wcc;
    wcc.engine.num_workers = config_.workers;
    wcc.engine.faults = gal::FaultPlan();
    wcc.direction = gal::DirectionConfig();
    const gal::WccResult components = gal::Wcc(graph, wcc);
    ref_component_ = components.component;
    ref_num_components_ = components.num_components;
    const gal::TriangleCountResult tri =
        gal::TaskTriangleCount(graph, TaskConfig());
    ref_triangles_ = tri.triangles;
    ref_ops_ = tri.intersection_ops;
    vertices_ = graph.NumVertices();
    edges_ = graph.NumEdges();
    if (config_.wrong_reference) ref_component_[0] += 1;
  }

  void Pass(Recorder& rec, Values& values, Checker& check) override {
    const gal::ShardedGraph& budget = *budget_store_;
    const gal::ShardedGraph& unlimited = *unlimited_store_;
    auto add_io = [&](const gal::OocStats& s) {
      values.Add("ooc.shard_loads", static_cast<double>(s.shard_loads));
      values.Add("ooc.cache_hits", static_cast<double>(s.cache_hits));
      values.Add("ooc.read_mb", static_cast<double>(s.shard_load_bytes) / 1e6);
      values.Add("ooc.modeled_io_s", s.modeled_io_seconds);
      values.Add("modeled_s", s.modeled_seconds);
      rec.Annotate({{"shard_loads", static_cast<double>(s.shard_loads)},
                    {"cache_hits", static_cast<double>(s.cache_hits)},
                    {"evictions", static_cast<double>(s.evictions)},
                    {"read_bytes", static_cast<double>(s.shard_load_bytes)},
                    {"modeled_io_s", s.modeled_io_seconds},
                    {"supersteps", s.supersteps}});
    };

    gal::OocPageRankOptions pr_options;
    pr_options.iterations = kPageRankIterations;
    pr_options.num_threads = config_.threads;
    const gal::OocPageRankResult pr =
        rec.Call("ooc", "OocPageRank", &budget.clock(),
                 [&] { return gal::OocPageRank(budget, pr_options); });
    values.Add("pagerank_s", rec.last_seconds());
    add_io(pr.stats);
    check.Expect(pr.ranks == ref_ranks_, "OocPageRank",
                 "ranks differ from the in-memory PageRank");

    gal::OocWccOptions wcc_options;
    wcc_options.num_threads = config_.threads;
    const gal::OocWccResult wcc =
        rec.Call("ooc", "OocWcc", &budget.clock(),
                 [&] { return gal::OocWcc(budget, wcc_options); });
    values.Add("wcc_s", rec.last_seconds());
    add_io(wcc.stats);
    check.Expect(wcc.component == ref_component_ &&
                     wcc.num_components == ref_num_components_,
                 "OocWcc", "components differ from the in-memory Wcc");

    gal::OocTriangleOptions tri_options;
    tri_options.engine = TaskConfig();
    const gal::OocTriangleResult tri =
        rec.Call("ooc", "OocTriangleCount", &unlimited.clock(),
                 [&] { return gal::OocTriangleCount(unlimited, tri_options); });
    const double tri_s = rec.last_seconds();
    const gal::TaskEngineStats& ts = tri.task_stats;
    values.Add("triangles_s", tri_s);
    add_io(tri.stats);
    values.Add("tlag.intersection_ops",
               static_cast<double>(tri.intersection_ops));
    values.Add("tlag.ops_per_s",
               static_cast<double>(tri.intersection_ops) / tri_s);
    values.Add("tlag.steals", static_cast<double>(ts.steals));
    values.Add("tlag.failed_steals",
               static_cast<double>(ts.failed_steal_attempts));
    values.Add("tlag.park_s", ts.park_time.total_seconds);
    values.Add("tlag.busy_frac", ts.ParallelEfficiency());
    check.Expect(tri.triangles == ref_triangles_ &&
                     tri.intersection_ops == ref_ops_,
                 "OocTriangleCount",
                 "count or intersection_ops differ from TaskTriangleCount");

    const double loads = values.Get("ooc.shard_loads");
    const double hits = values.Get("ooc.cache_hits");
    values.Set("ooc.hit_rate", hits / (hits + loads));
    values.Set("ooc.peak_resident_mb",
               static_cast<double>(budget.cache().Stats().peak_resident_bytes) /
                   1e6);
  }

  void Describe(Context& context) const override {
    context.Set("graph", "rmat-" + std::to_string(kScale) +
                             " ef16, hub-cluster, delta-varint");
    context.Set("vertices", vertices_);
    context.Set("edges", static_cast<double>(edges_));
    context.Set("adjacency_bytes", static_cast<double>(summary_.total_adj_bytes));
    context.Set("shards", summary_.num_shards);
    context.Set("budget_bytes",
                static_cast<double>(budget_store_->options().memory_budget_bytes));
  }

 private:
  gal::Graph LoadGraph() const {
    gal::GraphOptions layout;
    layout.reorder = gal::ReorderMode::kHubCluster;
    layout.compression = gal::CompressionMode::kDeltaVarint;
    return Unwrap(gal::LoadEdgeListFile(path_, layout), "LoadEdgeListFile");
  }

  gal::TaskEngineConfig TaskConfig() const {
    gal::TaskEngineConfig engine;
    engine.num_threads = config_.threads;
    engine.faults = gal::FaultPlan();
    return engine;
  }

  RunConfig config_;
  std::string path_;
  std::string store_;
  gal::ShardWriteSummary summary_;
  std::optional<gal::ShardedGraph> budget_store_;
  std::optional<gal::ShardedGraph> unlimited_store_;
  std::vector<double> ref_ranks_;
  std::vector<gal::VertexId> ref_component_;
  uint32_t ref_num_components_ = 0;
  uint64_t ref_triangles_ = 0;
  uint64_t ref_ops_ = 0;
  gal::VertexId vertices_ = 0;
  uint64_t edges_ = 0;
};

}  // namespace

std::unique_ptr<Workload> MakeOoc(const RunConfig& config) {
  return std::make_unique<Ooc>(config);
}

}  // namespace perfbench
