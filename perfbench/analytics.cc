// Workload `analytics`: the TLAV job mix (PageRank, BFS, WCC) on one
// R-MAT graph stored hub-cluster reordered and delta-varint compressed,
// every job charging one shared ClusterRuntime.

#include <deque>
#include <string>
#include <vector>

#include "bench.h"
#include "cluster/cluster.h"
#include "common/rng.h"
#include "frontier/traversal.h"
#include "graph/graph.h"
#include "graph/io.h"
#include "ooc/ooc_algos.h"
#include "ooc/sharded_graph.h"
#include "tlav/algos/pagerank.h"
#include "tlav/algos/wcc.h"

namespace perfbench {
namespace {

constexpr uint32_t kScale = 16;
constexpr uint32_t kBfsRoots = 64;
constexpr uint32_t kPageRankIterations = 20;
constexpr uint32_t kWccRepetitions = 4;

gal::GraphOptions LayoutOptions() {
  gal::GraphOptions options;
  options.reorder = gal::ReorderMode::kHubCluster;
  options.compression = gal::CompressionMode::kDeltaVarint;
  return options;
}

/// Plain serial BFS. Like FrontierBfs it works in the graph's internal
/// (layout) id space. Also returns, through `component_edges`, the edges
/// of the reached component (the Graph500 TEPS numerator).
std::vector<uint32_t> SerialBfs(const gal::Graph& g, gal::VertexId s,
                                uint64_t* component_edges) {
  std::vector<uint32_t> dist(g.NumVertices(), gal::kFrontierUnreachable);
  std::deque<gal::VertexId> queue;
  dist[s] = 0;
  queue.push_back(s);
  uint64_t entries = 0;
  while (!queue.empty()) {
    const gal::VertexId v = queue.front();
    queue.pop_front();
    entries += g.Degree(v);
    g.ForEachOutNeighbor(v, [&](gal::VertexId u) {
      if (dist[u] == gal::kFrontierUnreachable) {
        dist[u] = dist[v] + 1;
        queue.push_back(u);
      }
    });
  }
  *component_edges = entries / 2;  // undirected: two entries per edge
  return dist;
}

/// Components labelled by their minimum original id, the canonical form
/// Wcc() returns.
std::vector<gal::VertexId> SerialComponents(const gal::Graph& g,
                                            uint32_t* num_components) {
  const gal::VertexId n = g.NumVertices();
  std::vector<gal::VertexId> comp(n, gal::kInvalidVertex);
  std::vector<gal::VertexId> min_original;
  std::vector<gal::VertexId> stack;
  for (gal::VertexId s = 0; s < n; ++s) {
    if (comp[s] != gal::kInvalidVertex) continue;
    const auto id = static_cast<gal::VertexId>(min_original.size());
    gal::VertexId lowest = g.OriginalId(s);
    comp[s] = id;
    stack.push_back(s);
    while (!stack.empty()) {
      const gal::VertexId v = stack.back();
      stack.pop_back();
      g.ForEachOutNeighbor(v, [&](gal::VertexId u) {
        if (comp[u] != gal::kInvalidVertex) return;
        comp[u] = id;
        lowest = std::min(lowest, g.OriginalId(u));
        stack.push_back(u);
      });
    }
    min_original.push_back(lowest);
  }
  *num_components = static_cast<uint32_t>(min_original.size());
  std::vector<gal::VertexId> out(n);
  for (gal::VertexId v = 0; v < n; ++v) {
    out[g.OriginalId(v)] = min_original[comp[v]];
  }
  return out;
}

class Analytics : public Workload {
 public:
  explicit Analytics(const RunConfig& config)
      : config_(config),
        path_(config.workdir + "/rmat.el"),
        cluster_(gal::ClusterOptions{config.workers, {}}) {}

  void CreateInputs() override {
    WriteRmatEdgeList(path_, kScale, config_.seed);
  }

  void Setup(Recorder& rec, Values& values) override {
    graph_ = rec.Call("graph", "LoadEdgeListFile", nullptr, [&] {
      return Unwrap(gal::LoadEdgeListFile(path_, LayoutOptions()),
                    "LoadEdgeListFile");
    });
    values.Set("graph.load_s", rec.last_seconds());
    values.Set("setup_s", rec.last_seconds());
    values.Set("graph.bytes_per_edge",
               static_cast<double>(graph_.AdjacencyBytes()) /
                   static_cast<double>(graph_.NumAdjacencyEntries()));
  }

  void BuildReferences() override {
    // BFS roots: seeded, distinct from the generator's stream; kept as
    // internal ids, the id space FrontierBfs works in.
    gal::Rng rng(config_.seed * 0x9E3779B97F4A7C15ull + 11);
    roots_.clear();
    while (roots_.size() < kBfsRoots) {
      const gal::VertexId v = graph_.InternalId(static_cast<gal::VertexId>(
          rng.Uniform(graph_.NumVertices())));
      if (graph_.Degree(v) > 0) roots_.push_back(v);
    }
    ref_distance_.clear();
    component_edges_ = 0;
    for (gal::VertexId root : roots_) {
      uint64_t edges = 0;
      ref_distance_.push_back(SerialBfs(graph_, root, &edges));
      component_edges_ += edges;
    }
    ref_component_ = SerialComponents(graph_, &ref_num_components_);

    // PageRank reference: the out-of-core gather kernel at an unlimited
    // budget, which shares no code with the message engine.
    const std::string store = config_.workdir + "/reference_store";
    Unwrap(gal::WriteShardedGraph(graph_, store), "WriteShardedGraph");
    {
      auto sharded = Unwrap(gal::ShardedGraph::Open(store), "Open");
      gal::OocPageRankOptions options;
      options.iterations = kPageRankIterations;
      options.num_threads = config_.threads;
      ref_ranks_ = gal::OocPageRank(sharded, options).ranks;
    }
    gal::RemoveShardedGraphFiles(store);

    if (config_.wrong_reference) ref_ranks_[0] += 1.0;
  }

  void Pass(Recorder& rec, Values& values, Checker& check) override {
    gal::VirtualClock& clock = cluster_.clock();
    const size_t first_round = clock.rounds();
    const double clock_start = clock.seconds();
    const gal::TrafficSnapshot wire_start = cluster_.ledger().Snapshot();

    gal::PageRankOptions pr_options;
    pr_options.iterations = kPageRankIterations;
    pr_options.engine.num_workers = config_.workers;
    pr_options.engine.faults = gal::FaultPlan();
    pr_options.engine.cluster = &cluster_;
    const gal::PageRankResult pr = rec.Call("tlav", "PageRank", &clock, [&] {
      return gal::PageRank(graph_, pr_options);
    });
    values.Add("pagerank_s", rec.last_seconds());
    values.Add("tlav.messages", static_cast<double>(pr.stats.total_messages));
    values.Add("tlav.supersteps", pr.stats.supersteps);
    values.Add("tlav.msgs_per_s",
               static_cast<double>(pr.stats.total_messages) /
                   rec.last_seconds());
    rec.Annotate({{"messages", static_cast<double>(pr.stats.total_messages)},
                  {"supersteps", pr.stats.supersteps},
                  {"wire_bytes",
                   static_cast<double>(pr.stats.cross_worker_bytes)}});
    check.Expect(pr.ranks == ref_ranks_, "PageRank",
                 "ranks differ from OocPageRank at an unlimited budget");

    gal::FrontierEngineOptions bfs_options;
    bfs_options.direction = gal::DirectionConfig();
    bfs_options.cluster = &cluster_;
    double bfs_seconds = 0.0;
    uint64_t scanned = 0;
    for (size_t i = 0; i < roots_.size(); ++i) {
      const gal::FrontierBfsResult bfs =
          rec.Call("frontier", "FrontierBfs", &clock, [&] {
            return gal::FrontierBfs(graph_, roots_[i], bfs_options);
          });
      bfs_seconds += rec.last_seconds();
      scanned += bfs.stats.edges_scanned;
      values.Add("frontier.pull_steps", bfs.stats.pull_steps);
      rec.Annotate(
          {{"root", roots_[i]},
           {"edges_scanned", static_cast<double>(bfs.stats.edges_scanned)},
           {"pull_steps", bfs.stats.pull_steps},
           {"wire_bytes", static_cast<double>(bfs.stats.wire_bytes)}});
      check.Expect(bfs.status.ok() && bfs.distance == ref_distance_[i],
                   "FrontierBfs", "distances differ from a serial BFS");
    }
    values.Add("frontier.edges_scanned", static_cast<double>(scanned));
    values.Add("frontier.scan_ratio", static_cast<double>(scanned) /
                                          static_cast<double>(component_edges_));
    values.Add("bfs_mteps",
               static_cast<double>(component_edges_) / bfs_seconds / 1e6);

    gal::WccOptions wcc_options;
    wcc_options.engine.num_workers = config_.workers;
    wcc_options.engine.faults = gal::FaultPlan();
    wcc_options.engine.cluster = &cluster_;
    wcc_options.direction = gal::DirectionConfig();
    // WCC is short next to PageRank: repeat it and report the median.
    std::vector<double> wcc_seconds;
    for (uint32_t rep = 0; rep < kWccRepetitions; ++rep) {
      const gal::WccResult wcc = rec.Call("frontier", "Wcc", &clock, [&] {
        return gal::Wcc(graph_, wcc_options);
      });
      wcc_seconds.push_back(rec.last_seconds());
      rec.Annotate({{"components", wcc.num_components},
                    {"supersteps", wcc.stats.supersteps},
                    {"pull_steps", wcc.stats.pull_supersteps}});
      check.Expect(wcc.component == ref_component_ &&
                       wcc.num_components == ref_num_components_,
                   "Wcc", "components differ from a serial search");
    }
    values.Add("wcc_s", Median(wcc_seconds));

    const gal::TrafficSnapshot wire_end = cluster_.ledger().Snapshot();
    values.Add("wire_mb",
               static_cast<double>(wire_end.cross_bytes - wire_start.cross_bytes) /
                   1e6);
    values.Add("cluster.wire_msgs", static_cast<double>(
                                        wire_end.cross_messages -
                                        wire_start.cross_messages));
    values.Add("modeled_s", clock.seconds() - clock_start);
    for (const gal::ClusterRound& round : clock.RoundsSince(first_round)) {
      values.Add("cluster.modeled_comm_s", round.comm_seconds);
      values.Add("cluster.modeled_compute_s", round.compute_seconds);
    }
  }

  void Describe(Context& context) const override {
    context.Set("graph", "rmat-" + std::to_string(kScale) +
                             " ef16, hub-cluster, delta-varint");
    context.Set("vertices", graph_.NumVertices());
    context.Set("edges", static_cast<double>(graph_.NumEdges()));
    context.Set("adjacency_bytes", static_cast<double>(graph_.AdjacencyBytes()));
    context.Set("bfs_roots", kBfsRoots);
    context.Set("pagerank_iterations", kPageRankIterations);
    context.Set("components", ref_num_components_);
    context.Set("wcc_repetitions", kWccRepetitions);
  }

 private:
  RunConfig config_;
  std::string path_;
  gal::ClusterRuntime cluster_;
  gal::Graph graph_;
  std::vector<gal::VertexId> roots_;
  std::vector<std::vector<uint32_t>> ref_distance_;
  uint64_t component_edges_ = 0;
  std::vector<gal::VertexId> ref_component_;
  uint32_t ref_num_components_ = 0;
  std::vector<double> ref_ranks_;
};

}  // namespace

std::unique_ptr<Workload> MakeAnalytics(const RunConfig& config) {
  return std::make_unique<Analytics>(config);
}

}  // namespace perfbench
