// Workload `mining`: think-like-a-graph subgraph mining with no cluster
// attached — task-engine triangle counting on an R-MAT graph, plus
// symmetry-broken DFS matching of K4 and of a labelled diamond on
// smaller R-MAT graphs.

#include <algorithm>
#include <numeric>
#include <string>
#include <vector>

#include "bench.h"
#include "graph/graph.h"
#include "graph/io.h"
#include "match/executor.h"
#include "match/pattern.h"
#include "tlag/algos/triangles.h"

namespace perfbench {
namespace {

constexpr uint32_t kTriangleScale = 16;
constexpr uint32_t kCliqueScale = 10;
constexpr uint32_t kDiamondScale = 12;
constexpr uint32_t kLabels = 3;
constexpr uint32_t kTriangleRepetitions = 4;

gal::GraphOptions LayoutOptions() {
  gal::GraphOptions options;
  options.reorder = gal::ReorderMode::kHubCluster;
  options.compression = gal::CompressionMode::kDeltaVarint;
  return options;
}

/// Vertex labels in original-id space: degree rank (ties by id) modulo
/// kLabels. On R-MAT a handful of hubs carry most diamonds, so random
/// labels would make the match count swing with the labels the hubs
/// happen to draw; rank labels keep the work comparable across seeds.
std::vector<gal::Label> DegreeRankLabels(const gal::Graph& g) {
  std::vector<gal::VertexId> order(g.NumVertices());
  std::iota(order.begin(), order.end(), 0);
  std::stable_sort(order.begin(), order.end(),
                   [&](gal::VertexId a, gal::VertexId b) {
                     return g.Degree(g.InternalId(a)) > g.Degree(g.InternalId(b));
                   });
  std::vector<gal::Label> labels(order.size());
  for (size_t rank = 0; rank < order.size(); ++rank) {
    labels[order[rank]] = static_cast<gal::Label>(rank % kLabels);
  }
  return labels;
}

class Mining : public Workload {
 public:
  explicit Mining(const RunConfig& config)
      : config_(config),
        triangle_path_(config.workdir + "/rmat-triangles.el"),
        clique_path_(config.workdir + "/rmat-k4.el"),
        diamond_path_(config.workdir + "/rmat-diamond.el") {}

  void CreateInputs() override {
    WriteRmatEdgeList(triangle_path_, kTriangleScale, config_.seed);
    WriteRmatEdgeList(clique_path_, kCliqueScale, config_.seed + 1);
    WriteRmatEdgeList(diamond_path_, kDiamondScale, config_.seed + 2);

    clique_query_ = gal::CliquePattern(4);
    diamond_query_ = gal::DiamondPattern();  // hubs 0,1; tips 2,3
    GAL_CHECK_OK(diamond_query_.SetLabels({0, 0, 1, 2}));
  }

  void Setup(Recorder& rec, Values& values) override {
    double load_s = 0.0;
    auto load = [&](const std::string& path) {
      gal::Graph g = rec.Call("graph", "LoadEdgeListFile", nullptr, [&] {
        return Unwrap(gal::LoadEdgeListFile(path, LayoutOptions()),
                      "LoadEdgeListFile");
      });
      load_s += rec.last_seconds();
      return g;
    };
    triangle_graph_ = load(triangle_path_);
    clique_graph_ = load(clique_path_);
    diamond_graph_ = load(diamond_path_);
    std::vector<gal::Label> labels = DegreeRankLabels(diamond_graph_);
    const double label_start = rec.Now();
    GAL_CHECK_OK(diamond_graph_.SetLabels(std::move(labels)));
    const double label_s = rec.Now() - label_start;

    values.Set("graph.load_s", load_s);
    values.Set("setup_s", load_s + label_s);
    values.Set("graph.bytes_per_edge",
               static_cast<double>(triangle_graph_.AdjacencyBytes()) /
                   static_cast<double>(triangle_graph_.NumAdjacencyEntries()));
  }

  void BuildReferences() override {
    ref_triangles_ = gal::SerialTriangleCount(triangle_graph_).triangles;
    // Matching references: the same search with per-root scheduling only.
    gal::MatchOptions options = MatchConfig();
    options.split_depth = 0;
    ref_cliques_ =
        gal::SubgraphMatch(clique_graph_, clique_query_, options).stats.matches;
    ref_diamonds_ =
        gal::SubgraphMatch(diamond_graph_, diamond_query_, options)
            .stats.matches;
    if (config_.wrong_reference) ++ref_triangles_;
  }

  void Pass(Recorder& rec, Values& values, Checker& check) override {
    gal::TaskEngineConfig engine;
    engine.num_threads = config_.threads;
    engine.faults = gal::FaultPlan();
    // Triangles are short next to the matches: repeat them, report the
    // median repetition, and sum the per-call counters over the pass.
    std::vector<double> tri_seconds;
    for (uint32_t rep = 0; rep < kTriangleRepetitions; ++rep) {
      const gal::TriangleCountResult tri =
          rec.Call("tlag", "TaskTriangleCount", nullptr, [&] {
            return gal::TaskTriangleCount(triangle_graph_, engine);
          });
      tri_seconds.push_back(rec.last_seconds());
      const gal::TaskEngineStats& ts = tri.task_stats;
      values.Set("tlag.intersection_ops",
                 static_cast<double>(tri.intersection_ops));
      values.Add("tlag.steals", static_cast<double>(ts.steals));
      values.Add("tlag.failed_steals",
                 static_cast<double>(ts.failed_steal_attempts));
      values.Add("tlag.park_s", ts.park_time.total_seconds);
      values.Add("tlag.busy_frac",
                 ts.ParallelEfficiency() / kTriangleRepetitions);
      rec.Annotate(
          {{"triangles", static_cast<double>(tri.triangles)},
           {"intersection_ops", static_cast<double>(tri.intersection_ops)},
           {"steals", static_cast<double>(ts.steals)},
           {"failed_steals", static_cast<double>(ts.failed_steal_attempts)},
           {"park_s", ts.park_time.total_seconds}});
      check.Expect(tri.triangles == ref_triangles_, "TaskTriangleCount",
                   "count differs from SerialTriangleCount");
    }
    const double tri_s = Median(tri_seconds);
    values.Add("triangles_s", tri_s);
    values.Add("tlag.ops_per_s", values.Get("tlag.intersection_ops") / tri_s);

    const gal::MatchOptions options = MatchConfig();
    uint64_t nodes = 0;
    uint64_t matches = 0;
    double match_seconds = 0.0;
    auto match = [&](const gal::Graph& data, const gal::Graph& query,
                     const char* job, const char* metric, uint64_t expected) {
      const gal::MatchResult r = rec.Call("match", "SubgraphMatch", nullptr, [&] {
        return gal::SubgraphMatch(data, query, options);
      });
      values.Add(metric, rec.last_seconds());
      match_seconds += rec.last_seconds();
      nodes += r.stats.search_nodes;
      matches += r.stats.matches;
      rec.Annotate({{"matches", static_cast<double>(r.stats.matches)},
                    {"search_nodes", static_cast<double>(r.stats.search_nodes)},
                    {"steals", static_cast<double>(r.stats.task_stats.steals)}});
      check.Expect(r.stats.matches == expected, job,
                   "count differs from the split_depth=0 run");
    };
    match(clique_graph_, clique_query_, "SubgraphMatch K4", "cliques4_s",
          ref_cliques_);
    match(diamond_graph_, diamond_query_, "SubgraphMatch diamond", "match_s",
          ref_diamonds_);
    values.Add("match.search_nodes", static_cast<double>(nodes));
    values.Add("match.nodes_per_s",
               static_cast<double>(nodes) / match_seconds);
    values.Add("match.yield",
               static_cast<double>(matches) / static_cast<double>(nodes));
  }

  void Describe(Context& context) const override {
    context.Set("graph", "rmat-" + std::to_string(kTriangleScale) +
                             " ef16, hub-cluster, delta-varint");
    context.Set("vertices", triangle_graph_.NumVertices());
    context.Set("edges", static_cast<double>(triangle_graph_.NumEdges()));
    context.Set("adjacency_bytes",
                static_cast<double>(triangle_graph_.AdjacencyBytes()));
    context.Set("triangles", static_cast<double>(ref_triangles_));
    context.Set("triangle_repetitions", kTriangleRepetitions);
    context.Set("k4_graph", "rmat-" + std::to_string(kCliqueScale));
    context.Set("k4_edges", static_cast<double>(clique_graph_.NumEdges()));
    context.Set("k4_matches", static_cast<double>(ref_cliques_));
    context.Set("diamond_graph", "rmat-" + std::to_string(kDiamondScale) +
                                     ", degree-rank labels mod " +
                                     std::to_string(kLabels) +
                                     ", query labels 0,0,1,2");
    context.Set("diamond_edges", static_cast<double>(diamond_graph_.NumEdges()));
    context.Set("diamond_matches", static_cast<double>(ref_diamonds_));
  }

 private:
  gal::MatchOptions MatchConfig() const {
    gal::MatchOptions options;
    options.symmetry_breaking = true;
    options.engine.num_threads = config_.threads;
    options.engine.faults = gal::FaultPlan();
    return options;
  }

  RunConfig config_;
  std::string triangle_path_;
  std::string clique_path_;
  std::string diamond_path_;
  gal::Graph clique_query_;
  gal::Graph diamond_query_;
  gal::Graph triangle_graph_;
  gal::Graph clique_graph_;
  gal::Graph diamond_graph_;
  uint64_t ref_triangles_ = 0;
  uint64_t ref_cliques_ = 0;
  uint64_t ref_diamonds_ = 0;
};

}  // namespace

std::unique_ptr<Workload> MakeMining(const RunConfig& config) {
  return std::make_unique<Mining>(config);
}

}  // namespace perfbench
