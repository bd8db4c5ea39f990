// The direction-optimizing frontier substrate: representation
// exactness, the Beamer switch heuristics, and bit-identical traversal
// results across directions, worker counts, and host thread counts.

#include <cstdlib>
#include <functional>
#include <limits>
#include <queue>

#include <gtest/gtest.h>

#include "frontier/direction.h"
#include "frontier/frontier.h"
#include "frontier/traversal.h"
#include "graph/generators.h"
#include "tlav/algos/traversal.h"
#include "tlav/algos/wcc.h"

namespace gal {
namespace {

// --- Representations ----------------------------------------------------------

TEST(FrontierBitmapTest, SetTestClearRoundTrip) {
  FrontierBitmap bits(200);
  EXPECT_TRUE(bits.Empty());
  for (size_t i = 0; i < 200; i += 7) bits.Set(i);
  for (size_t i = 0; i < 200; ++i) {
    EXPECT_EQ(bits.Test(i), i % 7 == 0) << i;
  }
  EXPECT_EQ(bits.Count(), (200 + 6) / 7);
  bits.Clear(0);
  EXPECT_FALSE(bits.Test(0));
  bits.Reset();
  EXPECT_TRUE(bits.Empty());
}

TEST(FrontierBitmapTest, AppendSetBitsMatchesTestExactly) {
  // Word boundaries (63, 64, 65) and a sparse tail.
  FrontierBitmap bits(300);
  const std::vector<VertexId> want = {0, 1, 63, 64, 65, 127, 128, 255, 299};
  for (VertexId v : want) bits.Set(v);
  std::vector<VertexId> got;
  bits.AppendSetBits(got);
  EXPECT_EQ(got, want);  // ascending, exact
  EXPECT_EQ(bits.Count(), want.size());
}

TEST(SlidingQueueTest, SlideExposesExactlyWhatWasPushed) {
  SlidingQueue<int> q;
  q.Push(3);
  q.Push(1);
  EXPECT_TRUE(q.WindowEmpty());
  EXPECT_EQ(q.PendingSize(), 2u);
  q.Slide();
  ASSERT_EQ(q.WindowSize(), 2u);
  EXPECT_EQ(q.At(0), 3);
  EXPECT_EQ(q.At(1), 1);
  // Push while consuming: lands in the next window, not the current one.
  for (size_t i = 0; i < q.WindowSize(); ++i) q.Push(q.At(i) * 10);
  EXPECT_EQ(q.WindowSize(), 2u);
  q.Slide();
  ASSERT_EQ(q.WindowSize(), 2u);
  EXPECT_EQ(q.At(0), 30);
  EXPECT_EQ(q.At(1), 10);
  q.Slide();
  EXPECT_TRUE(q.WindowEmpty());
}

TEST(VertexFrontierTest, SparseAndDenseViewsAgree) {
  Graph g = Star(50);
  VertexFrontier f(g.NumVertices());
  uint64_t edges = 0;
  for (VertexId v : {VertexId{0}, VertexId{7}, VertexId{49}}) {
    f.Add(v, g.Degree(v));
    edges += g.Degree(v);
  }
  EXPECT_EQ(f.VertexCount(), 3u);
  EXPECT_EQ(f.EdgeCount(), edges);  // scout count = sum of degrees
  const FrontierBitmap& bits = f.Bitmap();
  EXPECT_EQ(bits.Count(), 3u);
  for (VertexId v = 0; v < g.NumVertices(); ++v) {
    EXPECT_EQ(bits.Test(v), v == 0 || v == 7 || v == 49) << v;
  }
  // Dense -> sparse round trip is exact.
  VertexFrontier back(g.NumVertices());
  back.AssignFromBitmap(bits, g);
  EXPECT_EQ(std::vector<VertexId>(back.Vertices().begin(),
                                  back.Vertices().end()),
            (std::vector<VertexId>{0, 7, 49}));
  EXPECT_EQ(back.EdgeCount(), edges);
}

// --- Direction heuristics -----------------------------------------------------

TEST(DirectionControllerTest, SwitchesAtBeamerThresholdsWithHysteresis) {
  DirectionConfig config;  // alpha = 15, beta = 18
  DirectionController c(config, /*num_vertices=*/1800);
  // Sparse frontier: m_f well under m_u / alpha stays push.
  EXPECT_EQ(c.Next(/*m_f=*/10, /*n_f=*/5, /*m_u=*/15000), Direction::kPush);
  // m_f crosses m_u / alpha = 1000: flip to pull.
  EXPECT_EQ(c.Next(1001, 500, 15000), Direction::kPull);
  // Hysteresis: a pull step with the same m_f stays pull while the
  // frontier is at least |V| / beta = 100 vertices.
  EXPECT_EQ(c.Next(1001, 100, 15000), Direction::kPull);
  // Frontier thins below |V| / beta: back to push.
  EXPECT_EQ(c.Next(50, 99, 15000), Direction::kPush);
  EXPECT_EQ(c.switches(), 2u);
}

TEST(DirectionControllerTest, ForcedModesNeverSwitch) {
  DirectionController push(DirectionConfig{DirectionMode::kPushOnly, 15, 18},
                           100);
  EXPECT_EQ(push.Next(1000000, 100, 1), Direction::kPush);
  DirectionController pull(DirectionConfig{DirectionMode::kPullOnly, 15, 18},
                           100);
  EXPECT_EQ(pull.Next(0, 1, 1000000), Direction::kPull);
  EXPECT_EQ(push.switches(), 0u);
  EXPECT_EQ(pull.switches(), 0u);
}

TEST(DirectionConfigTest, EnvOverridesKnobs) {
  ASSERT_EQ(setenv("GAL_FRONTIER_MODE", "pull", 1), 0);
  ASSERT_EQ(setenv("GAL_FRONTIER_ALPHA", "3.5", 1), 0);
  ASSERT_EQ(setenv("GAL_FRONTIER_BETA", "7", 1), 0);
  DirectionConfig config = DirectionConfig::FromEnv();
  EXPECT_EQ(config.mode, DirectionMode::kPullOnly);
  EXPECT_DOUBLE_EQ(config.alpha, 3.5);
  EXPECT_DOUBLE_EQ(config.beta, 7.0);
  // Garbage keeps the defaults.
  ASSERT_EQ(setenv("GAL_FRONTIER_MODE", "sideways", 1), 0);
  ASSERT_EQ(setenv("GAL_FRONTIER_ALPHA", "-2", 1), 0);
  ASSERT_EQ(setenv("GAL_FRONTIER_BETA", "garbage", 1), 0);
  config = DirectionConfig::FromEnv();
  EXPECT_EQ(config.mode, DirectionMode::kAuto);
  EXPECT_DOUBLE_EQ(config.alpha, 15.0);
  EXPECT_DOUBLE_EQ(config.beta, 18.0);
  ASSERT_EQ(unsetenv("GAL_FRONTIER_MODE"), 0);
  ASSERT_EQ(unsetenv("GAL_FRONTIER_ALPHA"), 0);
  ASSERT_EQ(unsetenv("GAL_FRONTIER_BETA"), 0);
}

// --- Traversal parity ---------------------------------------------------------

std::vector<uint32_t> SerialBfs(const Graph& g, VertexId source) {
  std::vector<uint32_t> dist(g.NumVertices(), kFrontierUnreachable);
  std::queue<VertexId> q;
  dist[source] = 0;
  q.push(source);
  while (!q.empty()) {
    VertexId v = q.front();
    q.pop();
    g.ForEachOutNeighbor(v, [&](VertexId u) {
      if (dist[u] == kFrontierUnreachable) {
        dist[u] = dist[v] + 1;
        q.push(u);
      }
    });
  }
  return dist;
}

/// Serial Dijkstra over SyntheticEdgeWeight — the SSSP ground truth.
std::vector<uint64_t> SerialDijkstra(const Graph& g, VertexId source) {
  std::vector<uint64_t> dist(g.NumVertices(),
                             std::numeric_limits<uint64_t>::max());
  using Item = std::pair<uint64_t, VertexId>;
  std::priority_queue<Item, std::vector<Item>, std::greater<Item>> pq;
  dist[source] = 0;
  pq.push({0, source});
  while (!pq.empty()) {
    const auto [d, v] = pq.top();
    pq.pop();
    if (d > dist[v]) continue;
    g.ForEachOutNeighbor(v, [&](VertexId u) {
      const uint64_t nd = d + SyntheticEdgeWeight(v, u);
      if (nd < dist[u]) {
        dist[u] = nd;
        pq.push({nd, u});
      }
    });
  }
  return dist;
}

FrontierEngineOptions ModeOptions(DirectionMode mode, uint32_t workers) {
  FrontierEngineOptions options;
  options.direction.mode = mode;
  options.num_workers = workers;
  return options;
}

class FrontierParityTest : public ::testing::TestWithParam<uint32_t> {};

TEST_P(FrontierParityTest, BfsIdenticalAcrossDirectionsAndWorkers) {
  const uint32_t workers = GetParam();
  for (int kind = 0; kind < 3; ++kind) {
    Graph g = kind == 0   ? Rmat(8, 8, 21)
              : kind == 1 ? Grid(13, 17)
                          : Star(160);
    const std::vector<uint32_t> ref = SerialBfs(g, 0);
    FrontierBfsResult push =
        FrontierBfs(g, 0, ModeOptions(DirectionMode::kPushOnly, workers));
    FrontierBfsResult pull =
        FrontierBfs(g, 0, ModeOptions(DirectionMode::kPullOnly, workers));
    FrontierBfsResult hybrid =
        FrontierBfs(g, 0, ModeOptions(DirectionMode::kAuto, workers));
    ASSERT_TRUE(push.status.ok());
    EXPECT_EQ(push.distance, ref) << "kind=" << kind;
    EXPECT_EQ(pull.distance, ref) << "kind=" << kind;
    EXPECT_EQ(hybrid.distance, ref) << "kind=" << kind;
    EXPECT_EQ(push.stats.pull_steps, 0u);
    EXPECT_EQ(pull.stats.push_steps, 0u);
  }
}

TEST_P(FrontierParityTest, WccIdenticalAcrossDirectionsAndWorkers) {
  const uint32_t workers = GetParam();
  for (int kind = 0; kind < 3; ++kind) {
    Graph g = kind == 0   ? ErdosRenyi(300, 0.004, 9)  // fragmented
              : kind == 1 ? Rmat(8, 6, 33)
                          : Path(150);
    FrontierWccResult push =
        FrontierWcc(g, ModeOptions(DirectionMode::kPushOnly, workers));
    FrontierWccResult pull =
        FrontierWcc(g, ModeOptions(DirectionMode::kPullOnly, workers));
    FrontierWccResult hybrid =
        FrontierWcc(g, ModeOptions(DirectionMode::kAuto, workers));
    EXPECT_EQ(pull.component, push.component) << "kind=" << kind;
    EXPECT_EQ(hybrid.component, push.component) << "kind=" << kind;
    EXPECT_EQ(pull.num_components, push.num_components);
    EXPECT_EQ(hybrid.num_components, push.num_components);
    // Every edge joins one component; labels are component minima.
    for (const Edge& e : g.CollectEdges()) {
      EXPECT_EQ(push.component[e.src], push.component[e.dst]);
      EXPECT_LE(push.component[e.src], e.src);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Workers, FrontierParityTest,
                         ::testing::Values(1u, 2u, 4u));

TEST(FrontierTraversalTest, ResultsInvariantToHostThreads) {
  Graph g = Rmat(8, 8, 5);
  FrontierEngineOptions options;  // kAuto
  options.num_workers = 4;
  ASSERT_EQ(setenv("GAL_TASK_THREADS", "1", 1), 0);
  FrontierBfsResult bfs1 = FrontierBfs(g, 0, options);
  FrontierWccResult wcc1 = FrontierWcc(g, options);
  ASSERT_EQ(setenv("GAL_TASK_THREADS", "8", 1), 0);
  FrontierBfsResult bfs8 = FrontierBfs(g, 0, options);
  FrontierWccResult wcc8 = FrontierWcc(g, options);
  ASSERT_EQ(unsetenv("GAL_TASK_THREADS"), 0);
  EXPECT_EQ(bfs1.distance, bfs8.distance);
  EXPECT_EQ(wcc1.component, wcc8.component);
  // Simulated work is an engine property, not a host-thread property.
  EXPECT_EQ(bfs1.stats.edges_scanned, bfs8.stats.edges_scanned);
  EXPECT_EQ(bfs1.stats.wire_messages, bfs8.stats.wire_messages);
  EXPECT_EQ(wcc1.stats.messages, wcc8.stats.messages);
}

TEST(FrontierTraversalTest, DenseFrontierPullsThenSparseTailPushes) {
  // A star forces the flip: one step saturates the frontier. Pull scans
  // fewer edges than the push fan-out (no echo scans back at the hub).
  Graph g = Star(300);
  FrontierBfsResult r = FrontierBfs(g, 0, ModeOptions(DirectionMode::kAuto, 4));
  ASSERT_TRUE(r.status.ok());
  EXPECT_GT(r.stats.pull_steps, 0u);
  FrontierBfsResult push =
      FrontierBfs(g, 0, ModeOptions(DirectionMode::kPushOnly, 4));
  EXPECT_LT(r.stats.edges_scanned, push.stats.edges_scanned);

  // On a dense power-law graph the wire volume flips too: push sends a
  // duplicate claim per frontier in-edge of every unvisited vertex,
  // pull stops probing at the first frontier hit.
  Graph pl = BarabasiAlbert(500, 8, 3);
  FrontierBfsResult pl_auto =
      FrontierBfs(pl, 0, ModeOptions(DirectionMode::kAuto, 4));
  FrontierBfsResult pl_push =
      FrontierBfs(pl, 0, ModeOptions(DirectionMode::kPushOnly, 4));
  ASSERT_GT(pl_auto.stats.pull_steps, 0u);
  EXPECT_EQ(pl_auto.distance, pl_push.distance);
  EXPECT_LT(pl_auto.stats.edges_scanned, pl_push.stats.edges_scanned);
  EXPECT_LT(pl_auto.stats.wire_bytes, pl_push.stats.wire_bytes);
}

TEST(FrontierTraversalTest, PullOnDirectedGraphUsesInNeighbors) {
  // Directed path 0->1->2->...: pull must gather over in-edges to see
  // the frontier at all.
  std::vector<Edge> edges;
  for (VertexId v = 0; v + 1 < 64; ++v) edges.push_back({v, v + 1});
  GraphOptions go;
  go.directed = true;
  Graph g = std::move(Graph::FromEdges(64, std::move(edges), go).value());
  const std::vector<uint32_t> ref = SerialBfs(g, 0);
  FrontierBfsResult pull =
      FrontierBfs(g, 0, ModeOptions(DirectionMode::kPullOnly, 2));
  EXPECT_EQ(pull.distance, ref);
  EXPECT_EQ(pull.stats.push_steps, 0u);
}

TEST(FrontierTraversalTest, SsspMatchesDijkstra) {
  Graph g = Rmat(7, 8, 11);
  const std::vector<uint64_t> baseline = SerialDijkstra(g, 3);
  FrontierEngineOptions options;
  options.num_workers = 4;
  FrontierSsspResult frontier =
      FrontierSssp(g, 3, &SyntheticEdgeWeight, options);
  ASSERT_TRUE(frontier.status.ok());
  EXPECT_EQ(frontier.distance, baseline);
}

TEST(FrontierTraversalTest, MaxStepsBoundsEveryTraversal) {
  // The shared step loop owns the bound: each traversal stops after
  // max_steps steps with the partial result of those steps.
  Graph g = Path(8);
  FrontierEngineOptions options;
  options.num_workers = 2;
  options.max_steps = 2;
  const FrontierBfsResult bfs = FrontierBfs(g, 0, options);
  ASSERT_TRUE(bfs.status.ok());
  EXPECT_EQ(bfs.stats.steps, 2u);
  std::vector<uint32_t> expected(8, kFrontierUnreachable);
  expected[0] = 0;
  expected[1] = 1;
  expected[2] = 2;
  EXPECT_EQ(bfs.distance, expected);
  const FrontierSsspResult sssp =
      FrontierSssp(g, 0, &SyntheticEdgeWeight, options);
  ASSERT_TRUE(sssp.status.ok());
  EXPECT_EQ(sssp.stats.steps, 2u);
  const FrontierWccResult wcc = FrontierWcc(g, options);
  EXPECT_EQ(wcc.stats.steps, 2u);
  EXPECT_GT(wcc.num_components, 1u);
}

TEST(FrontierTraversalTest, BfsRejectsOutOfRangeSource) {
  Graph g = Path(10);
  FrontierBfsResult r = FrontierBfs(g, 10, {});
  EXPECT_FALSE(r.status.ok());
  EXPECT_TRUE(r.distance.empty());
  FrontierSsspResult s = FrontierSssp(g, 1000, &SyntheticEdgeWeight, {});
  EXPECT_FALSE(s.status.ok());
  EXPECT_TRUE(s.distance.empty());
}

}  // namespace
}  // namespace gal
