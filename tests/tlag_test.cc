#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <memory>
#include <mutex>
#include <set>
#include <thread>
#include <utility>

#include <gtest/gtest.h>

#include "common/timer.h"
#include "graph/generators.h"
#include "tlag/algos/cliques.h"
#include "tlag/algos/quasi_clique.h"
#include "tlag/algos/subgraph_enum.h"
#include "tlag/algos/triangles.h"
#include "tlag/bfs_engine.h"
#include "tlag/task_engine.h"
#include "tlag/work_deque.h"

namespace gal {
namespace {

// --- WorkStealingDeque -------------------------------------------------------

TEST(WorkDequeTest, OwnerLifoThiefFifo) {
  WorkStealingDeque<int> dq;
  dq.Push(new int(1));
  dq.Push(new int(2));
  dq.Push(new int(3));
  EXPECT_EQ(dq.ApproxSize(), 3u);
  std::unique_ptr<int> stolen(dq.Steal());
  ASSERT_NE(stolen, nullptr);
  EXPECT_EQ(*stolen, 1);  // thieves take the oldest (biggest subproblem)
  std::unique_ptr<int> popped(dq.Pop());
  ASSERT_NE(popped, nullptr);
  EXPECT_EQ(*popped, 3);  // owner pops the newest (DFS order)
  popped.reset(dq.Pop());
  ASSERT_NE(popped, nullptr);
  EXPECT_EQ(*popped, 2);
  EXPECT_EQ(dq.Pop(), nullptr);
  EXPECT_EQ(dq.Steal(), nullptr);
  EXPECT_EQ(dq.ApproxSize(), 0u);
}

TEST(WorkDequeTest, GrowthPreservesAllTasks) {
  WorkStealingDeque<int> dq(4);  // forces several buffer doublings
  int64_t pushed = 0;
  int64_t seen = 0;
  int consumed = 0;
  for (int i = 1; i <= 1000; ++i) {
    dq.Push(new int(i));
    pushed += i;
    if ((i % 3) == 0) {  // interleave owner pops with growth
      std::unique_ptr<int> t(dq.Pop());
      ASSERT_NE(t, nullptr);
      seen += *t;
      ++consumed;
    }
  }
  for (;;) {  // drain from both ends
    std::unique_ptr<int> t(consumed % 2 == 0 ? dq.Pop() : dq.Steal());
    if (t == nullptr) break;
    seen += *t;
    ++consumed;
  }
  EXPECT_EQ(consumed, 1000);
  EXPECT_EQ(seen, pushed);
}

TEST(WorkDequeTest, ConcurrentStealsDeliverEachTaskExactlyOnce) {
  WorkStealingDeque<uint64_t> dq(8);
  constexpr uint64_t kTasks = 20000;
  std::atomic<uint64_t> consumed{0};
  std::atomic<uint64_t> sum{0};
  std::atomic<bool> owner_done{false};
  auto consume = [&](uint64_t* t) {
    sum.fetch_add(*t, std::memory_order_relaxed);
    consumed.fetch_add(1, std::memory_order_relaxed);
    delete t;
  };
  std::vector<std::thread> thieves;
  for (int i = 0; i < 3; ++i) {
    thieves.emplace_back([&] {
      while (!owner_done.load(std::memory_order_acquire) ||
             dq.ApproxSize() > 0) {
        uint64_t* t = dq.Steal();
        if (t != nullptr) consume(t);
      }
    });
  }
  for (uint64_t i = 1; i <= kTasks; ++i) {
    dq.Push(new uint64_t(i));
    if ((i & 7) == 0) {  // owner pops race thief CASes on the last element
      uint64_t* t = dq.Pop();
      if (t != nullptr) consume(t);
    }
  }
  uint64_t* t;
  while ((t = dq.Pop()) != nullptr) consume(t);
  owner_done.store(true, std::memory_order_release);
  for (std::thread& th : thieves) th.join();
  EXPECT_EQ(consumed.load(), kTasks);
  EXPECT_EQ(sum.load(), kTasks * (kTasks + 1) / 2);
}

// --- TaskEngine --------------------------------------------------------------

TEST(TaskEngineTest, ExecutesAllInitialTasks) {
  TaskEngine<int> engine(TaskEngineConfig{.num_threads = 4});
  std::atomic<int> sum{0};
  std::vector<int> tasks;
  for (int i = 1; i <= 100; ++i) tasks.push_back(i);
  TaskEngineStats stats =
      engine.Run(std::move(tasks),
                 [&sum](int& t, TaskEngine<int>::Context&) { sum += t; });
  EXPECT_EQ(sum.load(), 5050);
  EXPECT_EQ(stats.tasks_executed, 100u);
}

TEST(TaskEngineTest, SpawnedTasksRunToo) {
  TaskEngine<int> engine(TaskEngineConfig{.num_threads = 4});
  std::atomic<int> count{0};
  TaskEngineStats stats = engine.Run(
      {3}, [&count](int& depth, TaskEngine<int>::Context& ctx) {
        count.fetch_add(1);
        if (depth > 0) {
          ctx.Spawn(depth - 1);
          ctx.Spawn(depth - 1);
        }
      });
  EXPECT_EQ(count.load(), 15);  // complete binary tree of depth 3
  EXPECT_EQ(stats.tasks_executed, 15u);
  EXPECT_EQ(stats.tasks_spawned, 14u);
}

TEST(TaskEngineTest, SingleThreadWorks) {
  TaskEngine<int> engine(TaskEngineConfig{.num_threads = 1});
  std::atomic<int> count{0};
  engine.Run({1, 2, 3},
             [&count](int&, TaskEngine<int>::Context&) { count++; });
  EXPECT_EQ(count.load(), 3);
}

TEST(TaskEngineTest, StealingMovesWorkFromSkewedQueues) {
  // All heavy work lands (round-robin) such that thread 0 owns the one
  // giant task plus spawns; stealing should record activity.
  TaskEngine<int> engine(TaskEngineConfig{.num_threads = 4});
  std::atomic<uint64_t> work{0};
  TaskEngineStats stats = engine.Run(
      {20000}, [&work](int& n, TaskEngine<int>::Context& ctx) {
        if (n > 1) {
          ctx.Spawn(n / 2);
          ctx.Spawn(n - n / 2);
        } else {
          // Simulate leaf work.
          volatile uint64_t x = 0;
          for (int i = 0; i < 50; ++i) x = x + i;
          work.fetch_add(1, std::memory_order_relaxed);
        }
      });
  EXPECT_EQ(work.load(), 20000u);
  EXPECT_GT(stats.steals, 0u);
}

TEST(TaskEngineTest, NoStealingStaysStatic) {
  TaskEngine<int> engine(
      TaskEngineConfig{.num_threads = 4, .work_stealing = false});
  std::atomic<int> count{0};
  TaskEngineStats stats = engine.Run(
      {1, 2, 3, 4, 5, 6, 7, 8},
      [&count](int&, TaskEngine<int>::Context&) { count++; });
  EXPECT_EQ(count.load(), 8);
  EXPECT_EQ(stats.steals, 0u);
}

TEST(TaskEngineTest, DeepRecursiveSpawnStressAtEightThreads) {
  // A complete binary spawn tree (bulk churn on every deque) followed by
  // a long spawn chain (one task alive at a time, so workers park and
  // wake constantly — the termination detector's worst case).
  TaskEngine<std::pair<int, int>> engine(TaskEngineConfig{.num_threads = 8});
  std::atomic<uint64_t> count{0};
  using Ctx = TaskEngine<std::pair<int, int>>::Context;
  TaskEngineStats tree = engine.Run(
      {{14, 0}}, [&count](std::pair<int, int>& t, Ctx& ctx) {
        count.fetch_add(1, std::memory_order_relaxed);
        if (t.first > 0) {
          ctx.Spawn({t.first - 1, 0});
          ctx.Spawn({t.first - 1, 0});
        }
      });
  EXPECT_EQ(count.load(), (1u << 15) - 1);  // 2^15 - 1 nodes
  EXPECT_EQ(tree.tasks_executed, (1u << 15) - 1);
  EXPECT_EQ(tree.tasks_spawned, (1u << 15) - 2);

  count.store(0);
  TaskEngineStats chain = engine.Run(
      {{0, 4000}}, [&count](std::pair<int, int>& t, Ctx& ctx) {
        count.fetch_add(1, std::memory_order_relaxed);
        if (t.second > 0) ctx.Spawn({0, t.second - 1});
      });
  EXPECT_EQ(count.load(), 4001u);
  EXPECT_EQ(chain.tasks_executed, 4001u);
}

TEST(TaskEngineTest, ParkedThievesRaiseStealPressure) {
  // One giant task, three empty workers: the thieves must park and the
  // busy worker must observe the pressure signal (the gate adaptive
  // splitting polls).
  TaskEngine<int> engine(TaskEngineConfig{.num_threads = 4});
  std::atomic<bool> saw_pressure{false};
  engine.Run({0}, [&saw_pressure](int&, TaskEngine<int>::Context& ctx) {
    Timer t;
    while (t.ElapsedSeconds() < 2.0) {
      if (ctx.StealPressure()) {
        saw_pressure.store(true);
        EXPECT_GE(ctx.ParkedWorkers(), 1u);
        break;
      }
    }
  });
  EXPECT_TRUE(saw_pressure.load());
}

TEST(TaskEngineTest, ParallelEfficiencyZeroOnEmptyRun) {
  TaskEngineStats fresh;
  EXPECT_EQ(fresh.ParallelEfficiency(), 0.0);  // no run: nothing perfect
  TaskEngine<int> engine(TaskEngineConfig{.num_threads = 2});
  TaskEngineStats stats =
      engine.Run({}, [](int&, TaskEngine<int>::Context&) {});
  EXPECT_EQ(stats.tasks_executed, 0u);
  EXPECT_EQ(stats.ParallelEfficiency(), 0.0);
}

TEST(TaskEngineTest, ThreadCountResolvesFromEnvAndHardware) {
  EXPECT_EQ(ResolveTaskThreads(5), 5u);  // explicit request wins
  ASSERT_EQ(setenv("GAL_TASK_THREADS", "3", 1), 0);
  EXPECT_EQ(ResolveTaskThreads(0), 3u);
  TaskEngine<int> engine(TaskEngineConfig{});  // num_threads = 0 -> env
  std::atomic<int> count{0};
  TaskEngineStats stats = engine.Run(
      {1, 2, 3}, [&count](int&, TaskEngine<int>::Context&) { count++; });
  EXPECT_EQ(count.load(), 3);
  EXPECT_EQ(stats.busy_seconds.size(), 3u);
  ASSERT_EQ(unsetenv("GAL_TASK_THREADS"), 0);
  EXPECT_GE(ResolveTaskThreads(0), 1u);  // hardware fallback
}

TEST(TaskEngineTest, StatsSurfaceStealAndParkSpans) {
  TaskEngine<int> engine(TaskEngineConfig{.num_threads = 4});
  TaskEngineStats stats = engine.Run(
      {12}, [](int& n, TaskEngine<int>::Context& ctx) {
        if (n > 0) {
          ctx.Spawn(n - 1);
          ctx.Spawn(n - 1);
        }
      });
  EXPECT_EQ(stats.steal_latency.name, "steal_latency");
  EXPECT_EQ(stats.park_time.name, "park_time");
  EXPECT_EQ(stats.queue_depth.name, "queue_depth");
  if (stats.steals > 0) {
    EXPECT_GT(stats.steal_latency.max_seconds, 0.0);
  }
  if (stats.parks > 0) {
    EXPECT_GT(stats.park_time.max_seconds, 0.0);
  }
}

// --- BFS extension engine ------------------------------------------------------

/// Clique-style canonical extension: common neighbors greater than the
/// last vertex.
BfsExtensionEngine::ExtendFn CliqueExtend(const Graph& g) {
  return [&g](const Embedding& e, std::vector<VertexId>& out) {
    const VertexId last = e.back();
    g.ForEachOutNeighbor(last, [&](VertexId u) {
      if (u <= last) return;
      bool adjacent_to_all = true;
      for (VertexId v : e) {
        if (v != last && !g.HasEdge(u, v)) {
          adjacent_to_all = false;
          break;
        }
      }
      if (adjacent_to_all) out.push_back(u);
    });
  };
}

std::vector<VertexId> AllVertices(const Graph& g) {
  std::vector<VertexId> roots(g.NumVertices());
  for (VertexId v = 0; v < g.NumVertices(); ++v) roots[v] = v;
  return roots;
}

TEST(BfsEngineTest, EnumeratesTrianglesOnce) {
  Graph g = Complete(6);
  BfsExtensionEngine engine(BfsEngineConfig{});
  std::atomic<uint64_t> triangles{0};
  BfsEngineStats stats =
      engine.Run(AllVertices(g), 3, CliqueExtend(g),
                 [&triangles](const Embedding&) { triangles++; });
  EXPECT_EQ(triangles.load(), 20u);  // C(6,3)
  EXPECT_GT(stats.peak_materialized, 0u);
  EXPECT_FALSE(stats.budget_exceeded);
}

TEST(BfsEngineTest, TargetSizeOneOutputsEveryRoot) {
  // The roots already have the target size, so each is an output.
  Graph g = Complete(4);
  BfsExtensionEngine engine(BfsEngineConfig{});
  std::vector<Embedding> outputs;
  engine.Run(AllVertices(g), 1, CliqueExtend(g),
             [&outputs](const Embedding& e) { outputs.push_back(e); });
  EXPECT_EQ(outputs,
            (std::vector<Embedding>{{0}, {1}, {2}, {3}}));
}

TEST(BfsEngineTest, PeakMemoryGrowsWithLevelWidth) {
  Graph g = Complete(14);
  BfsExtensionEngine engine(BfsEngineConfig{});
  uint64_t outputs = 0;
  BfsEngineStats s4 = engine.Run(AllVertices(g), 4, CliqueExtend(g),
                                 [&outputs](const Embedding&) { ++outputs; });
  EXPECT_EQ(outputs, 1001u);  // C(14,4)
  // Materialized frontier must cover at least the size-3 level: C(14,3).
  EXPECT_GE(s4.peak_materialized, 364u);
}

TEST(BfsEngineTest, StrictPolicyAbortsOnBudget) {
  Graph g = Complete(12);
  BfsEngineConfig config;
  config.memory_budget_bytes = 512;  // absurdly small
  config.policy = MemoryPolicy::kStrict;
  BfsExtensionEngine engine(config);
  BfsEngineStats stats =
      engine.Run(AllVertices(g), 4, CliqueExtend(g), [](const Embedding&) {});
  EXPECT_TRUE(stats.budget_exceeded);
}

TEST(BfsEngineTest, SpillPolicyCompletesAndAccountsOverflow) {
  Graph g = Complete(12);
  BfsEngineConfig config;
  config.memory_budget_bytes = 2048;
  config.policy = MemoryPolicy::kSpill;
  BfsExtensionEngine engine(config);
  uint64_t outputs = 0;
  BfsEngineStats stats = engine.Run(AllVertices(g), 4, CliqueExtend(g),
                                    [&outputs](const Embedding&) { ++outputs; });
  EXPECT_EQ(outputs, 495u);  // C(12,4)
  EXPECT_GT(stats.spilled_bytes, 0u);
  EXPECT_FALSE(stats.budget_exceeded);
}

TEST(BfsEngineTest, SpillPolicyKeepsResidentBytesWithinBudget) {
  // Regression: spilled embeddings were charged to the next level's
  // resident bytes as well as spilled_bytes, double-counting the
  // overflow and reporting a peak far beyond the budget even though the
  // policy's whole point is that overflow lives in host memory.
  Graph g = Complete(12);
  BfsEngineConfig config;
  config.memory_budget_bytes = 2048;
  config.policy = MemoryPolicy::kSpill;
  BfsExtensionEngine engine(config);
  uint64_t outputs = 0;
  BfsEngineStats stats = engine.Run(AllVertices(g), 4, CliqueExtend(g),
                                    [&outputs](const Embedding&) { ++outputs; });
  EXPECT_EQ(outputs, 495u);  // spilling must not drop work: C(12,4)
  EXPECT_GT(stats.spilled_bytes, 0u);
  // Resident footprint never exceeds the budget by more than the one
  // embedding whose admission check tripped (the roots here fit).
  const uint64_t slack = 4 * sizeof(VertexId) + sizeof(Embedding);
  EXPECT_LE(stats.peak_bytes, config.memory_budget_bytes + slack);
}

TEST(BfsEngineTest, HybridPolicyMatchesCountWithBoundedMemory) {
  Graph g = Complete(12);
  BfsEngineConfig unlimited;
  BfsExtensionEngine full(unlimited);
  uint64_t expect = 0;
  full.Run(AllVertices(g), 4, CliqueExtend(g),
           [&expect](const Embedding&) { ++expect; });

  BfsEngineConfig config;
  config.memory_budget_bytes = 4096;
  config.policy = MemoryPolicy::kHybridDfs;
  BfsExtensionEngine hybrid(config);
  uint64_t outputs = 0;
  BfsEngineStats stats = hybrid.Run(AllVertices(g), 4, CliqueExtend(g),
                                    [&outputs](const Embedding&) { ++outputs; });
  EXPECT_EQ(outputs, expect);
  EXPECT_GT(stats.dfs_fallback_embeddings, 0u);
  EXPECT_LE(stats.peak_bytes, 2 * config.memory_budget_bytes);
}

// --- Triangles -----------------------------------------------------------------

uint64_t BruteTriangles(const Graph& g) {
  uint64_t count = 0;
  std::vector<VertexId> row;
  for (VertexId v = 0; v < g.NumVertices(); ++v) {
    const auto nv = g.NeighborsInto(v, row);
    for (VertexId u : nv) {
      if (u <= v) continue;
      for (VertexId w : nv) {
        if (w <= u) continue;
        count += g.HasEdge(u, w);
      }
    }
  }
  return count;
}

TEST(TrianglesTest, SerialMatchesBruteForce) {
  for (uint64_t seed : {1ull, 5ull, 9ull}) {
    Graph g = ErdosRenyi(150, 0.07, seed);
    EXPECT_EQ(SerialTriangleCount(g).triangles, BruteTriangles(g));
  }
}

TEST(TrianglesTest, TaskMatchesSerial) {
  Graph g = Rmat(10, 8, 17);
  TriangleCountResult serial = SerialTriangleCount(g);
  TriangleCountResult task =
      TaskTriangleCount(g, TaskEngineConfig{.num_threads = 8});
  EXPECT_EQ(task.triangles, serial.triangles);
  EXPECT_EQ(task.intersection_ops, serial.intersection_ops);
}

TEST(TrianglesTest, ClusterAttributionIndependentOfThreads) {
  // Owner computes: a vertex's task is charged to its home worker, so the
  // ledger does not depend on which host thread ran it or on stealing.
  Graph g = Rmat(10, 8, 7);
  std::vector<uint64_t> migrated;
  std::vector<uint64_t> touched;
  for (uint32_t threads : {1u, 2u, 4u}) {
    ClusterRuntime runtime(ClusterOptions{4, {}});
    TaskEngineConfig config;
    config.num_threads = threads;
    config.cluster = &runtime;
    config.faults = FaultPlan();
    const TriangleCountResult r = TaskTriangleCount(g, config);
    migrated.push_back(r.migrated_bytes);
    touched.push_back(r.data_touched_bytes);
  }
  EXPECT_GT(migrated[0], 0u);
  EXPECT_EQ(migrated[1], migrated[0]);
  EXPECT_EQ(migrated[2], migrated[0]);
  EXPECT_EQ(touched[1], touched[0]);
  EXPECT_EQ(touched[2], touched[0]);
}

TEST(TrianglesTest, CompleteAndBipartite) {
  EXPECT_EQ(SerialTriangleCount(Complete(20)).triangles, 1140u);
  EXPECT_EQ(SerialTriangleCount(Grid(8, 8)).triangles, 0u);
}

// --- Maximal cliques ---------------------------------------------------------

TEST(MaximalCliquesTest, CompleteGraphHasOne) {
  MaximalCliqueResult r = MaximalCliques(Complete(8));
  EXPECT_EQ(r.count, 1u);
  EXPECT_EQ(r.largest, 8u);
}

TEST(MaximalCliquesTest, TriangleWithPendant) {
  // Triangle {0,1,2} + pendant edge 2-3: maximal cliques {0,1,2}, {2,3}.
  Graph g = std::move(
      Graph::FromEdges(4, {{0, 1}, {1, 2}, {0, 2}, {2, 3}}, {}).value());
  MaximalCliqueResult r = MaximalCliques(g, {}, /*collect=*/true);
  EXPECT_EQ(r.count, 2u);
  std::sort(r.cliques.begin(), r.cliques.end());
  EXPECT_EQ(r.cliques[0], (std::vector<VertexId>{0, 1, 2}));
  EXPECT_EQ(r.cliques[1], (std::vector<VertexId>{2, 3}));
}

TEST(MaximalCliquesTest, MoonMoserWorstCase) {
  // K(3,3,3) complement-style: the cocktail-party-like bound. Build the
  // complete tripartite complement: 3 groups of 3, edges between groups.
  std::vector<Edge> edges;
  for (VertexId u = 0; u < 9; ++u) {
    for (VertexId v = u + 1; v < 9; ++v) {
      if (u / 3 != v / 3) edges.push_back({u, v});
    }
  }
  Graph g = std::move(Graph::FromEdges(9, edges, {}).value());
  MaximalCliqueResult r = MaximalCliques(g);
  EXPECT_EQ(r.count, 27u);  // 3^3 maximal cliques (Moon–Moser)
  EXPECT_EQ(r.largest, 3u);
}

TEST(MaximalCliquesTest, MinSizeFilters) {
  Graph g = std::move(
      Graph::FromEdges(4, {{0, 1}, {1, 2}, {0, 2}, {2, 3}}, {}).value());
  MaximalCliqueOptions opt;
  opt.min_size = 3;
  EXPECT_EQ(MaximalCliques(g, opt).count, 1u);
}

TEST(MaximalCliquesTest, ThreadCountInvariant) {
  Graph g = ErdosRenyi(200, 0.08, 42);
  MaximalCliqueOptions opt1;
  opt1.engine.num_threads = 1;
  MaximalCliqueOptions opt8;
  opt8.engine.num_threads = 8;
  opt8.split_depth = 3;
  MaximalCliqueResult a = MaximalCliques(g, opt1);
  MaximalCliqueResult b = MaximalCliques(g, opt8);
  EXPECT_EQ(a.count, b.count);
  EXPECT_EQ(a.largest, b.largest);
}

TEST(MaximalCliquesTest, CollectedCliquesAreMaximalCliques) {
  Graph g = ErdosRenyi(80, 0.15, 7);
  MaximalCliqueResult r = MaximalCliques(g, {}, /*collect=*/true);
  ASSERT_EQ(r.cliques.size(), r.count);
  std::set<std::vector<VertexId>> unique(r.cliques.begin(), r.cliques.end());
  EXPECT_EQ(unique.size(), r.count);  // no duplicates
  for (const auto& clique : r.cliques) {
    for (size_t i = 0; i < clique.size(); ++i) {
      for (size_t j = i + 1; j < clique.size(); ++j) {
        ASSERT_TRUE(g.HasEdge(clique[i], clique[j]));
      }
    }
    // Maximality: no vertex extends it.
    for (VertexId v = 0; v < g.NumVertices(); ++v) {
      if (std::binary_search(clique.begin(), clique.end(), v)) continue;
      bool extends = true;
      for (VertexId u : clique) {
        if (!g.HasEdge(u, v)) {
          extends = false;
          break;
        }
      }
      ASSERT_FALSE(extends);
    }
  }
}

// --- Maximum clique -----------------------------------------------------------

TEST(MaximumCliqueTest, FindsPlantedClique) {
  Graph bg = ErdosRenyi(150, 0.05, 3);
  std::vector<Edge> edges = bg.CollectEdges();
  for (VertexId u = 100; u < 108; ++u) {
    for (VertexId v = u + 1; v < 108; ++v) edges.push_back({u, v});
  }
  Graph g = std::move(Graph::FromEdges(150, edges, {}).value());
  MaximumCliqueResult r = MaximumClique(g);
  EXPECT_EQ(r.size, 8u);
  for (size_t i = 0; i < r.clique.size(); ++i) {
    for (size_t j = i + 1; j < r.clique.size(); ++j) {
      EXPECT_TRUE(g.HasEdge(r.clique[i], r.clique[j]));
    }
  }
}

TEST(MaximumCliqueTest, AgreesWithMaximalLargest) {
  for (uint64_t seed : {2ull, 8ull}) {
    Graph g = ErdosRenyi(120, 0.12, seed);
    EXPECT_EQ(MaximumClique(g).size, MaximalCliques(g).largest);
  }
}

TEST(MaximumCliqueTest, PruningActuallyPrunes) {
  Graph g = ErdosRenyi(150, 0.2, 5);
  MaximumCliqueResult r = MaximumClique(g);
  EXPECT_GT(r.branches_pruned, 0u);
}

// --- Connected subgraph enumeration --------------------------------------------

TEST(SubgraphEnumTest, CountsAllConnectedSubsetsOfK4) {
  Graph g = Complete(4);
  SubgraphEnumOptions opt;
  opt.max_size = 4;
  std::atomic<uint64_t> count{0};
  SubgraphEnumStats stats = EnumerateConnectedSubgraphs(
      g, opt, [&count](const std::vector<VertexId>&) {
        count++;
        return true;
      });
  EXPECT_EQ(count.load(), 15u);  // all nonempty subsets of K4
  EXPECT_EQ(stats.subgraphs_visited, 15u);
}

TEST(SubgraphEnumTest, PathSubgraphsAreIntervals) {
  Graph g = Path(6);
  SubgraphEnumOptions opt;
  opt.max_size = 6;
  std::mutex mu;
  std::set<std::vector<VertexId>> seen;
  EnumerateConnectedSubgraphs(g, opt, [&](const std::vector<VertexId>& s) {
    std::vector<VertexId> sorted = s;
    std::sort(sorted.begin(), sorted.end());
    std::lock_guard<std::mutex> lock(mu);
    EXPECT_TRUE(seen.insert(sorted).second) << "duplicate subgraph";
    return true;
  });
  // Connected subgraphs of a path are intervals: 6+5+4+3+2+1 = 21.
  EXPECT_EQ(seen.size(), 21u);
}

TEST(SubgraphEnumTest, SizeCapRespected) {
  Graph g = Complete(6);
  SubgraphEnumOptions opt;
  opt.max_size = 2;
  std::atomic<uint64_t> count{0};
  EnumerateConnectedSubgraphs(g, opt, [&count](const std::vector<VertexId>& s) {
    EXPECT_LE(s.size(), 2u);
    count++;
    return true;
  });
  EXPECT_EQ(count.load(), 6u + 15u);  // singletons + edges
}

TEST(SubgraphEnumTest, PruningStopsExtensions) {
  Graph g = Complete(6);
  SubgraphEnumOptions opt;
  opt.max_size = 4;
  std::atomic<uint64_t> count{0};
  EnumerateConnectedSubgraphs(g, opt, [&count](const std::vector<VertexId>& s) {
    count++;
    return s.size() < 2;  // never extend beyond pairs
  });
  EXPECT_EQ(count.load(), 6u + 15u);
}

// --- Quasi-cliques -------------------------------------------------------------

std::vector<std::vector<VertexId>> BruteQuasiCliques(const Graph& g,
                                                     double gamma,
                                                     uint32_t min_size,
                                                     uint32_t max_size) {
  std::vector<std::vector<VertexId>> out;
  const VertexId n = g.NumVertices();
  for (uint32_t mask = 1; mask < (1u << n); ++mask) {
    std::vector<VertexId> s;
    for (VertexId v = 0; v < n; ++v) {
      if (mask & (1u << v)) s.push_back(v);
    }
    if (s.size() < min_size || s.size() > max_size) continue;
    if (IsQuasiClique(g, s, gamma)) out.push_back(s);
  }
  std::sort(out.begin(), out.end());
  return out;
}

TEST(QuasiCliqueTest, MatchesBruteForceOnSmallGraphs) {
  for (uint64_t seed : {1ull, 2ull, 3ull, 4ull}) {
    Graph g = ErdosRenyi(12, 0.35, seed);
    QuasiCliqueOptions opt;
    opt.gamma = 0.6;
    opt.min_size = 3;
    opt.max_size = 5;
    QuasiCliqueResult r = FindQuasiCliques(g, opt);
    EXPECT_EQ(r.quasi_cliques,
              BruteQuasiCliques(g, 0.6, 3, 5)) << "seed " << seed;
  }
}

TEST(QuasiCliqueTest, GammaOneMeansCliques) {
  Graph g = ErdosRenyi(14, 0.4, 11);
  QuasiCliqueOptions opt;
  opt.gamma = 1.0;
  opt.min_size = 3;
  opt.max_size = 4;
  QuasiCliqueResult r = FindQuasiCliques(g, opt);
  for (const auto& s : r.quasi_cliques) {
    for (size_t i = 0; i < s.size(); ++i) {
      for (size_t j = i + 1; j < s.size(); ++j) {
        EXPECT_TRUE(g.HasEdge(s[i], s[j]));
      }
    }
  }
}

TEST(QuasiCliqueTest, FindsPlantedDenseGroup) {
  // Sparse graph + near-clique (K6 minus one edge) on 0..5.
  Graph bg = ErdosRenyi(40, 0.02, 9);
  std::vector<Edge> edges = bg.CollectEdges();
  for (VertexId u = 0; u < 6; ++u) {
    for (VertexId v = u + 1; v < 6; ++v) {
      if (!(u == 0 && v == 1)) edges.push_back({u, v});
    }
  }
  Graph g = std::move(Graph::FromEdges(40, edges, {}).value());
  QuasiCliqueOptions opt;
  opt.gamma = 0.8;
  opt.min_size = 6;
  opt.max_size = 6;
  QuasiCliqueResult r = FindQuasiCliques(g, opt);
  std::vector<VertexId> planted = {0, 1, 2, 3, 4, 5};
  EXPECT_TRUE(std::find(r.quasi_cliques.begin(), r.quasi_cliques.end(),
                        planted) != r.quasi_cliques.end());
}

TEST(QuasiCliqueTest, IsQuasiCliqueEdgeCases) {
  Graph g = Complete(5);
  EXPECT_TRUE(IsQuasiClique(g, {0, 1, 2}, 1.0));
  EXPECT_FALSE(IsQuasiClique(g, {}, 0.5));
  Graph p = Path(4);
  EXPECT_FALSE(IsQuasiClique(p, {0, 1, 2, 3}, 0.8));  // ends have deg 1
  EXPECT_TRUE(IsQuasiClique(p, {0, 1}, 1.0));
}

}  // namespace
}  // namespace gal
