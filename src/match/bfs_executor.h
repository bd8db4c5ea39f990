#ifndef GAL_MATCH_BFS_EXECUTOR_H_
#define GAL_MATCH_BFS_EXECUTOR_H_

#include <cstdint>

#include "graph/graph.h"
#include "match/executor.h"
#include "tlag/bfs_engine.h"

namespace gal {

/// BFS (join-style) subgraph matching: partial matches are materialized
/// level by level, one join per plan position — the execution model of
/// the GPU systems the survey covers (GSI, cuTS), which trade memory for
/// coalesced access. It is a mode of BfsExtensionEngine: each level runs
/// the plan's extension step (PlanLocalCandidates + PlanAdmits), and the
/// engine's memory policy mirrors the systems' responses to frontier
/// explosion: strict failure, host-memory spill (PBE/VSGM/G2-AIMD
/// partition-and-buffer), or DFS fallback (EGSM hybrid).
struct BfsMatchOptions {
  MatchOptions match;
  uint64_t memory_budget_bytes = 0;  // 0 = unlimited
  MemoryPolicy policy = MemoryPolicy::kSpill;
};

struct BfsMatchResult {
  MatchStats stats;
  uint64_t peak_partial_matches = 0;
  uint64_t peak_bytes = 0;
  uint64_t spilled_bytes = 0;
  uint64_t dfs_fallback_matches = 0;
  bool budget_exceeded = false;
  MatchPlan plan;
};

BfsMatchResult BfsSubgraphMatch(const Graph& data, const Graph& query,
                                const BfsMatchOptions& options = {});

}  // namespace gal

#endif  // GAL_MATCH_BFS_EXECUTOR_H_
