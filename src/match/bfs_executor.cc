#include "match/bfs_executor.h"

#include "common/timer.h"

namespace gal {

BfsMatchResult BfsSubgraphMatch(const Graph& data, const Graph& query,
                                const BfsMatchOptions& options) {
  Timer timer;
  BfsMatchResult result;
  CandidateSets candidates = options.match.nlf_filter
                                 ? NlfFilter(data, query)
                                 : LdfFilter(data, query);
  if (options.match.refine_candidates) {
    RefineCandidates(data, query, &candidates);
  }
  result.plan = BuildPlan(query, candidates, options.match.order,
                          options.match.symmetry_breaking);
  result.stats.candidate_total = candidates.TotalSize();

  // Each level of the engine fills the next plan position. Every root
  // and every local candidate tried is a search node, as in the DFS
  // executor. The engine is serial and `joined` is consumed before the
  // extension returns, so one buffer and one scratch serve every call,
  // the hybrid policy's depth-first completion included.
  const std::vector<VertexId>& roots =
      candidates.candidates[result.plan.order[0]];
  result.stats.search_nodes = roots.size();
  NeighborScratch scratch;
  std::vector<VertexId> joined;
  auto extend = [&](const Embedding& partial, std::vector<VertexId>& out) {
    const uint32_t position = static_cast<uint32_t>(partial.size());
    PlanLocalCandidates(data, result.plan, candidates, partial, position,
                        joined, scratch);
    for (VertexId v : joined) {
      ++result.stats.search_nodes;
      if (PlanAdmits(data, result.plan, partial, position, v,
                     options.match.induced)) {
        out.push_back(v);
      }
    }
  };

  BfsEngineConfig config;
  config.memory_budget_bytes = options.memory_budget_bytes;
  config.policy = options.policy;
  const BfsEngineStats stats = BfsExtensionEngine(config).Run(
      roots, query.NumVertices(), extend,
      [&result](const Embedding&) { ++result.stats.matches; });

  result.peak_partial_matches = stats.peak_materialized;
  result.peak_bytes = stats.peak_bytes;
  result.spilled_bytes = stats.spilled_bytes;
  result.dfs_fallback_matches = stats.dfs_fallback_embeddings;
  result.budget_exceeded = stats.budget_exceeded;
  result.stats.wall_seconds = timer.ElapsedSeconds();
  return result;
}

}  // namespace gal
