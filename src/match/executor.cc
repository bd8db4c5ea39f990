#include "match/executor.h"

#include <algorithm>
#include <atomic>
#include <mutex>

#include "common/timer.h"
#include "graph/intersect.h"

namespace gal {
namespace {

struct SearchShared {
  const Graph* data;
  const MatchPlan* plan;
  const CandidateSets* candidates;
  uint64_t limit;
  bool collect;
  bool induced;
  uint32_t split_depth;
  std::atomic<uint64_t> matches{0};
  std::atomic<uint64_t> search_nodes{0};
  std::mutex out_mu;
  std::vector<std::vector<VertexId>> collected;

  bool LimitReached() const {
    return limit != 0 && matches.load(std::memory_order_relaxed) >= limit;
  }
};

/// Per-thread DFS state: the partial mapping (by plan position).
struct SearchState {
  std::vector<VertexId> mapped;
  // Local candidates per plan position. The loop over them spans the
  // recursive extend calls, so each depth owns its buffer; the decode
  // scratch is fully consumed inside PlanLocalCandidates (no recursion
  // there), so one per state suffices.
  std::vector<std::vector<VertexId>> joined_at;
  NeighborScratch scratch;
};

/// A shippable unit of search: the mapped plan-position prefix, with the
/// *last* vertex still unvalidated (injectivity / restrictions / induced
/// checks run where the task runs, so split and unsplit executions visit
/// bit-identical search trees). Roots are prefixes of length 1.
using PrefixTask = std::vector<VertexId>;

using MatchContext = TaskEngine<PrefixTask>::Context;

void Backtrack(SearchShared& shared, SearchState& state, uint32_t position,
               MatchContext& ctx);

/// The per-candidate step: counts the search node, validates v at
/// `position`, and recurses. Runs either inline or as the first step of
/// a stolen prefix task — identically in both cases.
void TryVertex(SearchShared& shared, SearchState& state, uint32_t position,
               VertexId v, MatchContext& ctx) {
  shared.search_nodes.fetch_add(1, std::memory_order_relaxed);
  if (!PlanAdmits(*shared.data, *shared.plan, state.mapped, position, v,
                  shared.induced)) {
    return;
  }
  state.mapped[position] = v;
  Backtrack(shared, state, position + 1, ctx);
}

void Backtrack(SearchShared& shared, SearchState& state, uint32_t position,
               MatchContext& ctx) {
  if (shared.LimitReached()) return;
  const MatchPlan& plan = *shared.plan;
  const uint32_t k = static_cast<uint32_t>(plan.order.size());

  if (position == k) {
    shared.matches.fetch_add(1, std::memory_order_relaxed);
    if (shared.collect) {
      std::lock_guard<std::mutex> lock(shared.out_mu);
      shared.collected.push_back(state.mapped);
    }
    return;
  }

  // Adaptive prefix splitting (the STMatch/T-DFS mechanism): at shallow
  // positions, when thieves are parked hungry, ship the extension as an
  // engine task (prefix + unvalidated candidate) instead of recursing —
  // a hub-rooted subtree then spreads over idle workers instead of
  // serializing one. Never split the leaf position: the spawn would
  // cost more than the remaining work.
  const bool may_split = position <= shared.split_depth && position + 1 < k;
  auto extend = [&](VertexId v) {
    if (may_split && ctx.StealPressure()) {
      PrefixTask child(state.mapped.begin(),
                       state.mapped.begin() + position);
      child.push_back(v);
      ctx.Spawn(std::move(child));
      return;
    }
    TryVertex(shared, state, position, v, ctx);
  };

  // Local candidates arrive ascending, so extend() fires on the same
  // vertices in the same order and search_nodes stays deterministic.
  std::vector<VertexId>& joined = state.joined_at[position];
  PlanLocalCandidates(*shared.data, plan, *shared.candidates, state.mapped,
                      position, joined, state.scratch);
  for (VertexId v : joined) {
    if (shared.LimitReached()) return;
    extend(v);
  }
}

}  // namespace

MatchResult SubgraphMatch(const Graph& data, const Graph& query,
                          const MatchOptions& options, bool collect) {
  Timer timer;
  MatchResult result;
  CandidateSets candidates = options.nlf_filter ? NlfFilter(data, query)
                                                : LdfFilter(data, query);
  if (options.refine_candidates) {
    RefineCandidates(data, query, &candidates);
  }
  result.plan = BuildPlan(query, candidates, options.order,
                          options.symmetry_breaking);

  SearchShared shared;
  shared.data = &data;
  shared.plan = &result.plan;
  shared.candidates = &candidates;
  shared.limit = options.limit;
  shared.collect = collect;
  shared.induced = options.induced;
  shared.split_depth = options.split_depth;

  // Root tasks: one per candidate of the first ordered query vertex,
  // each a length-1 unvalidated prefix.
  std::vector<PrefixTask> roots;
  roots.reserve(candidates.candidates[result.plan.order[0]].size());
  for (VertexId v : candidates.candidates[result.plan.order[0]]) {
    roots.push_back({v});
  }

  TaskEngine<PrefixTask> engine(options.engine);
  const uint32_t k = query.NumVertices();
  TaskEngineStats task_stats = engine.Run(
      std::move(roots), [&shared, k](PrefixTask& prefix, MatchContext& ctx) {
        if (shared.LimitReached()) return;
        SearchState state;
        state.mapped.assign(k, kInvalidVertex);
        state.joined_at.resize(k);
        const uint32_t position = static_cast<uint32_t>(prefix.size()) - 1;
        for (uint32_t j = 0; j < position; ++j) state.mapped[j] = prefix[j];
        TryVertex(shared, state, position, prefix[position], ctx);
      });

  result.stats.matches = shared.matches.load();
  if (options.limit != 0) {
    result.stats.matches = std::min(result.stats.matches, options.limit);
  }
  result.stats.search_nodes = shared.search_nodes.load();
  result.stats.candidate_total = candidates.TotalSize();
  result.stats.task_stats = task_stats;
  result.stats.wall_seconds = timer.ElapsedSeconds();
  result.matches = std::move(shared.collected);
  if (options.limit != 0 && result.matches.size() > options.limit) {
    result.matches.resize(options.limit);
  }
  return result;
}

bool HasSubgraphMatch(const Graph& data, const Graph& query,
                      const MatchOptions& options) {
  MatchOptions limited = options;
  limited.limit = 1;
  return SubgraphMatch(data, query, limited).stats.matches > 0;
}

}  // namespace gal
