#include "fsm/mni.h"

#include <algorithm>
#include <atomic>
#include <deque>

#include "common/logging.h"
#include "common/threadpool.h"
#include "match/candidates.h"
#include "match/plan.h"

namespace gal {
namespace {

/// A matching order rooted at a chosen pattern vertex: BFS from it, so
/// every later vertex joins the mapped prefix. MNI needs neither
/// symmetry restrictions nor induced probes, so only the order and the
/// backward neighbours are filled in.
MatchPlan BuildRootedPlan(const Graph& pattern, VertexId root) {
  MatchPlan plan;
  const VertexId k = pattern.NumVertices();
  std::vector<uint8_t> placed(k, 0);
  std::deque<VertexId> queue{root};
  placed[root] = 1;
  while (!queue.empty()) {
    const VertexId u = queue.front();
    queue.pop_front();
    plan.order.push_back(u);
    pattern.ForEachOutNeighbor(u, [&](VertexId w) {
      if (!placed[w]) {
        placed[w] = 1;
        queue.push_back(w);
      }
    });
  }
  GAL_CHECK(plan.order.size() == k) << "FSM patterns must be connected";
  std::vector<uint32_t> position(k);
  for (uint32_t i = 0; i < k; ++i) position[plan.order[i]] = i;
  plan.backward_neighbors.resize(k);
  plan.backward_nonneighbors.resize(k);
  for (uint32_t i = 0; i < k; ++i) {
    pattern.ForEachOutNeighbor(plan.order[i], [&](VertexId w) {
      if (position[w] < i) plan.backward_neighbors[i].push_back(position[w]);
    });
  }
  return plan;
}

/// Per-thread search state: the partial mapping, one local-candidate
/// buffer per depth (each is looped over across the recursion) and one
/// decode scratch (consumed inside PlanLocalCandidates).
struct ExistsState {
  std::vector<VertexId> mapped;
  std::vector<std::vector<VertexId>> joined_at;
  NeighborScratch scratch;
};

/// True iff a match exists extending `state.mapped` (positions
/// [0, depth)).
bool ExistsMatch(const Graph& data, const MatchPlan& plan,
                 const CandidateSets& candidates, ExistsState& state,
                 uint32_t depth) {
  if (depth == plan.order.size()) return true;
  std::vector<VertexId>& joined = state.joined_at[depth];
  PlanLocalCandidates(data, plan, candidates, state.mapped, depth, joined,
                      state.scratch);
  for (VertexId v : joined) {
    if (!PlanAdmits(data, plan, state.mapped, depth, v, /*induced=*/false)) {
      continue;
    }
    state.mapped[depth] = v;
    if (ExistsMatch(data, plan, candidates, state, depth + 1)) return true;
  }
  return false;
}

}  // namespace

MniResult MniSupport(const Graph& data, const Graph& pattern,
                     const MniOptions& options) {
  const VertexId k = pattern.NumVertices();
  GAL_CHECK(k >= 1);
  MniResult result;
  result.images.assign(k, 0);

  const CandidateSets candidates = NlfFilter(data, pattern);
  ThreadPool pool(options.num_threads);
  std::atomic<uint64_t> checks{0};

  uint32_t support = data.NumVertices();
  for (VertexId u = 0; u < k; ++u) {
    const MatchPlan plan = BuildRootedPlan(pattern, u);
    const std::vector<VertexId>& cand = candidates.candidates[u];
    std::atomic<uint32_t> images{0};
    std::atomic<uint32_t> processed{0};
    std::atomic<bool> stop{false};

    pool.ParallelForShards(cand.size(), [&](size_t begin, size_t end) {
      ExistsState state;
      state.mapped.assign(k, kInvalidVertex);
      state.joined_at.resize(k);
      for (size_t i = begin; i < end; ++i) {
        if (stop.load(std::memory_order_relaxed)) break;
        checks.fetch_add(1, std::memory_order_relaxed);
        state.mapped[0] = cand[i];
        if (ExistsMatch(data, plan, candidates, state, 1)) {
          images.fetch_add(1, std::memory_order_relaxed);
        }
        const uint32_t done =
            processed.fetch_add(1, std::memory_order_relaxed) + 1;
        if (options.threshold != 0) {
          const uint32_t found = images.load(std::memory_order_relaxed);
          // Decided frequent for this vertex, or hopeless.
          if (found >= options.threshold ||
              found + (cand.size() - done) < options.threshold) {
            stop.store(true, std::memory_order_relaxed);
          }
        }
      }
    });

    result.images[u] = images.load();
    support = std::min(support, result.images[u]);
    if (options.threshold != 0 && result.images[u] < options.threshold) {
      // Early-out: the pattern is already infrequent.
      support = result.images[u];
      break;
    }
  }
  result.support = support;
  result.existence_checks = checks.load();
  return result;
}

}  // namespace gal
