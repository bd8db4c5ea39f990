#ifndef GAL_MATCH_PLAN_H_
#define GAL_MATCH_PLAN_H_

#include <span>
#include <string>
#include <vector>

#include "graph/graph.h"
#include "graph/intersect.h"
#include "match/candidates.h"
#include "match/pattern.h"

namespace gal {

/// How the matching order is chosen — the design axis AutoMine, GraphPi
/// and GraphZero optimize with compilation. The executors take a plan,
/// so orders can be compared under an identical enumeration kernel.
enum class OrderStrategy : uint8_t {
  /// Query-vertex id order, made connectivity-valid (naive baseline).
  kById,
  /// Greedy cost-based: start at the rarest candidate set, then always
  /// pick the connected vertex with the most mapped neighbors (maximum
  /// pruning), tie-broken by the smallest candidate set.
  kGreedyCost,
  /// Deliberate pessimization (largest candidate sets first) — the
  /// "wrong order" the compilation papers show can cost orders of
  /// magnitude.
  kWorst,
};

/// An executable matching plan.
struct MatchPlan {
  /// Query vertices in matching order.
  std::vector<VertexId> order;
  /// backward_neighbors[i] = positions j < i whose query vertex is
  /// adjacent to order[i] (the join predicates at step i).
  std::vector<std::vector<uint32_t>> backward_neighbors;
  /// backward_nonneighbors[i] = positions j < i whose query vertex is
  /// NOT adjacent to order[i]; induced matching forbids data edges
  /// between their images.
  std::vector<std::vector<uint32_t>> backward_nonneighbors;
  /// Symmetry restrictions re-expressed in order positions:
  /// restriction (i, j) means mapped[i] < mapped[j] with i, j positions.
  std::vector<std::pair<uint32_t, uint32_t>> order_restrictions;

  std::string ToString() const;
};

/// Builds a plan over the query. Every non-first vertex has at least one
/// backward neighbor (connected patterns only). When
/// `use_symmetry_breaking` is set, SymmetryBreakingRestrictions(query)
/// are folded in so each distinct embedding is produced once.
MatchPlan BuildPlan(const Graph& query, const CandidateSets& candidates,
                    OrderStrategy strategy, bool use_symmetry_breaking);

// --- the extension step -----------------------------------------------------
//
// Every plan-driven matcher (the DFS executor, the BFS join, MNI's
// existence checks) grows a partial match one plan position at a time
// with the same two calls: PlanLocalCandidates yields the vertices that
// join every backward neighbour, and PlanAdmits validates one of them.
// `mapped[j]` is the data vertex at plan position j for j < position.

/// Replaces `out` with the local candidates of plan position `position`:
/// C(order[position]) ∩ N(mapped[backward[0]]) through the adaptive
/// intersection, minus members lacking an edge to the image of any other
/// backward neighbour. Ascending, so callers visit candidates in one
/// deterministic order. `position` must be > 0: the roots are C(order[0])
/// itself. `scratch` is not read after the call returns, so a recursive
/// caller needs one `out` per depth but only one `scratch`.
void PlanLocalCandidates(const Graph& data, const MatchPlan& plan,
                         const CandidateSets& candidates,
                         std::span<const VertexId> mapped, uint32_t position,
                         std::vector<VertexId>& out, NeighborScratch& scratch);

/// True iff data vertex `v` may take plan position `position`: it is not
/// already mapped (injectivity), it satisfies the plan's symmetry
/// restrictions ending at `position`, and, when `induced`, it has no
/// edge to the image of any backward non-neighbour.
bool PlanAdmits(const Graph& data, const MatchPlan& plan,
                std::span<const VertexId> mapped, uint32_t position,
                VertexId v, bool induced);

}  // namespace gal

#endif  // GAL_MATCH_PLAN_H_
