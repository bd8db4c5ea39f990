#include "match/plan.h"

#include <algorithm>
#include <limits>
#include <sstream>

#include "common/logging.h"

namespace gal {
namespace {

/// Chooses the next vertex given the already-ordered set. Shared by the
/// strategies; `score` returns the preference (lower wins).
template <typename ScoreFn>
VertexId PickNext(const Graph& query, const std::vector<uint8_t>& placed,
                  const ScoreFn& score) {
  VertexId best = kInvalidVertex;
  double best_score = std::numeric_limits<double>::infinity();
  for (VertexId u = 0; u < query.NumVertices(); ++u) {
    if (placed[u]) continue;
    // Connectivity: must touch the placed prefix (unless nothing placed).
    bool connected = false;
    for (Graph::NeighborCursor cur = query.OutNeighbors(u); cur.Valid();
         cur.Next()) {
      if (placed[cur.Get()]) {
        connected = true;
        break;
      }
    }
    if (!connected) continue;
    const double s = score(u);
    if (s < best_score) {
      best_score = s;
      best = u;
    }
  }
  return best;
}

}  // namespace

std::string MatchPlan::ToString() const {
  std::ostringstream os;
  os << "order=[";
  for (size_t i = 0; i < order.size(); ++i) {
    os << (i ? "," : "") << order[i];
  }
  os << "] restrictions=" << order_restrictions.size();
  return os.str();
}

MatchPlan BuildPlan(const Graph& query, const CandidateSets& candidates,
                    OrderStrategy strategy, bool use_symmetry_breaking) {
  const VertexId k = query.NumVertices();
  GAL_CHECK(k >= 1);
  GAL_CHECK(candidates.candidates.size() == k);

  MatchPlan plan;
  std::vector<uint8_t> placed(k, 0);

  auto cand_size = [&](VertexId u) {
    return static_cast<double>(candidates.candidates[u].size());
  };
  auto mapped_neighbor_count = [&](VertexId u) {
    uint32_t c = 0;
    query.ForEachOutNeighbor(u, [&](VertexId w) { c += placed[w]; });
    return c;
  };

  // Seed vertex.
  VertexId seed = 0;
  switch (strategy) {
    case OrderStrategy::kById:
      seed = 0;
      break;
    case OrderStrategy::kGreedyCost: {
      for (VertexId u = 1; u < k; ++u) {
        if (cand_size(u) < cand_size(seed)) seed = u;
      }
      break;
    }
    case OrderStrategy::kWorst: {
      for (VertexId u = 1; u < k; ++u) {
        if (cand_size(u) > cand_size(seed)) seed = u;
      }
      break;
    }
  }
  plan.order.push_back(seed);
  placed[seed] = 1;

  while (plan.order.size() < k) {
    VertexId next = kInvalidVertex;
    switch (strategy) {
      case OrderStrategy::kById:
        next = PickNext(query, placed,
                        [](VertexId u) { return static_cast<double>(u); });
        break;
      case OrderStrategy::kGreedyCost:
        next = PickNext(query, placed, [&](VertexId u) {
          // More backward edges first (each is a join predicate that
          // shrinks the local candidate pool), then rarer candidates.
          return -1e9 * mapped_neighbor_count(u) + cand_size(u);
        });
        break;
      case OrderStrategy::kWorst:
        next = PickNext(query, placed, [&](VertexId u) {
          // Fewest predicates, fattest candidate sets: maximal blowup.
          return 1e9 * mapped_neighbor_count(u) - cand_size(u);
        });
        break;
    }
    GAL_CHECK(next != kInvalidVertex)
        << "query pattern must be connected";
    plan.order.push_back(next);
    placed[next] = 1;
  }

  // Backward neighbors per position.
  std::vector<uint32_t> position(k);
  for (uint32_t i = 0; i < k; ++i) position[plan.order[i]] = i;
  plan.backward_neighbors.resize(k);
  plan.backward_nonneighbors.resize(k);
  for (uint32_t i = 0; i < k; ++i) {
    std::vector<uint8_t> adjacent(i, 0);
    query.ForEachOutNeighbor(plan.order[i], [&](VertexId w) {
      if (position[w] < i) {
        plan.backward_neighbors[i].push_back(position[w]);
        adjacent[position[w]] = 1;
      }
    });
    std::sort(plan.backward_neighbors[i].begin(),
              plan.backward_neighbors[i].end());
    for (uint32_t j = 0; j < i; ++j) {
      if (!adjacent[j]) plan.backward_nonneighbors[i].push_back(j);
    }
  }

  if (use_symmetry_breaking) {
    for (const SymmetryRestriction& r : SymmetryBreakingRestrictions(query)) {
      plan.order_restrictions.emplace_back(position[r.smaller],
                                           position[r.larger]);
    }
  }
  return plan;
}

void PlanLocalCandidates(const Graph& data, const MatchPlan& plan,
                         const CandidateSets& candidates,
                         std::span<const VertexId> mapped, uint32_t position,
                         std::vector<VertexId>& out, NeighborScratch& scratch) {
  const std::vector<VertexId>& cand =
      candidates.candidates[plan.order[position]];
  const std::vector<uint32_t>& backward = plan.backward_neighbors[position];
  GAL_CHECK(!backward.empty()) << "position " << position
                               << " has no backward neighbour";
  IntersectInto(cand, data, mapped[backward[0]], out, scratch);
  // The other backward neighbours are probed one candidate at a time.
  std::erase_if(out, [&](VertexId v) {
    for (size_t b = 1; b < backward.size(); ++b) {
      if (!data.HasEdge(mapped[backward[b]], v)) return true;
    }
    return false;
  });
}

bool PlanAdmits(const Graph& data, const MatchPlan& plan,
                std::span<const VertexId> mapped, uint32_t position,
                VertexId v, bool induced) {
  for (uint32_t j = 0; j < position; ++j) {
    if (mapped[j] == v) return false;
  }
  // Restriction (lo, hi) means mapped[lo] < mapped[hi]; it is checked
  // once, at whichever of its two positions is filled later.
  for (const auto& [lo, hi] : plan.order_restrictions) {
    if (std::max(lo, hi) != position) continue;
    const VertexId earlier = mapped[std::min(lo, hi)];
    if (hi == position ? !(earlier < v) : !(v < earlier)) return false;
  }
  if (induced) {
    for (uint32_t j : plan.backward_nonneighbors[position]) {
      if (data.HasEdge(mapped[j], v)) return false;
    }
  }
  return true;
}

}  // namespace gal
