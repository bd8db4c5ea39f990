#ifndef GAL_TLAV_ALGOS_PAGERANK_H_
#define GAL_TLAV_ALGOS_PAGERANK_H_

#include <cmath>
#include <cstdint>
#include <vector>

#include "graph/graph.h"
#include "tlav/engine.h"

namespace gal {

/// Rank contributions travel as fixed-point integers (2^-50 resolution).
/// Floating-point summation is order-sensitive, and both vertex
/// reordering and worker/thread splits change the order messages fold in
/// — integer addition is associative and commutative, so the reduction
/// is exact and the final ranks are bit-identical across layouts,
/// worker counts, and delivery orders. Total rank mass is ~1, so the
/// fixed-point sum stays far below 2^63 (and below 2^53 when mirrored
/// into the double-typed dangling aggregator, keeping that sum exact
/// too). Quantization error is ~2^-51 per edge, orders of magnitude
/// under the tolerance any consumer of PageRank uses. Every PageRank
/// kernel (the TLAV program, OocPageRank) uses these two conversions, so
/// their ranks agree bit for bit.
inline constexpr double kFixedScale = static_cast<double>(1ull << 50);

inline uint64_t ToFixed(double x) {
  return static_cast<uint64_t>(std::llround(x * kFixedScale));
}

inline double FromFixed(uint64_t fixed) {
  return static_cast<double>(fixed) / kFixedScale;
}

/// PageRank on the TLAV engine — the survey's canonical "vertex
/// analytics" workload (Figure 1 path 1). Dangling mass is redistributed
/// through an aggregator, exercising Pregel's aggregator mechanism.
struct PageRankOptions {
  uint32_t iterations = 20;
  double damping = 0.85;
  TlavConfig engine;
};

struct PageRankResult {
  std::vector<double> ranks;  // sums to ~1
  TlavStats stats;
};

PageRankResult PageRank(const Graph& g, const PageRankOptions& options = {});

}  // namespace gal

#endif  // GAL_TLAV_ALGOS_PAGERANK_H_
