#include "tlav/algos/traversal.h"

#include <algorithm>

#include "frontier/traversal.h"
#include "graph/components.h"
#include "tlav/algos/wcc.h"

namespace gal {
namespace {

Status ValidateSource(const Graph& g, VertexId source) {
  if (source >= g.NumVertices()) {
    return Status::InvalidArgument(
        "traversal source " + std::to_string(source) +
        " out of range for |V|=" + std::to_string(g.NumVertices()));
  }
  return Status::Ok();
}

/// The frontier-substrate options a traversal configured with `options`
/// runs under.
FrontierEngineOptions ToFrontierOptions(const TraversalOptions& options) {
  FrontierEngineOptions frontier;
  frontier.direction = options.direction;
  frontier.cluster = options.engine.cluster;
  frontier.num_workers = options.engine.num_workers;
  frontier.message_overhead_bytes = options.engine.message_overhead_bytes;
  frontier.max_steps = options.engine.max_supersteps;
  frontier.faults = options.engine.faults;
  return frontier;
}

/// Folds frontier run totals into the TlavStats shape, fault accounting
/// included. `payload_bytes` is sizeof the logical message; total bytes
/// add `message_overhead_bytes` per message.
TlavStats ToTlavStats(const FrontierTraversalStats& fs, uint64_t payload_bytes,
                      uint32_t message_overhead_bytes) {
  TlavStats stats;
  stats.supersteps = fs.steps;
  stats.total_messages = fs.messages;
  stats.cross_worker_messages = fs.wire_messages;
  stats.total_message_bytes =
      fs.messages * (payload_bytes + message_overhead_bytes);
  stats.cross_worker_bytes = fs.wire_bytes;
  stats.vertex_activations = fs.vertex_activations;
  stats.edge_scans = fs.edges_scanned;
  stats.wall_seconds = fs.wall_seconds;
  stats.modeled_seconds = fs.modeled_seconds;
  stats.pull_supersteps = fs.pull_steps;
  stats.direction_switches = fs.direction_switches;
  stats.SetFaultStats(fs.faults);
  stats.per_step.reserve(fs.per_step.size());
  for (const FrontierStep& s : fs.per_step) {
    stats.per_step.push_back({s.active_vertices, s.messages});
  }
  return stats;
}

}  // namespace

uint32_t SyntheticEdgeWeight(VertexId u, VertexId v) {
  if (u > v) std::swap(u, v);
  uint64_t x = (static_cast<uint64_t>(u) << 32) | v;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
  x ^= x >> 31;
  return static_cast<uint32_t>(x % 16) + 1;
}

// Callers address vertices in original-id space; the substrate runs in
// the (possibly reordered) internal layout, so the wrappers translate
// the source on the way in and permute per-vertex results back out.

BfsResult TlavBfs(const Graph& g, VertexId source,
                  const TraversalOptions& options) {
  BfsResult result;
  result.status = ValidateSource(g, source);
  if (!result.status.ok()) return result;
  FrontierBfsResult fr = FrontierBfs(g, g.InternalId(source),
                                     ToFrontierOptions(options));
  result.distance = g.MapToOriginal(std::move(fr.distance));
  result.stats = ToTlavStats(fr.stats, sizeof(uint32_t),
                                       options.engine.message_overhead_bytes);
  result.status = std::move(fr.status);
  return result;
}

BfsResult TlavBfs(const Graph& g, VertexId source, const TlavConfig& config) {
  TraversalOptions options;
  options.engine = config;
  return TlavBfs(g, source, options);
}

SsspResult TlavSssp(const Graph& g, VertexId source,
                    const TraversalOptions& options) {
  SsspResult result;
  result.status = ValidateSource(g, source);
  if (!result.status.ok()) return result;
  FrontierSsspResult fr =
      FrontierSssp(g, g.InternalId(source), &SyntheticEdgeWeight,
                   ToFrontierOptions(options));
  result.distance = g.MapToOriginal(std::move(fr.distance));
  result.stats = ToTlavStats(fr.stats, sizeof(uint64_t),
                                       options.engine.message_overhead_bytes);
  result.status = std::move(fr.status);
  return result;
}

SsspResult TlavSssp(const Graph& g, VertexId source, const TlavConfig& config) {
  TraversalOptions options;
  options.engine = config;
  return TlavSssp(g, source, options);
}

WccResult Wcc(const Graph& g, const WccOptions& options) {
  FrontierWccResult fr = FrontierWcc(g, ToFrontierOptions(options));
  WccResult result;
  result.component = CanonicalizeComponents(g, std::move(fr.component));
  result.num_components = fr.num_components;
  result.stats = ToTlavStats(fr.stats, sizeof(VertexId),
                             options.engine.message_overhead_bytes);
  return result;
}

WccResult Wcc(const Graph& g, const TlavConfig& config) {
  WccOptions options;
  options.engine = config;
  return Wcc(g, options);
}

}  // namespace gal
