#ifndef GAL_GRAPH_COMPONENTS_H_
#define GAL_GRAPH_COMPONENTS_H_

#include <cstdint>
#include <vector>

#include "graph/graph.h"

namespace gal {

/// Labels computed in a graph's internal (possibly reordered) id space
/// are each component's min *internal* id, which depends on the layout.
/// Relabels them to the min *original* id, in original-id order, so
/// reordered runs are bit-identical to unordered ones: one ascending
/// pass over original ids — the first original id to reach a component
/// root is, by construction, that component's minimum. `G` is any graph
/// carrying a reorder permutation (Graph, ShardedGraph).
template <typename G>
std::vector<VertexId> CanonicalizeComponents(const G& g,
                                             std::vector<VertexId> internal) {
  if (!g.IsReordered()) return internal;
  const VertexId n = g.NumVertices();
  std::vector<VertexId> mapped(n);
  std::vector<VertexId> root_label(n, kInvalidVertex);
  for (VertexId v = 0; v < n; ++v) {
    const VertexId root = internal[g.InternalId(v)];
    if (root_label[root] == kInvalidVertex) root_label[root] = v;
    mapped[v] = root_label[root];
  }
  return mapped;
}

/// Number of distinct labels in `component`, whose labels are vertex
/// ids (each < component.size()).
inline uint32_t CountComponents(const std::vector<VertexId>& component) {
  std::vector<uint8_t> seen(component.size(), 0);
  uint32_t components = 0;
  for (VertexId label : component) {
    if (!seen[label]) {
      seen[label] = 1;
      ++components;
    }
  }
  return components;
}

}  // namespace gal

#endif  // GAL_GRAPH_COMPONENTS_H_
