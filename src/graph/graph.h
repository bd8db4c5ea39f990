#ifndef GAL_GRAPH_GRAPH_H_
#define GAL_GRAPH_GRAPH_H_

#include <cstdint>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "common/logging.h"
#include "common/status.h"
#include "graph/compressed_csr.h"

namespace gal {

/// Vertex identifier. 32 bits covers every graph this framework targets
/// (laptop-scale simulation of the paper's workloads) at half the memory
/// of 64-bit ids, which matters for CSR adjacency arrays.
using VertexId = uint32_t;
using EdgeId = uint64_t;
using Label = uint32_t;

inline constexpr VertexId kInvalidVertex = static_cast<VertexId>(-1);

/// An edge as loaded from input, before CSR construction.
struct Edge {
  VertexId src;
  VertexId dst;

  friend bool operator==(const Edge& a, const Edge& b) {
    return a.src == b.src && a.dst == b.dst;
  }
  friend bool operator<(const Edge& a, const Edge& b) {
    return a.src != b.src ? a.src < b.src : a.dst < b.dst;
  }
};

/// Build-time vertex-reordering policy (layout-as-policy): the CSR is
/// stored under a permutation of the input ids chosen so hot adjacency
/// scans hit cache. The permutation and its inverse live on the graph,
/// and the analytics entry points (BFS/SSSP/WCC/PageRank, triangle and
/// clique/k-truss outputs) map their results back to the original ids,
/// so a reordered run is bit-identical to an unordered one.
enum class ReorderMode : uint8_t {
  kNone,
  /// Vertices sorted by descending degree (ties by original id): the
  /// high-degree hubs every power-law scan keeps revisiting become
  /// id-contiguous, so their offsets/targets rows share cache lines.
  kDegreeDesc,
  /// Hubs first (degree-desc), then each remaining vertex placed next
  /// to the hub it attaches to most strongly — a cheap clustering that
  /// keeps a hub's fringe in the same cache window as the hub itself.
  kHubCluster,
};

/// Build-time adjacency-compression policy, the third layout knob next
/// to ReorderMode and runtime SIMD. Like those, it is pure policy: every
/// algorithm produces bit-identical results in original-id space whether
/// the adjacency is raw or compressed.
enum class CompressionMode : uint8_t {
  kNone,
  /// Each (sorted, reorder-permuted) adjacency list is stored as a
  /// first-target + delta-varint byte block (see compressed_csr.h). The
  /// raw `targets_` array is dropped; traversals stream-decode the
  /// blocks, trading decode cycles for memory bandwidth.
  kDeltaVarint,
};

/// Options controlling CSR construction.
struct GraphOptions {
  /// If false (default), every input edge {u,v} is stored in both
  /// adjacency lists and NumEdges() counts each undirected edge once.
  bool directed = false;
  /// Drop u->u edges (subgraph algorithms assume simple graphs).
  bool remove_self_loops = true;
  /// Collapse duplicate edges.
  bool dedup = true;
  /// Cache-aware vertex reordering applied at build time (see
  /// ReorderMode). Input edges and SetLabels stay in original-id space;
  /// only the internal CSR layout changes.
  ReorderMode reorder = ReorderMode::kNone;
  /// Adjacency compression applied at build time (see CompressionMode).
  /// The `GAL_GRAPH_COMPRESSION` environment variable, when set,
  /// overrides this for every FromEdges call: "1"/"delta-varint" forces
  /// kDeltaVarint, "0"/"none" forces kNone.
  CompressionMode compression = CompressionMode::kNone;
};

/// Resolves the effective compression mode: the `GAL_GRAPH_COMPRESSION`
/// env override if set (consulted at every FromEdges call, like
/// GAL_SIMD's kill switch), else `requested`.
CompressionMode ResolveCompressionMode(CompressionMode requested);

/// An immutable graph in Compressed Sparse Row form with sorted adjacency
/// lists, the shared substrate for every engine in the framework:
///   - sorted neighbor arrays give O(log d) HasEdge and linear-time
///     neighborhood intersection (triangles, cliques, matching);
///   - the offsets/targets layout is what the TLAV engine shards across
///     simulated workers;
///   - optional vertex labels support labeled matching, FSM, and GNN
///     classification targets.
///
/// For a directed graph, adjacency lists hold out-neighbors; call
/// Reversed() to obtain the in-neighbor view.
class Graph {
 public:
  /// Builds a CSR graph from an edge list. Vertices are [0, num_vertices).
  /// Fails if any endpoint is out of range.
  static Result<Graph> FromEdges(VertexId num_vertices,
                                 std::vector<Edge> edges,
                                 const GraphOptions& options = {});

  Graph() = default;
  Graph(const Graph&) = default;
  Graph& operator=(const Graph&) = default;
  Graph(Graph&&) = default;
  Graph& operator=(Graph&&) = default;

  VertexId NumVertices() const { return num_vertices_; }

  /// Number of logical edges: undirected edges are counted once even
  /// though they occupy two adjacency slots.
  EdgeId NumEdges() const { return num_edges_; }

  /// Total adjacency entries (2|E| for undirected graphs).
  EdgeId NumAdjacencyEntries() const {
    return num_vertices_ == 0 ? 0 : offsets_[num_vertices_];
  }

  bool directed() const { return directed_; }

  /// True when the adjacency is stored delta-varint compressed and the
  /// raw targets array is absent (see CompressionMode::kDeltaVarint).
  bool IsCompressed() const { return compressed_ != nullptr; }
  CompressionMode compression_mode() const { return compression_mode_; }

  /// Out-neighbors of v, sorted ascending. Only valid on uncompressed
  /// graphs — there is no contiguous array to span when the adjacency is
  /// a varint stream. Compression-oblivious code wants ForEachOutNeighbor
  /// (streaming), OutNeighbors (cursor), or NeighborsInto (decode into
  /// caller scratch; zero-copy when raw).
  std::span<const VertexId> Neighbors(VertexId v) const {
    GAL_CHECK(compressed_ == nullptr)
        << "Neighbors() on a compressed graph; use ForEachOutNeighbor / "
           "OutNeighbors / NeighborsInto";
    return {targets_.data() + offsets_[v],
            targets_.data() + offsets_[v + 1]};
  }

  /// Zero-allocation forward cursor over v's sorted out-neighbors,
  /// uniform across raw and compressed layouts. Supports the early-exit
  /// loops (BFS pull's break-on-first-hit, HasEdge probes) that a
  /// ForEachOutNeighbor callback can't express cheaply.
  class NeighborCursor {
   public:
    bool Valid() const { return remaining_ != 0; }
    VertexId Get() const { return current_; }
    void Next() {
      if (--remaining_ == 0) return;
      if (raw_ != nullptr) {
        current_ = *++raw_;
      } else {
        current_ += ReadVarint(stream_) + bias_;
      }
    }

   private:
    friend class Graph;
    const VertexId* raw_ = nullptr;    // raw layout: next element
    const uint8_t* stream_ = nullptr;  // compressed: next varint
    uint32_t remaining_ = 0;
    VertexId current_ = 0;
    uint32_t bias_ = 0;
  };

  NeighborCursor OutNeighbors(VertexId v) const {
    NeighborCursor c;
    c.remaining_ = Degree(v);
    if (c.remaining_ == 0) return c;
    if (compressed_ != nullptr) {
      c.stream_ = compressed_->bytes.data() + compressed_->row_offsets[v];
      c.bias_ = compressed_->delta_bias;
      c.current_ = ReadVarint(c.stream_);
    } else {
      c.raw_ = targets_.data() + offsets_[v];
      c.current_ = *c.raw_;
    }
    return c;
  }

  /// Streams v's sorted out-neighbors through `fn(VertexId)` without
  /// allocating, decoding in-register when compressed. The hot-loop
  /// replacement for `for (VertexId u : g.Neighbors(v))`.
  template <typename Fn>
  void ForEachOutNeighbor(VertexId v, Fn&& fn) const {
    if (compressed_ == nullptr) {
      const VertexId* p = targets_.data() + offsets_[v];
      const VertexId* end = targets_.data() + offsets_[v + 1];
      for (; p != end; ++p) fn(*p);
      return;
    }
    // Bounded by degree, not by bytes (unlike PinnedShard's byte-bounded
    // row loop): the exit test then depends only on a counter, so the
    // branch never waits on the serial varint decode chain. Sharing one
    // byte-bounded decoder with PinnedShard slowed the DFS matcher by
    // about 25% (perfbench mining match_s 0.73-0.94 s -> 1.04-1.17 s).
    const uint32_t degree = Degree(v);
    if (degree == 0) return;
    const uint8_t* p = compressed_->bytes.data() + compressed_->row_offsets[v];
    const uint32_t bias = compressed_->delta_bias;
    VertexId current = ReadVarint(p);
    fn(current);
    for (uint32_t i = 1; i < degree; ++i) {
      current += ReadVarint(p) + bias;
      fn(current);
    }
  }

  /// v's sorted out-neighbors as a random-access span. Raw layout:
  /// returns the CSR row directly (scratch untouched, zero cost).
  /// Compressed: decodes into `scratch` (resized to the degree) and
  /// returns a span over it — the span is invalidated by the next
  /// NeighborsInto call on the same scratch, so intersection-style code
  /// holding two rows needs two scratch vectors (see
  /// graph/intersect.h's NeighborScratch).
  std::span<const VertexId> NeighborsInto(VertexId v,
                                          std::vector<VertexId>& scratch) const;

  /// Out-degree of v.
  uint32_t Degree(VertexId v) const {
    return static_cast<uint32_t>(offsets_[v + 1] - offsets_[v]);
  }

  /// True iff edge u->v exists (binary search over sorted adjacency).
  bool HasEdge(VertexId u, VertexId v) const;

  uint32_t MaxDegree() const;

  /// Vertex labels; empty if the graph is unlabeled.
  const std::vector<Label>& labels() const { return labels_; }
  bool IsLabeled() const { return !labels_.empty(); }
  Label LabelOf(VertexId v) const { return labels_.empty() ? 0 : labels_[v]; }

  /// Attaches per-vertex labels. Fails unless labels.size()==NumVertices().
  Status SetLabels(std::vector<Label> labels);

  /// The graph with every edge direction flipped. For undirected graphs
  /// this is a copy. Labels are preserved.
  Graph Reversed() const;

  /// In-neighbor view, built lazily on first use and cached (shared by
  /// copies of this graph — views are immutable). For undirected graphs
  /// returns *this. The cache is what lets direction-optimizing pull
  /// steps gather over in-edges without paying a rebuild per run.
  /// Thread-safe.
  const Graph& ReversedView() const;

  /// Symmetrized view: u and v are neighbors iff u->v or v->u exists —
  /// the adjacency weak-connectivity algorithms propagate over. Returns
  /// *this for undirected graphs; lazily built and cached otherwise.
  /// Thread-safe.
  const Graph& UndirectedView() const;

  /// Subgraph induced by `vertices`, given in ORIGINAL id space like
  /// every other public entry point (need not be sorted; duplicates are
  /// an error). Vertex i of the result corresponds to vertices[i].
  /// Labels are carried over; the compression mode is inherited.
  ///
  /// Contract: the result is a fresh id space — the parent's reorder
  /// permutation is deliberately NOT carried through (and the result is
  /// asserted unreordered). Callers needing parent ids keep their own
  /// `vertices` array as the mapping.
  Result<Graph> InducedSubgraph(std::span<const VertexId> vertices) const;

  /// Raw CSR arrays, exposed for engines that shard the graph.
  /// `targets()` is empty when IsCompressed() — sharding code that walks
  /// rows should go through ForEachOutNeighbor/NeighborsInto instead.
  const std::vector<EdgeId>& offsets() const { return offsets_; }
  const std::vector<VertexId>& targets() const { return targets_; }

  // --- cache-aware vertex reordering (GraphOptions::reorder) ---------------
  //
  // When built with a ReorderMode other than kNone, the CSR arrays are
  // stored under a permutation: vertex `v` of this graph is "internal"
  // id space; OriginalId/InternalId translate to and from the caller's
  // id space. Per-vertex algorithm results are produced in internal
  // space and mapped back via MapToOriginal by the analytics wrappers.
  // Derived views (Reversed/UndirectedView) share the same internal id
  // space and carry the mapping; InducedSubgraph does not (its result
  // is a fresh id space).

  bool IsReordered() const { return to_original_ != nullptr; }
  ReorderMode reorder_mode() const { return reorder_mode_; }

  /// Original id of internal vertex `v` (identity when not reordered).
  VertexId OriginalId(VertexId v) const {
    return to_original_ == nullptr ? v : (*to_original_)[v];
  }
  /// Internal id of original vertex `v` (identity when not reordered).
  VertexId InternalId(VertexId v) const {
    return to_internal_ == nullptr ? v : (*to_internal_)[v];
  }

  /// Permutes a per-internal-vertex array into original-id indexing:
  /// out[OriginalId(v)] = per_vertex[v]. Identity when not reordered.
  template <typename T>
  std::vector<T> MapToOriginal(std::vector<T> per_vertex) const {
    if (to_original_ == nullptr) return per_vertex;
    std::vector<T> out(per_vertex.size());
    for (size_t v = 0; v < per_vertex.size(); ++v) {
      out[(*to_original_)[v]] = std::move(per_vertex[v]);
    }
    return out;
  }

  /// All logical edges, materialized (src < dst for undirected graphs).
  std::vector<Edge> CollectEdges() const;

  /// Bytes used by the CSR arrays and labels.
  size_t MemoryBytes() const;

  /// Bytes of the adjacency payload alone: the raw targets array, or the
  /// varint byte stream when compressed (offsets are excluded — both
  /// layouts carry one per-vertex offset array). Numerator of the
  /// bytes/edge metric the benches report.
  size_t AdjacencyBytes() const {
    return compressed_ != nullptr
               ? compressed_->bytes.size()
               : targets_.size() * sizeof(VertexId);
  }

  /// "Graph(|V|=..., |E|=..., directed=...)".
  std::string ToString() const;

 private:
  /// Lazily built derived views, shared across copies of the graph (the
  /// views are immutable, so sharing is safe and keeps copies cheap).
  struct ViewCache {
    std::mutex mu;
    std::shared_ptr<const Graph> reversed;
    std::shared_ptr<const Graph> undirected;
  };

  VertexId num_vertices_ = 0;
  EdgeId num_edges_ = 0;
  bool directed_ = false;
  std::vector<EdgeId> offsets_;    // size num_vertices_ + 1
  std::vector<VertexId> targets_;  // sorted per-vertex
  std::vector<Label> labels_;      // empty or size num_vertices_
  /// Reordering maps, shared (immutable) with derived views and copies.
  /// to_original_[internal] = original; to_internal_[original] = internal.
  ReorderMode reorder_mode_ = ReorderMode::kNone;
  std::shared_ptr<const std::vector<VertexId>> to_original_;
  std::shared_ptr<const std::vector<VertexId>> to_internal_;
  /// Delta-varint adjacency blocks (CompressionMode::kDeltaVarint);
  /// when set, targets_ is empty and offsets_ still carries degrees.
  /// Shared (immutable) with copies, like the reorder maps.
  CompressionMode compression_mode_ = CompressionMode::kNone;
  std::shared_ptr<const CompressedCsr> compressed_;
  std::shared_ptr<ViewCache> views_ = std::make_shared<ViewCache>();
};

}  // namespace gal

#endif  // GAL_GRAPH_GRAPH_H_
