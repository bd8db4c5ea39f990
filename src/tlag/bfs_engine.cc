#include "tlag/bfs_engine.h"

#include <algorithm>

#include "frontier/frontier.h"

namespace gal {
namespace {

uint64_t EmbeddingBytes(size_t embedding_size) {
  // Vertex ids plus vector bookkeeping, the dominant cost a real system
  // pays per materialized instance.
  return embedding_size * sizeof(VertexId) + sizeof(Embedding);
}

}  // namespace

BfsEngineStats BfsExtensionEngine::Run(const std::vector<VertexId>& roots,
                                       uint32_t target_size,
                                       const ExtendFn& extend,
                                       const OutputFn& output) {
  BfsEngineStats stats;
  // The level loop rides the shared frontier substrate's sliding queue:
  // the current window is the level being consumed, pushes land in the
  // next window, and Slide() retires consumed embeddings so the buffer
  // tracks the two live levels, not the whole run.
  SlidingQueue<Embedding> levels;
  levels.Reserve(roots.size());
  for (VertexId r : roots) levels.Push({r});
  levels.Slide();
  stats.embeddings_generated += levels.WindowSize();

  uint64_t current_bytes = levels.WindowSize() * EmbeddingBytes(1);
  stats.peak_materialized = levels.WindowSize();
  stats.peak_bytes = current_bytes;
  if (target_size == 1) {
    // The roots already have the target size.
    for (size_t i = 0; i < levels.WindowSize(); ++i) output(levels.At(i));
    return stats;
  }

  std::vector<VertexId> candidates;
  for (uint32_t size = 1; size < target_size; ++size) {
    uint64_t next_bytes = 0;  // resident (in-budget) bytes only
    const size_t level_count = levels.WindowSize();
    // Chunked expansion: only chunk_size source embeddings are consumed
    // before their extensions are appended, mirroring G2-AIMD's
    // adaptive chunking (keeps the *working set* bounded even though
    // the output level itself may still explode).
    for (size_t begin = 0; begin < level_count;
         begin += config_.chunk_size) {
      const size_t end =
          std::min(level_count, begin + config_.chunk_size);
      for (size_t i = begin; i < end; ++i) {
        candidates.clear();
        extend(levels.At(i), candidates);
        for (VertexId c : candidates) {
          // Materialization accounting happens *before* policy checks so
          // every policy sees the same demand curve. Re-index the source
          // embedding per candidate: Push may reallocate the queue.
          const uint64_t bytes = EmbeddingBytes(levels.At(i).size() + 1);
          const uint64_t live = current_bytes + next_bytes + bytes;
          ++stats.embeddings_generated;
          bool resident = true;
          if (config_.memory_budget_bytes != 0 &&
              live > config_.memory_budget_bytes) {
            switch (config_.policy) {
              case MemoryPolicy::kStrict:
                stats.budget_exceeded = true;
                return stats;
              case MemoryPolicy::kSpill:
                // Spilled copies still join the next level, but they
                // live in host memory: their bytes are overflow, not
                // residency (charging both double-counted the spill and
                // let peak_bytes sail past the budget).
                stats.spilled_bytes += bytes;
                resident = false;
                break;
              case MemoryPolicy::kHybridDfs: {
                Embedding extended = levels.At(i);
                extended.push_back(c);
                DfsComplete(extended, target_size, extend, output, stats);
                continue;  // finished depth-first; not materialized
              }
            }
          }
          Embedding extended = levels.At(i);
          extended.push_back(c);
          if (extended.size() == target_size) {
            // Output embeddings are handed over, not retained.
            output(extended);
          } else {
            if (resident) next_bytes += bytes;
            levels.Push(std::move(extended));
          }
        }
      }
    }
    stats.peak_materialized =
        std::max(stats.peak_materialized,
                 static_cast<uint64_t>(level_count + levels.PendingSize()));
    stats.peak_bytes = std::max(stats.peak_bytes, current_bytes + next_bytes);
    levels.Slide();
    current_bytes = next_bytes;
    if (levels.WindowEmpty()) break;
  }
  return stats;
}

void BfsExtensionEngine::DfsComplete(Embedding& e, uint32_t target_size,
                                     const ExtendFn& extend,
                                     const OutputFn& output,
                                     BfsEngineStats& stats) {
  if (e.size() == target_size) {
    ++stats.dfs_fallback_embeddings;
    output(e);
    return;
  }
  std::vector<VertexId> candidates;
  extend(e, candidates);
  for (VertexId c : candidates) {
    ++stats.embeddings_generated;
    e.push_back(c);
    DfsComplete(e, target_size, extend, output, stats);
    e.pop_back();
  }
}

}  // namespace gal
