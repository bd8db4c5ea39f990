#ifndef GAL_CLUSTER_EXCHANGE_H_
#define GAL_CLUSTER_EXCHANGE_H_

#include <algorithm>
#include <cstdint>
#include <functional>
#include <utility>
#include <vector>

#include "cluster/cluster.h"
#include "common/logging.h"
#include "common/threadpool.h"
#include "graph/graph.h"

namespace gal {

/// Typed bulk-synchronous message exchange over a ClusterRuntime: the
/// communication step of one BSP superstep. Producers buffer messages
/// per (source worker, destination worker) lane during the compute
/// phase; Flush() charges the wire traffic to the runtime's
/// TrafficLedger and hands every message to the caller's deliver
/// callback.
///
/// Ordering contract: within one destination worker, messages are
/// delivered in ascending source-worker order, and within one
/// (src, dst) lane in send order (seq) — with a combiner, in the order
/// of each slot's first send. That order depends only on the send
/// sequence — not on how many host threads executed the compute phase —
/// so engine results and stats stay bit-identical at any thread count.
///
/// Thread safety: Send/AddMirrorWire/NoteMirroredDelivery touch only the
/// source worker's buffers, so the usual BSP discipline (each simulated
/// worker driven by one host thread at a time) needs no locks. Flush
/// delivers destination workers in parallel on the caller's pool;
/// distinct destinations never share a lane or a slot.
///
/// Combining (Pregel's optimization): with a combiner installed, Send
/// folds the message in place into a dense slot per (source worker,
/// destination vertex) — W×|V| slots while the combiner is installed,
/// grown to cover the largest destination id — and Flush delivers one
/// message per touched slot. The wire cost counts slots that a
/// non-mirrored send touched, not sends. Mirrored sends (Pregel+ hub
/// broadcasts) ride the per-worker mirror message accounted via
/// AddMirrorWire, so they do not add per-vertex wire cost. Between two
/// flushes a destination vertex must map to one destination worker.
template <typename M>
class ExchangeChannel {
 public:
  using Combiner = std::function<M(const M&, const M&)>;
  /// Called once per delivered message, in the deterministic order above.
  using Deliver = std::function<void(uint32_t dst_worker, VertexId dst, M&&)>;

  /// Wire totals of one Flush (one superstep's communication).
  struct StepTotals {
    uint64_t logical_messages = 0;  // deliveries, including local ones
    uint64_t cross_messages = 0;    // wire messages between distinct workers
    uint64_t cross_bytes = 0;       // cross messages * (sizeof(M) + envelope)
    uint64_t mirrored = 0;          // deliveries folded into mirror messages
  };

  /// `envelope_bytes` is the simulated per-message overhead added to
  /// sizeof(M) for cross-worker wire messages (dst id + lengths).
  ExchangeChannel(ClusterRuntime* cluster, uint32_t envelope_bytes)
      : cluster_(cluster), envelope_bytes_(envelope_bytes) {
    GAL_CHECK(cluster_ != nullptr);
    const uint32_t workers = cluster_->num_workers();
    boxes_.resize(workers);
    for (Outbox& box : boxes_) {
      box.lanes.assign(workers, {});
      box.touched.assign(workers, {});
      box.wire.assign(workers, 0);
      box.logical.assign(workers, 0);
      box.mirrored = 0;
    }
  }

  /// Installs (or clears, with nullptr) the combiner for the coming
  /// supersteps and drops any buffered messages. Clearing the combiner
  /// releases the combine slots.
  void Begin(Combiner combiner) {
    combiner_ = std::move(combiner);
    Clear();
    if (!combiner_) {
      for (Outbox& box : boxes_) {
        std::vector<M>().swap(box.slot_value);
        std::vector<uint8_t>().swap(box.slot_state);
      }
    }
  }

  /// Buffers one message from src worker to `dst_vertex` on dst worker.
  /// `mirrored` marks deliveries that ride a mirror broadcast's single
  /// per-worker wire message.
  void Send(uint32_t src, uint32_t dst_worker, VertexId dst_vertex,
            const M& message, bool mirrored = false) {
    Outbox& box = boxes_[src];
    ++box.logical[dst_worker];
    if (combiner_) {
      if (dst_vertex >= box.slot_state.size()) GrowSlots(box, dst_vertex);
      uint8_t& state = box.slot_state[dst_vertex];
      M& slot = box.slot_value[dst_vertex];
      if (state == 0) {
        slot = message;
        box.touched[dst_worker].push_back(dst_vertex);
      } else {
        slot = combiner_(slot, message);
      }
      // The first non-mirrored send to a slot puts it on the wire.
      if (!mirrored && !(state & kNonMirrored)) ++box.wire[dst_worker];
      state |= mirrored ? kMirrored : kNonMirrored;
      return;
    }
    if (!mirrored) ++box.wire[dst_worker];
    box.lanes[dst_worker].push_back({dst_vertex, message});
  }

  /// Accounts the single wire message a mirror broadcast pays per remote
  /// worker it touches.
  void AddMirrorWire(uint32_t src, uint32_t dst_worker) {
    ++boxes_[src].wire[dst_worker];
  }

  /// Accounts one logical delivery folded into an already-paid mirror
  /// message.
  void NoteMirroredDelivery(uint32_t src) { ++boxes_[src].mirrored; }

  /// The BSP barrier: charges this step's wire traffic to the runtime
  /// ledger, delivers every buffered message via `deliver` (destination
  /// workers in parallel on `pool` if given), clears the buffers, and
  /// returns the step's totals.
  StepTotals Flush(ThreadPool* pool, const Deliver& deliver) {
    const uint32_t workers = cluster_->num_workers();
    TrafficLedger& ledger = cluster_->ledger();
    StepTotals totals;
    const uint64_t wire_message_bytes = sizeof(M) + envelope_bytes_;
    for (uint32_t src = 0; src < workers; ++src) {
      Outbox& box = boxes_[src];
      totals.mirrored += box.mirrored;
      box.mirrored = 0;
      for (uint32_t dst = 0; dst < workers; ++dst) {
        // Wire cost (counted at Send): one per mirror broadcast plus,
        // with a combiner, one per slot that a non-mirrored send
        // touched; without one, every non-mirrored send.
        const uint64_t wire = box.wire[dst];
        totals.logical_messages += box.logical[dst];
        if (src != dst && wire > 0) {
          totals.cross_messages += wire;
          totals.cross_bytes += wire * wire_message_bytes;
          ledger.Charge(src, dst, wire * wire_message_bytes, wire);
        }
        box.wire[dst] = 0;
        box.logical[dst] = 0;
      }
    }
    auto deliver_to = [&](size_t dst) {
      for (uint32_t src = 0; src < workers; ++src) {
        Outbox& box = boxes_[src];
        std::vector<Outgoing>& lane = box.lanes[dst];
        for (Outgoing& o : lane) {
          deliver(static_cast<uint32_t>(dst), o.dst, std::move(o.message));
        }
        lane.clear();
        std::vector<VertexId>& touched = box.touched[dst];
        for (VertexId v : touched) {
          deliver(static_cast<uint32_t>(dst), v, std::move(box.slot_value[v]));
          box.slot_state[v] = 0;
        }
        touched.clear();
      }
    };
    if (pool != nullptr) {
      pool->ParallelFor(workers, deliver_to);
    } else {
      for (uint32_t dst = 0; dst < workers; ++dst) deliver_to(dst);
    }
    return totals;
  }

  /// Drops all buffered messages (failure rollback).
  void Clear() {
    for (Outbox& box : boxes_) {
      for (auto& lane : box.lanes) lane.clear();
      for (std::vector<VertexId>& touched : box.touched) {
        for (VertexId v : touched) box.slot_state[v] = 0;
        touched.clear();
      }
      std::fill(box.wire.begin(), box.wire.end(), 0);
      std::fill(box.logical.begin(), box.logical.end(), 0);
      box.mirrored = 0;
    }
  }

  bool has_combiner() const { return static_cast<bool>(combiner_); }
  uint32_t envelope_bytes() const { return envelope_bytes_; }
  ClusterRuntime* cluster() const { return cluster_; }

 private:
  struct Outgoing {
    VertexId dst;
    M message;
  };
  /// Combine-slot state bits: which kinds of send touched the slot.
  static constexpr uint8_t kMirrored = 1;
  static constexpr uint8_t kNonMirrored = 2;
  /// Per-source-worker buffers, one lane per destination worker; no
  /// locking needed because a worker only appends to its own buffers.
  /// With a combiner, `slot_value`/`slot_state` are indexed by
  /// destination vertex and `touched` lists each lane's live slots in
  /// first-send order; a slot is free again once its state is 0.
  struct Outbox {
    std::vector<std::vector<Outgoing>> lanes;     // [dst]
    std::vector<std::vector<VertexId>> touched;   // [dst]
    std::vector<M> slot_value;                    // [vertex]
    std::vector<uint8_t> slot_state;              // [vertex]
    std::vector<uint64_t> wire;                   // [dst]
    std::vector<uint64_t> logical;                // [dst]
    uint64_t mirrored = 0;
  };

  /// Grows the slots to cover `v`, at least doubling them.
  static void GrowSlots(Outbox& box, VertexId v) {
    const size_t size =
        std::max<size_t>(size_t{v} + 1, 2 * box.slot_state.size());
    box.slot_value.resize(size);
    box.slot_state.resize(size, 0);
  }

  ClusterRuntime* cluster_;
  uint32_t envelope_bytes_;
  Combiner combiner_;
  std::vector<Outbox> boxes_;
};

}  // namespace gal

#endif  // GAL_CLUSTER_EXCHANGE_H_
