#ifndef GAL_CLUSTER_LEDGER_H_
#define GAL_CLUSTER_LEDGER_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <vector>

namespace gal {

/// Cumulative totals of a ledger at one instant; benches and engines
/// subtract two snapshots to attribute traffic to one job or round.
struct TrafficSnapshot {
  uint64_t cross_bytes = 0;
  uint64_t cross_messages = 0;
  uint64_t local_bytes = 0;
  uint64_t local_messages = 0;

  /// The traffic charged between `start` and this snapshot.
  TrafficSnapshot operator-(const TrafficSnapshot& start) const {
    return {cross_bytes - start.cross_bytes,
            cross_messages - start.cross_messages,
            local_bytes - start.local_bytes,
            local_messages - start.local_messages};
  }
};

/// One worker's view of the ledger (sums over its row/column).
struct WorkerTraffic {
  uint64_t sent_bytes = 0;
  uint64_t sent_messages = 0;
  uint64_t recv_bytes = 0;
  uint64_t recv_messages = 0;
  uint64_t local_bytes = 0;  // src == dst charges (data touched in place)
};

/// Byte/message ledger of the simulated cluster. Every distributed
/// component (TLAV exchange, dist-GNN halo traffic, TLAG task homes)
/// charges its traffic here so benches can print one comparable
/// "communication volume" axis per configuration.
///
/// Thread safety: counters are sharded per *source* worker and each
/// shard's cells are atomics, so any number of host threads may charge
/// concurrently — including several threads charging on behalf of the
/// same simulated worker (stolen TLAG tasks do exactly that). This
/// replaces the old SimulatedNetwork, whose plain uint64_t counters
/// were raced under concurrent charges. Reads (totals, per-worker
/// views) sum the shards; they are monotone and exact once all writers
/// have quiesced, which is when engines read them (at barriers / end of
/// run).
class TrafficLedger {
 public:
  explicit TrafficLedger(uint32_t num_workers);

  uint32_t num_workers() const { return num_workers_; }

  /// Charges `bytes` in `messages` wire messages from src to dst.
  /// A src == dst charge is a local handoff: free on the wire, but
  /// recorded in the local column so "data touched" stays observable.
  void Charge(uint32_t src, uint32_t dst, uint64_t bytes,
              uint64_t messages = 1);

  /// Broadcast of `bytes` from one worker to every other worker.
  void ChargeBroadcast(uint32_t src, uint64_t bytes);

  // --- cross-worker (wire) totals ---------------------------------------
  uint64_t TotalBytes() const;
  uint64_t TotalMessages() const;
  uint64_t PairBytes(uint32_t src, uint32_t dst) const;
  uint64_t PairMessages(uint32_t src, uint32_t dst) const;

  // --- local (same-worker) totals ---------------------------------------
  uint64_t TotalLocalBytes() const;
  uint64_t TotalLocalMessages() const;

  /// Per-worker row/column sums.
  WorkerTraffic Worker(uint32_t w) const;

  /// max over workers(sent bytes) / mean over workers(sent bytes) — the
  /// skew a partitioning strategy induces on outbound traffic. 0 when no
  /// cross-worker traffic was charged.
  double SentBytesImbalance() const;

  TrafficSnapshot Snapshot() const;

  void Reset();

 private:
  /// One source worker's counters, cache-line separated so workers
  /// charging concurrently do not false-share.
  struct alignas(64) Shard {
    explicit Shard(uint32_t num_workers)
        : pair_bytes(num_workers), pair_messages(num_workers),
          local_bytes(0), local_messages(0) {
      for (auto& c : pair_bytes) c.store(0, std::memory_order_relaxed);
      for (auto& c : pair_messages) c.store(0, std::memory_order_relaxed);
    }
    std::vector<std::atomic<uint64_t>> pair_bytes;     // [dst]
    std::vector<std::atomic<uint64_t>> pair_messages;  // [dst]
    std::atomic<uint64_t> local_bytes;
    std::atomic<uint64_t> local_messages;
  };

  uint32_t num_workers_;
  std::vector<std::unique_ptr<Shard>> shards_;  // [src]
};

}  // namespace gal

#endif  // GAL_CLUSTER_LEDGER_H_
