#include "cluster/checkpoint.h"

#include <algorithm>

namespace gal {

void CheckpointStore::ChargeRing(uint64_t bytes, bool reverse) {
  const uint32_t workers = cluster_->num_workers();
  TrafficLedger& ledger = cluster_->ledger();
  // Each worker ships its share of the snapshot to its ring neighbor
  // (the "stable storage" of the simulation lives one hop away); the
  // remainder rides worker 0's share so the total is exactly `bytes`.
  // Restore reverses the ring. At W=1 the charge is src == dst, which
  // the ledger books as local — off the wire, still data touched.
  const uint64_t share = bytes / workers;
  for (uint32_t w = 0; w < workers; ++w) {
    const uint64_t piece = share + (w == 0 ? bytes % workers : 0);
    const uint32_t neighbor = (w + 1) % workers;
    if (reverse) {
      ledger.Charge(neighbor, w, piece);
    } else {
      ledger.Charge(w, neighbor, piece);
    }
  }
  // Snapshot/restore time is its own clock round of pure transfer: no
  // compute, `bytes` over `workers` messages.
  cluster_->clock().AdvanceRound(0.0, bytes, workers);
}

void CheckpointStore::Save(uint32_t round, std::vector<uint8_t> blob) {
  const uint64_t bytes = blob.size();
  blob_ = std::move(blob);
  round_ = round;
  has_checkpoint_ = true;
  ++checkpoints_taken_;
  checkpoint_bytes_ += bytes;
  ChargeRing(bytes, /*reverse=*/false);
}

const std::vector<uint8_t>& CheckpointStore::Restore() {
  GAL_CHECK(has_checkpoint_) << "restore without a checkpoint";
  restored_bytes_ += blob_.size();
  ChargeRing(blob_.size(), /*reverse=*/true);
  return blob_;
}

RecoverySession::RecoverySession(ClusterRuntime* cluster, FaultPlan plan)
    : cluster_(cluster), plan_(std::move(plan)), store_(cluster) {
  GAL_CHECK(cluster_ != nullptr);
  run_start_ = cluster_->ledger().Snapshot();
  clock_start_ = cluster_->clock().rounds();
  mark_ = run_start_;
  consumed_.assign(plan_.failures().size(), 0);
  for (const FailureEvent& f : plan_.failures()) {
    if (f.worker < cluster_->num_workers()) {
      wants_initial_ = true;
      break;
    }
  }
}

void RecoverySession::Start(RoundHooks hooks) {
  hooks_ = std::move(hooks);
  if (WantsInitialCheckpoint()) Commit(kInitialRound, Save());
  mark_ = cluster_->ledger().Snapshot();
}

bool RecoverySession::EndRound(uint32_t* round,
                               std::span<double> per_worker_compute,
                               const TrafficSnapshot& traffic) {
  const uint32_t ended = *round;
  ScaleCompute(ended, per_worker_compute);
  cluster_->clock().AdvanceRound(per_worker_compute, traffic.cross_bytes,
                                 traffic.cross_messages);
  if (ShouldCheckpoint(ended)) Commit(ended, Save());
  const std::vector<uint8_t>* blob = OnFailure(ended, round);
  if (blob != nullptr) {
    BlobReader r(*blob);
    hooks_.load(r);
    GAL_CHECK(r.exhausted()) << "trailing bytes in checkpoint";
  } else {
    *round = ended + 1;
    if (hooks_.migrate && plan_.rebalance().enabled) {
      const VertexPartition& partition = cluster_->partition();
      std::vector<double> load(partition.num_parts, 0.0);
      for (uint32_t owner : partition.assignment) load[owner] += 1.0;
      const uint32_t straggler =
          RebalanceCandidate(ended, std::span<const double>(load));
      if (straggler != kNoWorker) hooks_.migrate(straggler);
    }
  }
  mark_ = cluster_->ledger().Snapshot();
  return blob != nullptr;
}

std::vector<uint8_t> RecoverySession::Save() const {
  BlobWriter w;
  hooks_.save(w);
  return std::move(w).Take();
}

void RecoverySession::ScaleCompute(uint32_t round,
                                   std::span<double> per_worker_seconds) {
  if (plan_.slowdowns().empty()) return;
  for (size_t w = 0; w < per_worker_seconds.size(); ++w) {
    per_worker_seconds[w] *=
        plan_.SlowdownFactor(static_cast<uint32_t>(w), round);
  }
}

void RecoverySession::Commit(uint32_t round, std::vector<uint8_t> state) {
  store_.Save(round, std::move(state));
  stats_.checkpoints_taken = store_.checkpoints_taken();
  stats_.checkpoint_bytes = store_.checkpoint_bytes();
}

const std::vector<uint8_t>* RecoverySession::OnFailure(
    uint32_t round, uint32_t* resume_round) {
  const std::vector<FailureEvent>& failures = plan_.failures();
  bool fired = false;
  for (size_t i = 0; i < failures.size(); ++i) {
    if (consumed_[i] || failures[i].round != round) continue;
    if (failures[i].worker >= cluster_->num_workers()) {
      consumed_[i] = 1;  // inert: the plan outranges this cluster
      continue;
    }
    consumed_[i] = 1;
    fired = true;  // concurrent failures at one round share one rollback
  }
  if (!fired) return nullptr;
  GAL_CHECK(store_.has_checkpoint())
      << "failure injected with no checkpoint to roll back to";
  const std::vector<uint8_t>& blob = store_.Restore();
  const uint32_t checkpoint_round = store_.round();
  *resume_round =
      checkpoint_round == kInitialRound ? 0 : checkpoint_round + 1;
  ++stats_.failures_recovered;
  stats_.recomputed_rounds +=
      checkpoint_round == kInitialRound ? round + 1 : round - checkpoint_round;
  stats_.restored_bytes = store_.restored_bytes();
  return &blob;
}

uint32_t RecoverySession::RebalanceCandidate(
    uint32_t round, std::span<const double> per_worker_load) {
  const RebalanceConfig& rb = plan_.rebalance();
  if (!rb.enabled || per_worker_load.size() < 2) return kNoWorker;
  if (migrations_done_ >= rb.max_migrations) return kNoWorker;
  if (round < cooldown_until_round_) return kNoWorker;

  double total = 0.0;
  size_t heaviest = 0;
  std::vector<double> scaled(per_worker_load.size());
  for (size_t w = 0; w < per_worker_load.size(); ++w) {
    scaled[w] = per_worker_load[w] *
                plan_.SlowdownFactor(static_cast<uint32_t>(w), round);
    total += scaled[w];
    if (scaled[w] > scaled[heaviest]) heaviest = w;
  }
  const double others_mean =
      (total - scaled[heaviest]) /
      static_cast<double>(per_worker_load.size() - 1);
  if (others_mean <= 0.0 ||
      scaled[heaviest] <= rb.threshold * others_mean) {
    straggler_ = kNoWorker;
    sustained_rounds_ = 0;
    return kNoWorker;
  }
  if (static_cast<uint32_t>(heaviest) != straggler_) {
    straggler_ = static_cast<uint32_t>(heaviest);
    sustained_rounds_ = 0;
  }
  if (++sustained_rounds_ < rb.sustain_rounds) return kNoWorker;
  sustained_rounds_ = 0;
  cooldown_until_round_ = round + 1 + rb.cooldown_rounds;
  return straggler_;
}

void RecoverySession::CommitMigration(
    uint32_t from, std::span<const std::pair<uint32_t, uint64_t>> per_dst_bytes,
    uint64_t vertices_moved) {
  uint64_t total_bytes = 0;
  for (const auto& [dst, bytes] : per_dst_bytes) {
    cluster_->ledger().Charge(from, dst, bytes);
    total_bytes += bytes;
  }
  // Migration is its own clock round of pure transfer time.
  cluster_->clock().AdvanceRound(
      0.0, total_bytes, std::max<uint64_t>(per_dst_bytes.size(), 1));
  ++migrations_done_;
  ++stats_.rebalances;
  stats_.migrated_vertices += vertices_moved;
  stats_.migration_bytes += total_bytes;
}

std::vector<std::vector<VertexId>> VerticesByWorker(
    const VertexPartition& partition) {
  std::vector<std::vector<VertexId>> lists(partition.num_parts);
  for (VertexId v = 0; v < partition.assignment.size(); ++v) {
    lists[partition.assignment[v]].push_back(v);
  }
  return lists;
}

bool RecoverySession::MigrateAway(
    const Graph& g, uint32_t from,
    const std::function<uint64_t(VertexId)>& state_bytes,
    VertexPartition& partition) {
  std::vector<VertexId> moved;
  VertexPartition next = RebalanceAway(
      g, partition, from, plan_.rebalance().migrate_fraction, &moved);
  if (moved.empty()) return false;
  std::vector<uint64_t> dst_bytes(partition.num_parts, 0);
  for (VertexId v : moved) dst_bytes[next.assignment[v]] += state_bytes(v);
  std::vector<std::pair<uint32_t, uint64_t>> per_dst;
  for (uint32_t w = 0; w < partition.num_parts; ++w) {
    if (dst_bytes[w] > 0) per_dst.emplace_back(w, dst_bytes[w]);
  }
  partition = std::move(next);
  cluster_->InstallPartition(partition);
  CommitMigration(from, per_dst, moved.size());
  return true;
}

}  // namespace gal
