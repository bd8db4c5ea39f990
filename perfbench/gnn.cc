// Workload `gnn`: distributed GCN training on a planted-partition
// dataset over four simulated workers — multilevel partition, BSP sync,
// int8 halo exchange with error compensation, periodic checkpoints and
// one injected worker failure. The dataset's graph is an edge-list file
// loaded at set-up, like the other workloads' graphs; its features and
// masks are generated with the inputs.

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <vector>

#include "bench.h"
#include "cluster/cluster.h"
#include "dist/dist_gcn.h"
#include "gnn/dataset.h"
#include "graph/io.h"

namespace perfbench {
namespace {

constexpr uint32_t kVertices = 16384;
constexpr uint32_t kClasses = 8;
constexpr uint32_t kFeatureDim = 64;
constexpr uint32_t kHidden = 64;
constexpr uint32_t kEpochs = 12;
constexpr uint32_t kCheckpointEvery = 4;
constexpr uint32_t kFailEpoch = 9;
/// Final test accuracy the trained model must reach (chance is 1/8).
constexpr double kAccuracyFloor = 0.75;

double Seconds(const std::vector<gal::StageTimingStat>& stats,
               const std::string& name) {
  for (const auto& s : stats) {
    if (s.name == name) return s.total_seconds;
  }
  return 0.0;
}

class Gnn : public Workload {
 public:
  explicit Gnn(const RunConfig& config)
      : config_(config),
        path_(config.workdir + "/planted.el"),
        cluster_(gal::ClusterOptions{config.workers, {}}) {}

  void CreateInputs() override {
    gal::PlantedDatasetOptions options;
    options.num_vertices = kVertices;
    options.num_classes = kClasses;
    // Expected degree ~12 inside a class and ~4 across classes.
    options.p_in = 12.0 / (kVertices / kClasses);
    options.p_out = 4.0 / kVertices;
    options.feature_dim = kFeatureDim;
    options.seed = config_.seed;
    dataset_ = gal::MakePlantedDataset(options);
    labels_ = dataset_.graph.labels();
    edges_ = dataset_.graph.CollectEdges();

    // The loader numbers vertices in order of first appearance, so one
    // self-loop line per vertex (dropped at build time) comes first and
    // keeps every id, isolated vertices included.
    std::ofstream out(path_);
    for (gal::VertexId v = 0; v < kVertices; ++v) out << v << " " << v << "\n";
    for (const gal::Edge& e : edges_) out << e.src << " " << e.dst << "\n";
    if (!out) {
      std::fprintf(stderr, "cannot write %s\n", path_.c_str());
      std::exit(2);
    }
  }

  void Setup(Recorder& rec, Values& values) override {
    gal::Graph graph = rec.Call("graph", "LoadEdgeListFile", nullptr, [&] {
      return Unwrap(gal::LoadEdgeListFile(path_), "LoadEdgeListFile");
    });
    const double load_s = rec.last_seconds();
    const double label_start = rec.Now();
    GAL_CHECK_OK(graph.SetLabels(labels_));
    const double label_s = rec.Now() - label_start;
    if (graph.NumVertices() != kVertices || graph.CollectEdges() != edges_) {
      std::fprintf(stderr, "loaded graph differs from the generated one\n");
      std::exit(2);
    }
    dataset_.graph = std::move(graph);
    values.Set("graph.load_s", load_s);
    values.Set("setup_s", load_s + label_s);
    values.Set("graph.bytes_per_edge",
               static_cast<double>(dataset_.graph.AdjacencyBytes()) /
                   static_cast<double>(dataset_.graph.NumAdjacencyEntries()));
  }

  void BuildReferences() override {
    // The failure-free run: recovery must reproduce it bit for bit.
    gal::DistGcnConfig config = TrainConfig();
    config.cluster = nullptr;
    config.num_workers = config_.workers;
    config.faults = gal::FaultPlan();
    const gal::DistGcnReport ref = gal::TrainDistGcn(dataset_, config);
    ref_loss_ = ref.epoch_loss;
    ref_accuracy_ = ref.final_test_accuracy;
    if (config_.wrong_reference) ref_loss_.back() += 1.0;
  }

  void Pass(Recorder& rec, Values& values, Checker& check) override {
    gal::VirtualClock& clock = cluster_.clock();
    const size_t first_round = clock.rounds();
    const double clock_start = clock.seconds();
    const gal::TrafficSnapshot wire_start = cluster_.ledger().Snapshot();

    const gal::DistGcnConfig config = TrainConfig();
    const gal::DistGcnReport r = rec.Call("dist", "TrainDistGcn", &clock, [&] {
      return gal::TrainDistGcn(dataset_, config);
    });
    const double wall = rec.last_seconds();
    const double forward = Seconds(r.stage_timings, "forward");
    const double backward = Seconds(r.stage_timings, "backward");
    const double step = Seconds(r.stage_timings, "step");
    const double gemm = Seconds(r.kernel_timings, "gemm");
    const double spmm = Seconds(r.kernel_timings, "spmm");
    const double elementwise = Seconds(r.kernel_timings, "elementwise");
    // Kernels run inside the trainer's call: their time is the tensor
    // layer's self time and comes off the dist layer's.
    const double kernels = gemm + spmm + elementwise;
    values.Add("dist.self_s", -kernels);
    values.Add("tensor.self_s", kernels);
    values.Add("epoch_s", wall / kEpochs);
    values.Add("test_accuracy", r.final_test_accuracy);
    values.Add("dist.forward_s", forward);
    values.Add("dist.backward_s", backward);
    values.Add("dist.optimizer_s", step);
    values.Add("dist.unattributed_s", wall - forward - backward - step);
    values.Add("dist.halo_rows", static_cast<double>(r.halo_rows_exchanged));
    values.Add("dist.recomputed_epochs", r.recomputed_epochs);
    values.Add("tensor.gemm_s", gemm);
    values.Add("tensor.spmm_s", spmm);
    values.Add("tensor.elementwise_s", elementwise);
    values.Add("partition.edge_cut", static_cast<double>(r.edge_cut));
    values.Add("cluster.checkpoint_mb",
               static_cast<double>(r.checkpoint_bytes) / 1e6);
    values.Add("cluster.restored_mb",
               static_cast<double>(r.restored_bytes) / 1e6);
    rec.Annotate({{"epochs", kEpochs},
                  {"final_test_accuracy", r.final_test_accuracy},
                  {"halo_rows", static_cast<double>(r.halo_rows_exchanged)},
                  {"edge_cut", static_cast<double>(r.edge_cut)},
                  {"checkpoint_bytes", static_cast<double>(r.checkpoint_bytes)},
                  {"restored_bytes", static_cast<double>(r.restored_bytes)},
                  {"recomputed_epochs", r.recomputed_epochs},
                  {"tensor.gemm_s", gemm},
                  {"tensor.spmm_s", spmm},
                  {"tensor.elementwise_s", elementwise}});

    bool finite = true;
    for (double loss : r.epoch_loss) finite = finite && std::isfinite(loss);
    check.Expect(finite && r.epoch_loss == ref_loss_ &&
                     r.final_test_accuracy == ref_accuracy_ &&
                     r.failures_recovered == 1,
                 "TrainDistGcn",
                 "recovered run differs from the failure-free run");
    check.Expect(r.final_test_accuracy >= kAccuracyFloor, "TrainDistGcn",
                 "test accuracy below the floor");

    const gal::TrafficSnapshot wire_end = cluster_.ledger().Snapshot();
    values.Add("wire_mb",
               static_cast<double>(wire_end.cross_bytes - wire_start.cross_bytes) /
                   1e6);
    values.Add("cluster.wire_msgs", static_cast<double>(
                                        wire_end.cross_messages -
                                        wire_start.cross_messages));
    values.Add("modeled_s", clock.seconds() - clock_start);
    for (const gal::ClusterRound& round : clock.RoundsSince(first_round)) {
      values.Add("cluster.modeled_comm_s", round.comm_seconds);
      values.Add("cluster.modeled_compute_s", round.compute_seconds);
    }
  }

  void Describe(Context& context) const override {
    context.Set("graph", "planted partition, " + std::to_string(kClasses) +
                             " classes, " + std::to_string(kFeatureDim) +
                             "-dim features");
    context.Set("vertices", dataset_.graph.NumVertices());
    context.Set("edges", static_cast<double>(dataset_.graph.NumEdges()));
    context.Set("adjacency_bytes",
                static_cast<double>(dataset_.graph.AdjacencyBytes()));
    context.Set("hidden", kHidden);
    context.Set("epochs", kEpochs);
    context.Set("checkpoint_every", kCheckpointEvery);
    context.Set("fail_epoch", kFailEpoch);
    context.Set("accuracy_floor", kAccuracyFloor);
  }

 private:
  gal::DistGcnConfig TrainConfig() {
    gal::DistGcnConfig config;
    config.partition = gal::PartitionScheme::kMultilevel;
    config.sync = gal::SyncMode::kBsp;
    config.quantization = gal::Quantization::kInt8;
    config.error_compensation = true;
    config.hidden_dim = kHidden;
    config.epochs = kEpochs;
    config.seed = config_.seed;
    config.cluster = &cluster_;
    config.faults = gal::FaultPlan()
                        .CheckpointEvery(kCheckpointEvery)
                        .FailWorkerAt(1, kFailEpoch);
    return config;
  }

  RunConfig config_;
  std::string path_;
  gal::ClusterRuntime cluster_;
  gal::NodeClassificationDataset dataset_;
  std::vector<gal::Label> labels_;  // class per vertex, as graph labels
  std::vector<gal::Edge> edges_;    // the generated graph, for the check
  std::vector<double> ref_loss_;
  double ref_accuracy_ = 0.0;
};

}  // namespace

std::unique_ptr<Workload> MakeGnn(const RunConfig& config) {
  return std::make_unique<Gnn>(config);
}

}  // namespace perfbench
