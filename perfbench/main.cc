// The benchmark program: one process runs one workload. It creates the
// seeded inputs, sets up once, computes references, runs one untimed
// warm-up pass, then for the requested seconds alternates a timed set-up
// and a timed pass of the workload's job list, checking every output.
// The last line of stdout is a JSON record of every metric value, the run
// context and the names of the counters that must repeat exactly;
// perfbench/run.py turns it into the benchmark result.
//
//   perfbench --workload analytics --seed 1 --seconds 10
//       --trace 0 --workdir DIR [--trace-out FILE] [--wrong-reference]

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <malloc.h>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "bench.h"
#include "common/simd.h"
#include "tensor/kernel_context.h"

extern char** environ;

namespace perfbench {
namespace {

/// Counters that depend only on the seed: they must repeat bit for bit
/// across the passes and set-ups of a run, and across runs of a seed.
/// Every other value varies from run to run and is only reported.
const std::set<std::string>& ExactMetrics() {
  static const std::set<std::string> exact = {
      "graph.bytes_per_edge",   "tlav.messages",
      "tlav.supersteps",        "frontier.edges_scanned",
      "frontier.scan_ratio",    "frontier.pull_steps",
      "tlag.intersection_ops",  "match.search_nodes",
      "match.yield",            "cluster.wire_msgs",
      "cluster.modeled_comm_s", "cluster.checkpoint_mb",
      "cluster.restored_mb",    "dist.halo_rows",
      "dist.recomputed_epochs", "partition.edge_cut",
      "wire_mb",                "test_accuracy",
  };
  return exact;
}

[[noreturn]] void Usage(const char* why) {
  std::fprintf(stderr,
               "%s\nusage: perfbench --workload "
               "{analytics,mining,gnn,ooc} --seed N --seconds S --trace "
               "{0,1} --workdir DIR [--trace-out FILE] [--wrong-reference]\n",
               why);
  std::exit(2);
}

RunConfig ParseArgs(int argc, char** argv) {
  RunConfig config;
  const unsigned hw = std::thread::hardware_concurrency();
  // Half the cores, at most two: on a shared virtual machine the idle
  // half absorbs preemptions by the host and the OS, which would
  // otherwise stall every barrier of a pass using all of them.
  config.threads = std::max(1u, std::min(2u, hw / 2));
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--wrong-reference") {
      config.wrong_reference = true;
      continue;
    }
    if (i + 1 >= argc) Usage(("missing value for " + arg).c_str());
    const std::string value = argv[++i];
    char* end = nullptr;
    if (arg == "--workload") {
      config.workload = value;
    } else if (arg == "--seed") {
      config.seed = std::strtoull(value.c_str(), &end, 10);
    } else if (arg == "--seconds") {
      config.seconds = std::strtod(value.c_str(), &end);
    } else if (arg == "--trace") {
      config.trace = value == "1";
    } else if (arg == "--workdir") {
      config.workdir = value;
    } else if (arg == "--trace-out") {
      config.trace_path = value;
    } else {
      Usage(("unknown argument " + arg).c_str());
    }
    if (end != nullptr && *end != '\0') Usage(("bad value for " + arg).c_str());
  }
  if (config.workdir.empty()) Usage("--workdir is required");
  if (!(config.seconds > 0)) Usage("--seconds must be positive");
  if (config.trace && config.trace_path.empty()) {
    config.trace_path = config.workdir + "/trace.json";
  }
  return config;
}

/// The library reads GAL_* knobs from the environment; the benchmark
/// clears them all so every setting comes from the configs it passes,
/// and pins host threads to the run's thread count.
void PinEnvironment(uint32_t threads) {
  std::vector<std::string> knobs;
  for (char** e = environ; *e != nullptr; ++e) {
    if (std::strncmp(*e, "GAL_", 4) == 0) {
      knobs.emplace_back(*e, std::strcspn(*e, "="));
    }
  }
  for (const std::string& k : knobs) unsetenv(k.c_str());
  const std::string t = std::to_string(threads);
  setenv("GAL_TASK_THREADS", t.c_str(), 1);
  setenv("GAL_KERNEL_THREADS", t.c_str(), 1);
  gal::KernelContext::Get().SetNumThreads(threads);
}

/// Resets the kernel's resident-set high-water mark to the current RSS
/// (Linux clear_refs "5"); false when the kernel refuses.
bool ResetPeakRss() {
  std::ofstream f("/proc/self/clear_refs");
  f << "5";
  f.flush();
  return static_cast<bool>(f);
}

/// VmHWM of this process in MB (10^6 bytes).
double PeakRssMb() {
  std::ifstream f("/proc/self/status");
  std::string line;
  while (std::getline(f, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) * 1024.0 / 1e6;
    }
  }
  return 0.0;
}

void PrintJsonString(const std::string& s) {
  std::putchar('"');
  for (char c : s) {
    if (c == '"' || c == '\\') std::putchar('\\');
    std::putchar(c);
  }
  std::putchar('"');
}

void PrintJsonNumber(double v) {
  if (std::isfinite(v)) {
    std::printf("%.17g", v);
  } else {
    std::fputs("null", stdout);
  }
}

double MedianOf(const std::vector<Values>& passes, const std::string& name) {
  std::vector<double> samples;
  for (const Values& v : passes) samples.push_back(v.Get(name));
  return Median(samples);
}

/// Median over `passes` of every metric they carry; exact metrics must
/// be identical in every one of `all` (reported in `mismatches`).
void Aggregate(const std::vector<Values>& passes, const std::vector<Values>& all,
               Values* out, std::vector<std::string>* mismatches) {
  std::set<std::string> names;
  for (const Values& v : all) {
    for (const auto& [name, value] : v.map()) names.insert(name);
  }
  for (const std::string& name : names) {
    out->Set(name, MedianOf(passes, name));
    if (ExactMetrics().count(name) == 0) continue;
    for (const Values& v : all) {
      if (v.Get(name) != all.front().Get(name)) {
        mismatches->push_back(name);
        std::fprintf(stderr, "EXACT COUNTER VARIED: %s (%.17g vs %.17g)\n",
                     name.c_str(), all.front().Get(name), v.Get(name));
        break;
      }
    }
  }
}

int Run(const RunConfig& config) {
  std::unique_ptr<Workload> workload;
  if (config.workload == "analytics") {
    workload = MakeAnalytics(config);
  } else if (config.workload == "mining") {
    workload = MakeMining(config);
  } else if (config.workload == "gnn") {
    workload = MakeGnn(config);
  } else if (config.workload == "ooc") {
    workload = MakeOoc(config);
  } else {
    Usage(("unknown workload " + config.workload).c_str());
  }

  Recorder rec(config.workload);
  Checker check;
  workload->CreateInputs();

  auto set_up = [&](Values* values) {
    rec.BeginPass(-1, config.trace, values);
    const double start = rec.Now();
    workload->Setup(rec, *values);
    rec.EndPass(rec.Now() - start);
  };
  // The first set-up makes what the references and the warm-up pass
  // use; being cold, it is checked but not counted in `setup_s`.
  Values first_setup;
  set_up(&first_setup);
  workload->BuildReferences();

  // One untimed warm-up pass resolves lazy initialisation (views, SIMD
  // dispatch, thread pools) before anything is measured.
  Values warm;
  rec.BeginPass(0, false, &warm);
  const double warm_start = rec.Now();
  workload->Pass(rec, warm, check);
  rec.EndPass(rec.Now() - warm_start);

  std::vector<Values> setups;
  std::vector<Values> untraced;
  std::vector<Values> traced;
  std::vector<Values> all_setups = {first_setup};
  std::vector<Values> all = {warm};
  bool rss_reset = true;
  const double run_start = rec.Now();
  const size_t min_each = config.trace ? 2 : 3;
  for (int pass = 1;; ++pass) {
    // A set-up before every pass spreads the set-up samples over the
    // whole run, as the passes are, so a slow phase of a shared host
    // weighs on both alike. The pass then runs on what it set up.
    Values setup;
    set_up(&setup);
    all_setups.push_back(setup);
    setups.push_back(std::move(setup));
    // Freed set-up memory the allocator still holds would otherwise
    // count toward the pass's peak. Each pass reports its own peak: one
    // pass in a few grows a buffer by ~2 MB, which a maximum over the
    // run would report as the whole run's footprint.
    malloc_trim(0);
    rss_reset = ResetPeakRss() && rss_reset;

    // Traced runs alternate untraced and traced passes, so the
    // difference of their medians is the tracing overhead.
    const bool traced_pass = config.trace && pass % 2 == 0;
    Values values;
    rec.BeginPass(pass, traced_pass, &values);
    const double start = rec.Now();
    workload->Pass(rec, values, check);
    const double wall = rec.Now() - start;
    values.Set("job_s", wall);
    values.Set("peak_rss_mb", PeakRssMb());
    rec.EndPass(wall);
    all.push_back(values);
    (traced_pass ? traced : untraced).push_back(std::move(values));
    const bool enough = untraced.size() >= min_each &&
                        (!config.trace || traced.size() >= min_each);
    if (enough && rec.Now() - run_start >= config.seconds) break;
  }

  Values result;
  std::vector<std::string> mismatches;
  Aggregate(setups, all_setups, &result, &mismatches);
  Aggregate(config.trace ? traced : untraced, all, &result, &mismatches);
  result.Set("job_s", MedianOf(untraced, "job_s"));
  result.Set("peak_rss_mb", MedianOf(untraced, "peak_rss_mb"));
  if (config.trace) {
    result.Set("trace.overhead_s",
               MedianOf(traced, "job_s") - MedianOf(untraced, "job_s"));
    if (!rec.WriteChromeTrace(config.trace_path)) {
      std::fprintf(stderr, "cannot write %s\n", config.trace_path.c_str());
      return 2;
    }
  }

  Context context;
  workload->Describe(context);
  context.Set("seed", static_cast<double>(config.seed));
  context.Set("nproc", std::thread::hardware_concurrency());
  context.Set("threads", config.threads);
  context.Set("workers", config.workers);
  context.Set("timed_passes", static_cast<double>(untraced.size()));
  context.Set("traced_passes", static_cast<double>(traced.size()));
  context.Set("setup_repetitions", static_cast<double>(setups.size()));
  context.Set("seconds", config.seconds);
  context.Set("peak_rss_reset", rss_reset ? "clear_refs" : "unavailable");
  context.Set("build_type", PERFBENCH_BUILD_TYPE);
  context.Set("compiler", PERFBENCH_COMPILER);
  context.Set("simd", gal::simd::ActiveIsa());
  if (config.trace) context.Set("trace_file", config.trace_path);

  std::printf("setup seconds:");
  for (const Values& v : setups) std::printf(" %.4f", v.Get("setup_s"));
  std::printf("\npass seconds:");
  for (const Values& v : untraced) std::printf(" %.4f", v.Get("job_s"));
  std::printf("\n%-28s %18s  %s\n", "metric", "value", "kind");
  for (const auto& [name, value] : result.map()) {
    std::printf("%-28s %18.6g  %s\n", name.c_str(), value,
                ExactMetrics().count(name) ? "exact" : "varying");
  }
  std::printf("{\"workload\":");
  PrintJsonString(config.workload);
  std::printf(",\"attempted\":%llu,\"failed\":%llu,\"exact_mismatches\":%zu",
              static_cast<unsigned long long>(check.attempted()),
              static_cast<unsigned long long>(check.failed()),
              mismatches.size());
  std::printf(",\"values\":{");
  const char* sep = "";
  for (const auto& [name, value] : result.map()) {
    std::printf("%s", sep);
    PrintJsonString(name);
    std::putchar(':');
    PrintJsonNumber(value);
    sep = ",";
  }
  std::printf("},\"exact\":[");
  sep = "";
  for (const auto& [name, value] : result.map()) {
    if (ExactMetrics().count(name) == 0) continue;
    std::printf("%s", sep);
    PrintJsonString(name);
    sep = ",";
  }
  std::printf("],\"context\":{");
  sep = "";
  for (const auto& [key, value] : context.numbers()) {
    std::printf("%s", sep);
    PrintJsonString(key);
    std::putchar(':');
    PrintJsonNumber(value);
    sep = ",";
  }
  for (const auto& [key, value] : context.strings()) {
    std::printf("%s", sep);
    PrintJsonString(key);
    std::putchar(':');
    PrintJsonString(value);
    sep = ",";
  }
  std::printf("}}\n");
  std::fflush(stdout);
  return check.failed() == 0 && mismatches.empty() ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  const perfbench::RunConfig config = perfbench::ParseArgs(argc, argv);
  perfbench::PinEnvironment(config.threads);
  return perfbench::Run(config);
}
