#ifndef PERFBENCH_BENCH_H_
#define PERFBENCH_BENCH_H_

// Shared machinery of the repository benchmark: run settings, per-pass
// values, the call recorder (timing + optional Chrome-trace spans), the
// output checker, and the workload interface the four workloads
// implement. Everything here sits outside the library: the benchmark
// only calls the library's public functions and reads the stats structs
// they return.

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "cluster/virtual_clock.h"
#include "common/status.h"

namespace perfbench {

/// Settings of one benchmark run, from the command line.
struct RunConfig {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string workdir;     // inputs and shard stores live here
  std::string trace_path;  // Chrome trace-event JSON (traced runs only)
  uint32_t threads = 2;    // host threads of every engine: nproc/2, 1..2
  uint32_t workers = 4;    // simulated cluster workers (not host threads)
  bool wrong_reference = false;  // corrupt one reference: checks must fire
};

/// Metric name -> value for one pass (or one set-up). Add() sums, so a
/// job called several times in a pass accumulates.
class Values {
 public:
  void Add(const std::string& name, double v) { map_[name] += v; }
  void Set(const std::string& name, double v) { map_[name] = v; }
  double Get(const std::string& name) const {
    auto it = map_.find(name);
    return it == map_.end() ? 0.0 : it->second;
  }
  const std::map<std::string, double>& map() const { return map_; }

 private:
  std::map<std::string, double> map_;
};

/// Counts jobs attempted and jobs whose output failed its check. A
/// failure is printed to stderr at once; the run then ends non-zero.
class Checker {
 public:
  void Expect(bool ok, const std::string& job, const std::string& detail);
  uint64_t attempted() const { return attempted_; }
  uint64_t failed() const { return failed_; }

 private:
  uint64_t attempted_ = 0;
  uint64_t failed_ = 0;
};

/// Times each public library call from outside. Every call in a timed
/// pass adds its wall seconds to `<layer>.self_s`; on a traced pass it
/// also keeps a span (layer, call, pass/job ids, the counters the call
/// returned, its VirtualClock delta) for the Chrome trace.
class Recorder {
 public:
  explicit Recorder(std::string workload);

  /// Starts a pass (`pass` < 0 marks set-up) whose values go to `values`.
  void BeginPass(int pass, bool traced, Values* values);
  /// Ends the pass: records `trace.uncovered_s` (pass wall no call
  /// covers) and, when traced, a span for the pass itself.
  void EndPass(double pass_seconds);

  /// Runs fn(), timing it as one call of `layer`. `clock` (may be null)
  /// is the VirtualClock the call advances.
  template <typename Fn>
  auto Call(const char* layer, const char* name,
            const gal::VirtualClock* clock, Fn&& fn) {
    const double clock_before = traced_ && clock ? clock->seconds() : 0.0;
    const double start = Now();
    auto result = fn();
    const double seconds = Now() - start;
    Finish(layer, name, start, seconds,
           traced_ && clock ? clock->seconds() - clock_before : 0.0);
    return result;
  }

  /// Seconds of the most recent Call().
  double last_seconds() const { return last_seconds_; }

  /// Attaches counters to the most recent span (no-op when untraced).
  void Annotate(std::vector<std::pair<std::string, double>> counters);

  /// Seconds since the recorder was created (the trace's time origin).
  double Now() const;

  /// Writes every kept span as Chrome trace-event JSON (Perfetto opens
  /// it). Returns false when the file cannot be written.
  bool WriteChromeTrace(const std::string& path) const;

 private:
  struct Span {
    std::string layer;
    std::string name;
    int pass = 0;
    int job = 0;
    double start = 0.0;
    double seconds = 0.0;
    double clock_delta = 0.0;
    std::vector<std::pair<std::string, double>> counters;
  };

  void Finish(const char* layer, const char* name, double start,
              double seconds, double clock_delta);

  std::string workload_;
  std::chrono::steady_clock::time_point origin_;
  Values* values_ = nullptr;
  int pass_ = 0;
  int job_ = 0;
  bool traced_ = false;
  double pass_start_ = 0.0;
  double covered_ = 0.0;
  double last_seconds_ = 0.0;
  std::vector<Span> spans_;
};

/// Facts about a run a later reader needs: graph sizes, shard counts,
/// sample counts. Values are numbers or strings.
class Context {
 public:
  void Set(const std::string& key, double v) { numbers_[key] = v; }
  void Set(const std::string& key, const std::string& v) { strings_[key] = v; }
  const std::map<std::string, double>& numbers() const { return numbers_; }
  const std::map<std::string, std::string>& strings() const {
    return strings_;
  }

 private:
  std::map<std::string, double> numbers_;
  std::map<std::string, std::string> strings_;
};

/// One workload: input creation and timed set-up, references computed
/// outside the timed region, and the job list one pass runs.
class Workload {
 public:
  virtual ~Workload() = default;
  /// Writes the seeded input files (untimed); called once.
  virtual void CreateInputs() = 0;
  /// The program calls that make the input usable. Must record
  /// `setup_s` in `values`. Called again before every timed pass; each
  /// call replaces what the one before made.
  virtual void Setup(Recorder& rec, Values& values) = 0;
  /// Computes every reference the passes are checked against.
  virtual void BuildReferences() = 0;
  /// Runs the workload's job list once, checking every output.
  virtual void Pass(Recorder& rec, Values& values, Checker& check) = 0;
  /// Sizes and settings of the inputs, for the result record.
  virtual void Describe(Context& context) const = 0;
};

std::unique_ptr<Workload> MakeAnalytics(const RunConfig& config);
std::unique_ptr<Workload> MakeMining(const RunConfig& config);
std::unique_ptr<Workload> MakeGnn(const RunConfig& config);
std::unique_ptr<Workload> MakeOoc(const RunConfig& config);

/// The value of a set-up step that must succeed; a failure ends the run
/// without a result (exit code 2).
template <typename T>
T Unwrap(gal::Result<T> result, const char* what) {
  if (!result.ok()) {
    std::fprintf(stderr, "%s failed: %s\n", what,
                 result.status().ToString().c_str());
    std::exit(2);
  }
  return std::move(result).value();
}

/// Median of a non-empty sample (mean of the middle two when even).
double Median(std::vector<double> values);

/// Writes an R-MAT graph (Graph500 quadrants, edge factor 16) as an
/// edge-list file; the input creation step every R-MAT workload shares.
void WriteRmatEdgeList(const std::string& path, uint32_t scale,
                       uint64_t seed);

}  // namespace perfbench

#endif  // PERFBENCH_BENCH_H_
