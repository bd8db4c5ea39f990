#include "bench.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>

#include "graph/generators.h"
#include "graph/io.h"

namespace perfbench {

void Checker::Expect(bool ok, const std::string& job,
                     const std::string& detail) {
  ++attempted_;
  if (ok) return;
  ++failed_;
  std::fprintf(stderr, "CHECK FAILED: %s: %s\n", job.c_str(), detail.c_str());
}

Recorder::Recorder(std::string workload)
    : workload_(std::move(workload)),
      origin_(std::chrono::steady_clock::now()) {}

double Recorder::Now() const {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       origin_)
      .count();
}

void Recorder::BeginPass(int pass, bool traced, Values* values) {
  pass_ = pass;
  job_ = 0;
  traced_ = traced;
  values_ = values;
  covered_ = 0.0;
  pass_start_ = Now();
}

void Recorder::EndPass(double pass_seconds) {
  if (pass_ >= 0) values_->Set("trace.uncovered_s", pass_seconds - covered_);
  if (traced_) {
    Span span;
    span.layer = pass_ < 0 ? "setup" : "pass";
    span.name = pass_ < 0 ? "setup" : "pass " + std::to_string(pass_);
    span.pass = pass_;
    span.job = -1;
    span.start = pass_start_;
    span.seconds = pass_seconds;
    spans_.push_back(std::move(span));
  }
  values_ = nullptr;
  traced_ = false;
}

void Recorder::Finish(const char* layer, const char* name, double start,
                      double seconds, double clock_delta) {
  last_seconds_ = seconds;
  covered_ += seconds;
  if (values_ != nullptr && pass_ >= 0) {
    values_->Add(std::string(layer) + ".self_s", seconds);
  }
  if (traced_) {
    Span span;
    span.layer = layer;
    span.name = name;
    span.pass = pass_;
    span.job = job_;
    span.start = start;
    span.seconds = seconds;
    span.clock_delta = clock_delta;
    spans_.push_back(std::move(span));
  }
  ++job_;
}

void Recorder::Annotate(std::vector<std::pair<std::string, double>> counters) {
  if (!traced_ || spans_.empty()) return;
  auto& dst = spans_.back().counters;
  for (auto& c : counters) dst.push_back(std::move(c));
}

namespace {

// Trace args must stay valid JSON: non-finite numbers become null.
void PrintNumber(std::FILE* f, double v) {
  if (std::isfinite(v)) {
    std::fprintf(f, "%.17g", v);
  } else {
    std::fputs("null", f);
  }
}

}  // namespace

bool Recorder::WriteChromeTrace(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fputs("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n", f);
  std::fprintf(f,
               "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,\"tid\":1,"
               "\"args\":{\"name\":\"perfbench %s\"}}",
               workload_.c_str());
  for (const Span& s : spans_) {
    std::fprintf(f,
                 ",\n{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\",\"pid\":1,"
                 "\"tid\":1,\"ts\":%.3f,\"dur\":%.3f,\"args\":{"
                 "\"workload\":\"%s\",\"pass\":%d,\"job\":%d,"
                 "\"clock_delta_s\":",
                 s.name.c_str(), s.layer.c_str(), s.start * 1e6,
                 s.seconds * 1e6, workload_.c_str(), s.pass, s.job);
    PrintNumber(f, s.clock_delta);
    for (const auto& [key, value] : s.counters) {
      std::fprintf(f, ",\"%s\":", key.c_str());
      PrintNumber(f, value);
    }
    std::fputs("}}", f);
  }
  std::fputs("\n]}\n", f);
  return std::fclose(f) == 0;
}

double Median(std::vector<double> values) {
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

void WriteRmatEdgeList(const std::string& path, uint32_t scale,
                       uint64_t seed) {
  const gal::Status status =
      gal::SaveEdgeListFile(gal::Rmat(scale, 16, seed), path);
  if (!status.ok()) {
    std::fprintf(stderr, "cannot write %s: %s\n", path.c_str(),
                 status.ToString().c_str());
    std::exit(2);
  }
}

}  // namespace perfbench
