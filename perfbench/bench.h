// Shared declarations of the end-to-end benchmark (see perfbench/README.md).
//
// The benchmark drives LogLens only through its public API: it generates a
// seeded workload, streams it through LogLensService (drain() or the
// background start()/stop() mode), checks the outputs against the
// generator's ground truth, and reports end-to-end metrics (untraced run)
// or a per-layer ledger (traced run).
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <unordered_map>
#include <vector>

#include "service/model.h"
#include "service/model_ops.h"
#include "trace/trace.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

inline uint64_t ns_between(Clock::time_point a, Clock::time_point b) {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(b - a).count());
}

// Median and nearest-rank percentile of a sample (0 for an empty one).
double median(std::vector<double> values);
double percentile(std::vector<double> values, double q);

// Resident set size of this process, in MiB.
double rss_mb();

// One generated workload: training lines, the stream in global send order
// with the agent source of every line, and the ground truth the outputs are
// checked against.
struct Input {
  std::vector<std::string> training;
  std::vector<std::string> lines;
  std::vector<std::string> sources;    // agent source names
  std::vector<uint32_t> source_of;     // per line: index into `sources`
  // Ground truth. D1: the generator's anomalous event ids. D4: injected
  // lines no trained pattern parses, reported as unparsed-log anomalies.
  std::set<std::string> anomalous_ids;
  std::set<std::string> injected_lines;
  // Anomaly key (event id or injected raw line) -> index of the last line
  // carrying it; the sink latency of an anomaly is measured from that
  // line's send.
  std::unordered_map<std::string, size_t> last_line_of;
  loglens::BuildOptions build;
};

struct Workload {
  std::string name;
  bool live = false;
  size_t partitions = 1;
  double live_rate_lps = 0;  // open-loop send rate (live only)
  double live_seconds = 0;   // length of one stream at that rate (live only)
};

// Benchmark-side spans (trace::Span, on the pipeline's own trace_clock
// timebase) and per-layer busy time in nanoseconds.
class Ledger {
 public:
  // begin() returns a start time; end() files the span `name` and adds its
  // duration to the layer of the same name.
  uint64_t begin() const;
  void end(const std::string& name, uint64_t start_us);
  void add_ns(const std::string& layer, uint64_t ns) { ns_[layer] += ns; }
  uint64_t ns(const std::string& layer) const;
  const std::vector<loglens::trace::Span>& spans() const { return spans_; }

 private:
  std::vector<loglens::trace::Span> spans_;
  std::map<std::string, uint64_t> ns_;
};

// Everything one streaming pass measured and checked.
struct PassResult {
  double setup_s = 0;
  double wall_s = 0;          // first send -> results visible
  double throughput_lps = 0;
  std::vector<double> lag_ms; // per line, ingest -> detected
  std::vector<double> anomaly_latency_ms;
  double stream_rss_mb = 0;
  double recall = 0;
  double precision = 0;
  uint64_t sent = 0;
  uint64_t failed_lines = 0;  // sent but never processed
  std::vector<std::string> check_failures;
  std::set<std::string> reported_ids;
  loglens::BuildResult build;
  // Per-layer observations (filled in every pass; only reported traced).
  std::map<std::string, double> layer;
  Ledger ledger;
  std::vector<loglens::trace::Span> pipeline_spans;
  double late_max_ms = 0;
};

Input make_input(const Workload& w, uint64_t seed);
PassResult run_batch_pass(const Workload& w, const Input& in, bool traced);
PassResult run_live_pass(const Workload& w, const Input& in, bool traced);
// drain()-mode replay of a live workload's input through the same sources
// and partitions; returns the anomalous ids it reports.
std::set<std::string> drain_reference_ids(const Workload& w, const Input& in);

// Isolated layer pass: the same lines through each layer's public
// functions with the trained model, timing every call.
std::map<std::string, double> isolated_pass(const Input& in,
                                            const loglens::CompositeModel& m);

}  // namespace perfbench
