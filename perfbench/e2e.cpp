// loglens_e2e: the end-to-end benchmark program.
//
//   loglens_e2e --workload <d1-batch|d4-batch|d1-live> [--seed N]
//               [--seconds S] [--trace 0|1] [--trace-out FILE]
//
// --trace 0 measures the end-to-end metrics with tracing off. --trace 1
// interleaves untraced and traced passes (for trace.overhead), runs the
// isolated layer pass, and reports the per-layer ledger. Human-readable
// lines come first; the last line of stdout is one JSON object
// {"correct", "attempted", "failed", "metrics"}. Exit status 1 when any
// output check fails, 2 on a usage error.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>

#include "bench.h"
#include "json/json.h"
#include "trace/report.h"

namespace perfbench {
namespace {

using namespace loglens;

// The verification seed documented in README.md is 7919.
constexpr uint64_t kDefaultSeed = 1;
// Open-loop rate of d1-live: well under what two partitions sustain on a
// 4-core machine, so the backlog stays bounded and lag measures latency.
constexpr double kLiveRateLps = 20000;
// Length of one d1-live stream. Fixed, not derived from --seconds: the
// retained stream grows the pump's per-call cost, so lag depends on it.
constexpr double kLiveStreamSeconds = 4;
// Minimum measured passes per run.
constexpr size_t kMinPasses = 3;

struct Args {
  std::string workload;
  uint64_t seed = kDefaultSeed;
  double seconds = 10;
  bool trace = false;
  std::string trace_out;
};

bool parse_args(int argc, char** argv, Args& a) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const char* v = argv[i + 1];
    if (key == "--workload") {
      a.workload = v;
    } else if (key == "--seed") {
      a.seed = std::strtoull(v, nullptr, 10);
    } else if (key == "--seconds") {
      a.seconds = std::atof(v);
    } else if (key == "--trace") {
      a.trace = std::string(v) == "1";
    } else if (key == "--trace-out") {
      a.trace_out = v;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && a.seconds > 0;
}

class Report {
 public:
  void add(const std::string& name, double value, const std::string& unit) {
    std::printf("  %-36s %16.6f %s\n", name.c_str(), value, unit.c_str());
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g", value);
    if (!json_.empty()) json_ += ", ";
    json_ += "\"" + name + "\": {\"value\": " + buf + ", \"unit\": \"" + unit +
             "\"}";
  }
  std::string json() const { return "{" + json_ + "}"; }

 private:
  std::string json_;
};

struct Outcome {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  bool correct = true;
  void add(const PassResult& r) {
    attempted += r.sent;
    failed += r.failed_lines + r.check_failures.size();
    for (const auto& f : r.check_failures) {
      std::printf("CHECK FAILED: %s\n", f.c_str());
      correct = false;
    }
  }
  void fail(const std::string& what) {
    std::printf("CHECK FAILED: %s\n", what.c_str());
    ++failed;
    correct = false;
  }
};

template <typename Fn>
std::vector<double> each(const std::vector<PassResult>& passes, Fn&& fn) {
  std::vector<double> v;
  for (const auto& p : passes) v.push_back(fn(p));
  return v;
}

PassResult run_pass(const Workload& w, const Input& in, bool traced,
                    Outcome& outcome) {
  trace::set_enabled(traced);
  PassResult r =
      w.live ? run_live_pass(w, in, traced) : run_batch_pass(w, in, traced);
  trace::set_enabled(false);
  outcome.add(r);
  return r;
}

// Runs untraced streaming passes until `seconds` have elapsed and at least
// kMinPasses have run.
std::vector<PassResult> run_passes(const Workload& w, const Input& in,
                                   double seconds, Outcome& outcome) {
  std::vector<PassResult> passes;
  const auto start = Clock::now();
  do {
    passes.push_back(run_pass(w, in, false, outcome));
  } while (passes.size() < kMinPasses ||
           seconds_between(start, Clock::now()) < seconds);
  return passes;
}

// Runs before the measured passes so they start from a warmed-up process
// (allocator, caches, lazily built state). Batch workloads run one
// discarded pass; the live workload runs its drain()-mode reference, whose
// anomalous ids every live pass must then reproduce.
std::set<std::string> warm_up(const Workload& w, const Input& in,
                              Outcome& outcome) {
  if (w.live) return drain_reference_ids(w, in);
  (void)run_pass(w, in, false, outcome);
  return {};
}

// d1-live must report the same anomalous ids as a drain()-mode replay of
// the same input (and the ground truth, checked per pass).
void check_live_matches_drain(const std::set<std::string>& reference,
                              const std::vector<PassResult>& passes,
                              Outcome& outcome) {
  for (const auto& p : passes) {
    if (p.reported_ids != reference) {
      outcome.fail("live mode reported " +
                   std::to_string(p.reported_ids.size()) +
                   " anomalous ids, drain() mode " +
                   std::to_string(reference.size()) + " (sets differ)");
    }
  }
}

void end_to_end(const Workload& w, const Input& in, const Args& args,
                Report& report, Outcome& outcome) {
  const std::set<std::string> reference = warm_up(w, in, outcome);
  std::vector<PassResult> passes = run_passes(w, in, args.seconds, outcome);
  if (w.live) check_live_matches_drain(reference, passes, outcome);
  for (const auto& p : passes) {
    std::printf(
        "  pass: %.0f lines/s, wall %.3f s, setup %.3f s, lag p99 %.1f ms\n",
        p.throughput_lps, p.wall_s, p.setup_s, percentile(p.lag_ms, 0.99));
  }
  // Throughput is the run's aggregate rate: on a machine whose speed
  // drifts from second to second it converges faster than a median of
  // per-pass rates. Batch passes replay the same lines and a line's lag
  // follows from the pass's wall time, so a line's lag is its mean over
  // the passes. Each live stream is an independent sample of the tail, so
  // live lag percentiles are the median over streams of each stream's.
  size_t lines = 0;
  double wall = 0;
  std::vector<double> lag;  // batch: per-line mean lag
  for (const auto& p : passes) {
    lines += p.lag_ms.size();
    wall += p.wall_s;
    if (w.live) continue;
    lag.resize(p.lag_ms.size());
    for (size_t i = 0; i < lag.size(); ++i) {
      lag[i] += p.lag_ms[i] / static_cast<double>(passes.size());
    }
  }
  auto lag_percentile = [&](double q) {
    if (!w.live) return percentile(lag, q);
    return median(
        each(passes, [q](auto& p) { return percentile(p.lag_ms, q); }));
  };
  std::printf("%s seed=%llu passes=%zu lines/pass=%zu lag samples=%zu\n",
              w.name.c_str(), static_cast<unsigned long long>(args.seed),
              passes.size(), in.lines.size(), lines);
  report.add("throughput_lps", static_cast<double>(lines) / wall, "lines/s");
  report.add("lag_p50_ms", lag_percentile(0.50), "ms");
  report.add("lag_p99_ms", lag_percentile(0.99), "ms");
  report.add("setup_s",
             median(each(passes, [](auto& p) { return p.setup_s; })), "s");
  // Peak memory of the run: the highest of the per-pass peaks.
  const std::vector<double> rss =
      each(passes, [](auto& p) { return p.stream_rss_mb; });
  report.add("stream_rss_mb", *std::max_element(rss.begin(), rss.end()),
             "MiB");
  std::vector<double> recall = each(passes, [](auto& p) { return p.recall; });
  std::vector<double> precision =
      each(passes, [](auto& p) { return p.precision; });
  report.add("anomaly_recall", *std::min_element(recall.begin(), recall.end()),
             "ratio");
  report.add("anomaly_precision",
             *std::min_element(precision.begin(), precision.end()), "ratio");
}

// Reports one stage's figures from the pipeline's own spans and returns
// its busy time: every attributed component except queue wait.
double stage_metrics(const trace::Report& tr, const std::string& stage,
                     Report& report) {
  const trace::StageReport* s = nullptr;
  for (const auto& candidate : tr.stages) {
    if (candidate.stage == stage) s = &candidate;
  }
  auto component = [&](const char* name) {
    if (s == nullptr) return 0.0;
    for (const auto& c : s->components) {
      if (c.name == name) return static_cast<double>(c.total_us);
    }
    return 0.0;
  };
  const std::string p = "streaming." + stage + ".";
  report.add(p + "queue_wait_us", component("queue_wait"), "us");
  report.add(p + "exec_us", component("exec"), "us");
  report.add(p + "route_us", component("route"), "us");
  report.add(p + "publish_us", component("publish"), "us");
  report.add(p + "batches", s ? static_cast<double>(s->batches) : 0, "count");
  report.add(p + "batch_p99_us", s ? s->p99_total_us : 0, "us");
  return s ? static_cast<double>(s->total_us) - component("queue_wait") : 0;
}

void per_layer(const Workload& w, const Input& in, const Args& args,
               Report& report, Outcome& outcome) {
  // Untraced and traced passes interleave so both see the same machine
  // state; trace.overhead compares their medians.
  const std::set<std::string> reference = warm_up(w, in, outcome);
  std::vector<PassResult> plain, traced;
  const auto start = Clock::now();
  do {
    plain.push_back(run_pass(w, in, false, outcome));
    traced.push_back(run_pass(w, in, true, outcome));
  } while (traced.size() < 2 ||
           seconds_between(start, Clock::now()) < args.seconds);
  if (w.live) {
    check_live_matches_drain(reference, plain, outcome);
    check_live_matches_drain(reference, traced, outcome);
  }
  const PassResult& last = traced.back();
  const double n = static_cast<double>(in.lines.size());
  std::map<std::string, double> iso = isolated_pass(in, last.build.model);

  std::vector<trace::Span> spans = last.pipeline_spans;
  trace::Report tr = trace::build_report(spans, 0);
  std::printf("%s seed=%llu traced passes=%zu lines/pass=%zu spans=%zu\n",
              w.name.c_str(), static_cast<unsigned long long>(args.seed),
              traced.size(), in.lines.size(), spans.size());
  std::printf("%s", trace::format_report(tr).c_str());

  const Ledger& ledger = last.ledger;
  const double wall_ns = last.wall_s * 1e9;
  const bool live = w.live;
  const double send_ns = static_cast<double>(ledger.ns("agent.send"));
  const double lm_ns = static_cast<double>(
      ledger.ns(live ? "log_manager.pump" : "log_manager.drain"));
  double sink_ns = static_cast<double>(ledger.ns("sink.consume"));
  for (const auto& s : spans) {
    if (s.name == "sink.flush") {
      sink_ns += static_cast<double>(s.duration_us) * 1e3;
    }
  }
  const double tick_ns = static_cast<double>(ledger.ns("heartbeat.tick"));

  report.add("agent.send_ns_per_line", send_ns / n, "ns");
  report.add("loadgen.late_max_ms", last.late_max_ms, "ms");
  auto L = [&](const char* name) {
    auto it = last.layer.find(name);
    return it == last.layer.end() ? 0.0 : it->second;
  };
  auto I = [&](const char* name) {
    auto it = iso.find(name);
    return it == iso.end() ? 0.0 : it->second;
  };
  report.add("broker.produced", L("broker.produced"), "count");
  report.add("broker.fetched", L("broker.fetched"), "count");
  report.add("broker.retained_msgs", L("broker.retained_msgs"), "count");
  report.add("broker.produce_ns_per_msg", I("broker.produce_ns_per_msg"), "ns");
  report.add("broker.fetch_ns_per_msg", I("broker.fetch_ns_per_msg"), "ns");
  report.add("log_manager.pump_ns_per_line", lm_ns / n, "ns");
  report.add("storage.archive_ns_per_line", I("storage.archive_ns_per_line"),
             "ns");
  report.add("storage.log_docs", L("storage.log_docs"), "count");
  report.add("storage.anomaly_docs", L("storage.anomaly_docs"), "count");
  const double parser_ns = stage_metrics(tr, "parser", report) * 1e3;
  const double detector_ns = stage_metrics(tr, "detector", report) * 1e3;
  report.add("tokenize.ns_per_line", I("tokenize.ns_per_line"), "ns");
  report.add("parser.ns_per_line", I("parser.ns_per_line"), "ns");
  report.add("parser.index_hit_ratio", L("parser.index_hit_ratio"), "ratio");
  report.add("parser.index_lookups", L("parser.index_lookups"), "count");
  report.add("parser.match_attempts_per_line",
             L("parser.match_attempts_per_line"), "count");
  report.add("parser.set_fallbacks", L("parser.set_fallbacks"), "count");
  report.add("parser.unparsed", L("parser.unparsed"), "count");
  report.add("detector.ns_per_log", I("detector.ns_per_log"), "ns");
  report.add("detector.heartbeat_us", I("detector.heartbeat_us"), "us");
  report.add("detector.open_events_max", I("detector.open_events_max"),
             "count");
  report.add("detector.events_closed", L("detector.events_closed"), "count");
  report.add("detector.events_expired", L("detector.events_expired"), "count");
  report.add("detector.stale_pop_ratio", L("detector.stale_pop_ratio"),
             "ratio");
  report.add("detector.heap_pops", L("detector.heap_pops"), "count");
  report.add("model_builder.discovery_s", last.build.discovery_seconds, "s");
  report.add("model_builder.total_s", last.build.total_seconds, "s");
  report.add("sink.anomaly_latency_p50_ms",
             percentile(last.anomaly_latency_ms, 0.5), "ms");
  report.add("sink.anomaly_samples",
             static_cast<double>(last.anomaly_latency_ms.size()), "count");
  report.add("lag.samples", static_cast<double>(last.lag_ms.size()), "count");

  // The ledger: time each named layer accounts for against the traced
  // pass's wall time. In drain() mode the layers run one after another, so
  // coverage near 1 means the wall time is fully attributed; in live mode
  // they overlap and coverage is total busy time over wall time.
  const double attributed =
      send_ns + lm_ns + parser_ns + detector_ns + sink_ns + tick_ns;
  const double isolated = I("isolated.parse_detect_ns");
  std::printf("ledger (traced pass, wall %.1f ms)\n", wall_ns / 1e6);
  auto row = [&](const char* name, double ns) {
    std::printf("  %-28s %10.1f ms %6.1f%%\n", name, ns / 1e6,
                100.0 * ns / wall_ns);
  };
  row("agent.send", send_ns);
  row(live ? "log_manager.pump" : "log_manager.drain", lm_ns);
  row("parser stage (busy)", parser_ns);
  row("detector stage (busy)", detector_ns);
  row("sink", sink_ns);
  row("heartbeat.tick", tick_ns);
  if (!live) row("unattributed", wall_ns - attributed);
  row("isolated tokenize+parse+detect", isolated);
  report.add("ledger.coverage", attributed / wall_ns, "ratio");
  report.add("ledger.isolated_share", isolated / wall_ns, "ratio");
  const double plain_tput =
      median(each(plain, [](auto& p) { return p.throughput_lps; }));
  const double traced_tput =
      median(each(traced, [](auto& p) { return p.throughput_lps; }));
  report.add("trace.overhead", 1.0 - traced_tput / plain_tput, "ratio");
  report.add("failed_ratio",
             outcome.attempted == 0
                 ? 0.0
                 : static_cast<double>(outcome.failed) / outcome.attempted,
             "ratio");

  if (!args.trace_out.empty()) {
    std::vector<trace::Span> all = spans;
    for (const auto& s : last.ledger.spans()) all.push_back(s);
    std::ofstream out(args.trace_out);
    out << trace::chrome_trace_json(all).dump() << "\n";
  }
}

int run(int argc, char** argv) {
  Args args;
  if (!parse_args(argc, argv, args)) {
    std::fprintf(stderr,
                 "usage: loglens_e2e --workload d1-batch|d4-batch|d1-live "
                 "[--seed N] [--seconds S] [--trace 0|1] [--trace-out F]\n");
    return 2;
  }
  Workload w;
  w.name = args.workload;
  if (w.name == "d1-batch" || w.name == "d4-batch") {
    w.partitions = 1;
  } else if (w.name == "d1-live") {
    w.live = true;
    w.partitions = 2;
    w.live_rate_lps = kLiveRateLps;
    w.live_seconds = kLiveStreamSeconds;
  } else {
    std::fprintf(stderr, "unknown workload '%s'\n", w.name.c_str());
    return 2;
  }
  trace::set_enabled(false);
  const Input in = make_input(w, args.seed);
  Report report;
  Outcome outcome;
  if (args.trace) {
    per_layer(w, in, args, report, outcome);
  } else {
    end_to_end(w, in, args, report, outcome);
  }
  std::printf(
      "{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
      "\"metrics\": %s}\n",
      outcome.correct ? "true" : "false",
      static_cast<unsigned long long>(outcome.attempted),
      static_cast<unsigned long long>(outcome.failed), report.json().c_str());
  return outcome.correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::run(argc, argv); }
