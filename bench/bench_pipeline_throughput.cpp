// End-to-end service throughput: logs/second through the full pipeline
// (ingest -> parser stage -> detector stage -> anomaly sink), the
// deployment-scale quantity behind the paper's "handling millions of logs".
//
// Hand-rolled main (no google-benchmark) because this binary is also the
// pipeline *profiler*: it runs the same workload twice — tracing disabled,
// then tracing enabled — and writes three machine-readable artifacts:
//
//   BENCH_pipeline_notrace.json  stage throughput with tracing off (the
//                                number CI compares against the committed
//                                baseline, and the denominator of the
//                                tracing-overhead gate)
//   BENCH_pipeline.json          stage throughput with tracing on (same
//                                shape; CI bounds the notrace->traced drop
//                                via tools/bench_compare.py)
//   BENCH_pipeline_profile.json  the trace-derived attribution: per-stage
//                                latency breakdown (queue wait / control /
//                                route / exec / collect / publish), span
//                                accounting, lock-contention profile
//
// It also enforces the attribution's integrity in-process: for each stage,
// the components the report attributes must sum to within 10% of the
// measured end-to-end batch latency (coverage in [0.9, 1.1]) or the run
// exits 1 — a tracing hook that silently loses a hop fails the bench, not
// just the dashboard.
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <utility>
#include <vector>

#include "common/clock.h"
#include "common/lock_rank.h"
#include "datagen/datasets.h"
#include "json/json.h"
#include "metrics/metrics.h"
#include "service/service.h"
#include "trace/report.h"
#include "trace/trace.h"

namespace loglens {
namespace {

struct Fixture {
  Dataset dataset;
  ServiceOptions options;
};

const Fixture& fixture() {
  static const Fixture* kFixture = [] {
    auto* f = new Fixture();
    f->dataset = make_d1(0.1);
    f->options.build.discovery = recommended_discovery("D1");
    return f;
  }();
  return *kFixture;
}

size_t bench_reps() {
  if (const char* env = std::getenv("LOGLENS_BENCH_REPS")) {
    long reps = std::atol(env);
    if (reps > 0) return static_cast<size_t>(reps);
  }
  return 3;
}

// One full pipeline pass: fresh service, train, replay the test split,
// drain to the anomaly sink. Metrics and spans accumulate in the global
// registry across calls (the per-phase reset is the caller's job).
void run_pipeline(size_t partitions, size_t workers) {
  const Fixture& f = fixture();
  ServiceOptions opts = f.options;
  opts.parser_partitions = partitions;
  opts.detector_partitions = partitions;
  opts.workers = workers;
  LogLensService service(opts);
  service.train(f.dataset.training);
  Agent agent = service.make_agent("bench");
  agent.replay(f.dataset.testing);
  service.drain();
}

// Summarizes one engine stage from the global metrics registry. Counters
// accumulate across every rep in a phase (training drains included), which
// is fine for a trajectory metric.
Json stage_report(const std::string& stage) {
  auto& registry = MetricsRegistry::global();
  MetricLabels labels{{"stage", stage}};
  uint64_t records =
      registry.counter("loglens_engine_records_total", labels).value();
  Histogram::Snapshot batch =
      registry.histogram("loglens_engine_batch_duration_us", labels)
          .snapshot();
  double busy_seconds = static_cast<double>(batch.sum) / 1e6;
  JsonObject obj;
  obj.emplace_back("stage", Json(stage));
  obj.emplace_back("records", Json(static_cast<int64_t>(records)));
  obj.emplace_back("batches", Json(static_cast<int64_t>(batch.count)));
  obj.emplace_back("msgs_per_sec",
                   Json(busy_seconds > 0
                            ? static_cast<double>(records) / busy_seconds
                            : 0.0));
  obj.emplace_back("p50_batch_latency_us", Json(batch.p50));
  obj.emplace_back("p99_batch_latency_us", Json(batch.p99));
  return Json(std::move(obj));
}

struct PhaseResult {
  double parser_msgs_per_sec = 0;
  double detector_msgs_per_sec = 0;
  std::vector<trace::Span> spans;
  uint64_t spans_dropped = 0;
};

double stage_rate(const Json& stage) {
  const Json* rate = stage.find("msgs_per_sec");
  return rate != nullptr && rate->is_double() ? rate->as_double() : 0.0;
}

// Runs `reps` passes over the (1,1) and (4,4) configurations and writes a
// BENCH_<...>.json in the shared stages[] shape.
PhaseResult run_phase(const char* out_path, size_t reps) {
  auto& registry = MetricsRegistry::global();
  registry.reset();
  for (size_t rep = 0; rep < reps; ++rep) {
    run_pipeline(1, 1);
    run_pipeline(4, 4);
  }
  PhaseResult result;
  result.spans = registry.take_trace_spans();
  result.spans_dropped = registry.spans_dropped();

  JsonObject root;
  root.emplace_back("benchmark", Json("bench_pipeline_throughput"));
  JsonArray stages;
  Json parser = stage_report("parser");
  Json detector = stage_report("detector");
  result.parser_msgs_per_sec = stage_rate(parser);
  result.detector_msgs_per_sec = stage_rate(detector);
  stages.push_back(std::move(parser));
  stages.push_back(std::move(detector));
  root.emplace_back("stages", Json(std::move(stages)));
  std::ofstream out(out_path);
  out << Json(std::move(root)).dump() << "\n";
  std::printf("%s: parser %.0f msgs/s, detector %.0f msgs/s\n", out_path,
              result.parser_msgs_per_sec, result.detector_msgs_per_sec);
  return result;
}

Json overhead_entry(const char* stage, double notrace, double traced) {
  JsonObject obj;
  obj.emplace_back("stage", Json(stage));
  obj.emplace_back("notrace_msgs_per_sec", Json(notrace));
  obj.emplace_back("traced_msgs_per_sec", Json(traced));
  obj.emplace_back("overhead",
                   Json(notrace > 0 ? 1.0 - traced / notrace : 0.0));
  return Json(std::move(obj));
}

void write_profile(const trace::Report& report, const PhaseResult& notrace,
                   const PhaseResult& traced) {
  JsonObject root;
  root.emplace_back("benchmark", Json("bench_pipeline_profile"));
  root.emplace_back("report", trace::report_json(report));
  JsonArray overhead;
  overhead.push_back(overhead_entry("parser", notrace.parser_msgs_per_sec,
                                    traced.parser_msgs_per_sec));
  overhead.push_back(overhead_entry("detector", notrace.detector_msgs_per_sec,
                                    traced.detector_msgs_per_sec));
  root.emplace_back("tracing_overhead", Json(std::move(overhead)));
  root.emplace_back("mutex_profile_enabled",
                    Json(lock_rank::profiling_enabled()));
  JsonArray contention;
  for (const auto& stat : lock_rank::contention_profile()) {
    JsonObject row;
    row.emplace_back("rank", Json(stat.rank));
    row.emplace_back("name", Json(stat.name));
    row.emplace_back("contended", Json(static_cast<int64_t>(stat.contended)));
    row.emplace_back("wait_us_total",
                     Json(static_cast<int64_t>(stat.wait_us_total)));
    row.emplace_back("wait_us_max",
                     Json(static_cast<int64_t>(stat.wait_us_max)));
    contention.push_back(Json(std::move(row)));
  }
  root.emplace_back("contention", Json(std::move(contention)));
  std::ofstream out("BENCH_pipeline_profile.json");
  out << Json(std::move(root)).dump() << "\n";
}

// The attribution-integrity gate: every stage with a meaningful sample must
// account for its end-to-end batch latency to within 10%.
int check_coverage(const trace::Report& report) {
  int rc = 0;
  for (const auto& stage : report.stages) {
    if (stage.batches < 5) continue;
    if (stage.coverage < 0.9 || stage.coverage > 1.1) {
      std::fprintf(stderr,
                   "FAIL: stage %s attribution covers %.1f%% of end-to-end "
                   "batch latency (bound: 90%%..110%%)\n",
                   stage.stage.c_str(), stage.coverage * 100.0);
      rc = 1;
    }
  }
  return rc;
}

int run() {
  const size_t reps = bench_reps();

  // Phase A: tracing off — the clean throughput number.
  trace::set_enabled(false);
  PhaseResult notrace = run_phase("BENCH_pipeline_notrace.json", reps);
  if (!notrace.spans.empty()) {
    std::fprintf(stderr,
                 "FAIL: %zu span(s) recorded with tracing disabled\n",
                 notrace.spans.size());
    return 1;
  }

  // Phase B: the same workload with tracing on; the spans feed the
  // attribution report and the traced/notrace pair bounds the overhead.
  trace::set_enabled(true);
  lock_rank::contention_reset();
  PhaseResult traced = run_phase("BENCH_pipeline.json", reps);

  trace::Report report =
      trace::build_report(traced.spans, traced.spans_dropped);
  std::printf("\n%s", trace::format_report(report).c_str());
  write_profile(report, notrace, traced);
  if (traced.spans_dropped != 0) {
    std::fprintf(stderr,
                 "warning: %llu span(s) dropped (buffers overflowed); "
                 "attribution may undercount\n",
                 static_cast<unsigned long long>(traced.spans_dropped));
  }
  return check_coverage(report);
}

}  // namespace
}  // namespace loglens

int main() { return loglens::run(); }
