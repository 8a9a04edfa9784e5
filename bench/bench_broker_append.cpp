// Broker partition appends as a function of retained messages.
//
// The broker retains every message it is given, so a long stream grows one
// partition log to millions of entries. An append must cost the same at 1M
// retained messages as at 128k: a log that relocates its retained messages
// on append (for instance a vector reserved to exactly size()+n per batch,
// which defeats geometric growth) pays O(retained) per batch, and a stream
// through it turns quadratic.
//
// The bench produces 2048-message batches (the stream engine's batch size)
// into one partition until 1M messages are retained, timing only the
// produce_batch calls. It reports ns/msg over the 64k messages appended
// just before the log reaches each of four retained sizes (128k, 256k,
// 512k, 1M: an 8x range) and exits 1 when the cost at 1M exceeds 2x the
// cost at 128k.
//
// Writes BENCH_broker.json (same shape as BENCH_detector.json; gated in CI
// by tools/bench_compare.py):
//   broker_append_128k  messages/sec appended at ~128k retained
//   broker_append_256k  ... at ~256k retained
//   broker_append_512k  ... at ~512k retained
//   broker_append_1m    ... at ~1M retained
//
// LOGLENS_SCALE scales every size (default 1.0).
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "broker/broker.h"
#include "json/json.h"
#include "metrics/metrics.h"

namespace loglens {
namespace {

constexpr size_t kBatch = 2048;

struct StageResult {
  std::string stage;
  size_t retained = 0;
  double ns_per_msg = 0;
};

std::vector<Message> make_batch(size_t first) {
  std::vector<Message> batch(kBatch);
  for (size_t i = 0; i < kBatch; ++i) {
    // Short enough for the small-string buffer: the bench times the log's
    // append, not the allocator.
    batch[i].value = std::to_string(first + i);
    batch[i].source = "bench";
  }
  return batch;
}

// Appends batches until each checkpoint size is retained; the cost at a
// checkpoint is the mean over the `window` messages appended just before it.
std::vector<StageResult> run(const std::vector<size_t>& checkpoints,
                             size_t window) {
  MetricsRegistry registry;
  Broker broker(&registry);
  (void)broker.create_topic("t", 1);
  std::vector<StageResult> out;
  size_t retained = 0;
  double window_ns = 0;
  size_t window_msgs = 0;
  for (size_t next = 0; next < checkpoints.size();) {
    std::vector<Message> batch = make_batch(retained);
    const auto t0 = std::chrono::steady_clock::now();
    (void)broker.produce_batch("t", std::move(batch));
    const double ns = std::chrono::duration<double, std::nano>(
                          std::chrono::steady_clock::now() - t0)
                          .count();
    retained += kBatch;
    if (retained + window > checkpoints[next]) {
      window_ns += ns;
      window_msgs += kBatch;
    }
    if (retained >= checkpoints[next]) {
      StageResult r;
      r.retained = retained;
      r.ns_per_msg = window_ns / static_cast<double>(window_msgs);
      out.push_back(r);
      window_ns = 0;
      window_msgs = 0;
      ++next;
    }
  }
  return out;
}

void write_bench_json(const std::vector<StageResult>& results) {
  JsonObject root;
  root.emplace_back("benchmark", Json("bench_broker_append"));
  JsonArray stages;
  for (const auto& r : results) {
    JsonObject obj;
    obj.emplace_back("stage", Json(r.stage));
    obj.emplace_back("msgs_per_sec", Json(1e9 / r.ns_per_msg));
    obj.emplace_back("ns_per_msg", Json(r.ns_per_msg));
    obj.emplace_back("retained", Json(static_cast<int64_t>(r.retained)));
    stages.push_back(Json(std::move(obj)));
  }
  root.emplace_back("stages", Json(std::move(stages)));
  std::ofstream out("BENCH_broker.json");
  out << Json(std::move(root)).dump() << "\n";
}

}  // namespace
}  // namespace loglens

int main() {
  using loglens::kBatch;
  const double scale = loglens::bench::scale_or(1.0);
  // Whole batches, so every checkpoint is reached exactly.
  auto batches = [&](double msgs) {
    return std::max<size_t>(1, static_cast<size_t>(msgs * scale / kBatch)) *
           kBatch;
  };
  const std::vector<size_t> checkpoints = {
      batches(131072), batches(262144), batches(524288), batches(1048576)};
  const char* names[] = {"broker_append_128k", "broker_append_256k",
                         "broker_append_512k", "broker_append_1m"};
  const size_t window = std::min(batches(65536), checkpoints[0]);

  loglens::bench::print_header("broker partition append vs retained size");
  std::vector<loglens::StageResult> results =
      loglens::run(checkpoints, window);
  for (size_t i = 0; i < results.size(); ++i) {
    results[i].stage = names[i];
    std::printf("%s: %zu retained, %.1f ns/msg\n", names[i],
                results[i].retained, results[i].ns_per_msg);
  }
  loglens::write_bench_json(results);

  // Flatness gate: 8x the retained messages may cost at most 2x per
  // message. An append that relocates the retained log grows ~linearly.
  const double ratio = results.back().ns_per_msg / results.front().ns_per_msg;
  const bool ok = ratio <= 2.0;
  std::printf("flatness %s vs %s: %.2fx the cost per message — %s\n",
              names[3], names[0], ratio,
              ok ? "flat" : "NOT FLAT (appends relocate the log?)");
  return ok ? 0 : 1;
}
