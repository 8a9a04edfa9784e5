// Statistics helpers, the benchmark-side span ledger, and the isolated
// layer pass.
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <fstream>

#include "automata/detector.h"
#include "bench.h"
#include "broker/broker.h"
#include "common/clock.h"
#include "parser/log_parser.h"
#include "storage/stores.h"
#include "tokenize/preprocessor.h"

namespace perfbench {

using namespace loglens;

double median(std::vector<double> values) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : (values[n / 2 - 1] + values[n / 2]) / 2;
}

double percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const auto rank =
      static_cast<size_t>(std::ceil(q * static_cast<double>(values.size())));
  return values[std::clamp<size_t>(rank, 1, values.size()) - 1];
}

double rss_mb() {
  std::ifstream statm("/proc/self/statm");
  long pages_total = 0;
  long pages_resident = 0;
  statm >> pages_total >> pages_resident;
  return static_cast<double>(pages_resident) *
         static_cast<double>(sysconf(_SC_PAGESIZE)) / (1024.0 * 1024.0);
}

uint64_t Ledger::begin() const { return trace_clock::now_us(); }

void Ledger::end(const std::string& name, uint64_t start_us) {
  trace::Span span;
  span.span_id = trace::new_span_id();
  span.start_us = start_us;
  span.duration_us = trace_clock::now_us() - start_us;
  span.tid = trace::current_tid();
  span.name = "bench." + name;
  add_ns(name, span.duration_us * 1000);
  spans_.push_back(std::move(span));
}

uint64_t Ledger::ns(const std::string& layer) const {
  auto it = ns_.find(layer);
  return it == ns_.end() ? 0 : it->second;
}

namespace {

// Calls fn() and returns its duration in nanoseconds.
template <typename Fn>
uint64_t timed(Fn&& fn) {
  const auto t0 = Clock::now();
  fn();
  return ns_between(t0, Clock::now());
}

double per(uint64_t total, uint64_t n) {
  return n == 0 ? 0 : static_cast<double>(total) / static_cast<double>(n);
}

}  // namespace

std::map<std::string, double> isolated_pass(const Input& in,
                                            const CompositeModel& model) {
  std::map<std::string, double> out;
  const size_t n = in.lines.size();

  // tokenize -> parse -> detect, one call at a time, as a parser task and
  // a detector task would see the stream (a heartbeat every 1024 logs at
  // the latest log time stands in for the heartbeat controller).
  auto pre = Preprocessor::create(in.build.preprocessor);
  if (!pre.ok()) pre = Preprocessor::create({});
  Preprocessor& preprocessor = pre.value();
  LogParser parser(model.patterns, preprocessor.classifier());
  SequenceDetector detector(model.sequence);
  TokenizedLog tokenized;
  ParsedLog parsed;
  uint64_t tokenize_ns = 0, parse_ns = 0, detect_ns = 0, heartbeat_ns = 0;
  uint64_t detected = 0, heartbeats = 0;
  size_t open_max = 0;
  int64_t latest_ts = -1;
  for (size_t i = 0; i < n; ++i) {
    tokenize_ns +=
        timed([&] { preprocessor.process_into(in.lines[i], tokenized); });
    bool ok = false;
    parse_ns +=
        timed([&] { ok = parser.parse_into(std::move(tokenized), parsed); });
    if (!ok) continue;
    latest_ts = std::max(latest_ts, parsed.timestamp_ms);
    const std::string& source = in.sources[in.source_of[i]];
    detect_ns += timed([&] { (void)detector.on_log(parsed, source); });
    ++detected;
    open_max = std::max(open_max, detector.open_events());
    if (detected % 1024 == 0 && latest_ts >= 0) {
      heartbeat_ns += timed([&] { (void)detector.on_heartbeat(latest_ts); });
      ++heartbeats;
    }
  }
  heartbeat_ns += timed([&] {
    (void)detector.on_heartbeat(std::max<int64_t>(latest_ts, 0) +
                                24L * 3600 * 1000);
  });
  ++heartbeats;

  out["tokenize.ns_per_line"] = per(tokenize_ns, n);
  out["parser.ns_per_line"] = per(parse_ns, n);
  out["detector.ns_per_log"] = per(detect_ns, detected);
  out["detector.heartbeat_us"] = per(heartbeat_ns, heartbeats) / 1000.0;
  out["detector.open_events_max"] = static_cast<double>(open_max);
  out["isolated.parse_detect_ns"] =
      static_cast<double>(tokenize_ns + parse_ns + detect_ns);

  // Broker: the whole stream through produce_batch into one fresh topic in
  // engine-sized batches (2048), then fetched back in the same batches.
  {
    MetricsRegistry registry;
    Broker broker(&registry);
    broker.create_topic("logs", 1);
    constexpr size_t kBatch = 2048;
    uint64_t produce_ns = 0, fetch_ns = 0, fetched = 0;
    for (size_t i = 0; i < n; i += kBatch) {
      std::vector<Message> batch;
      batch.reserve(std::min(kBatch, n - i));
      for (size_t j = i; j < std::min(n, i + kBatch); ++j) {
        Message m;
        m.key = in.sources[in.source_of[j]];
        m.source = m.key;
        m.value = in.lines[j];
        batch.push_back(std::move(m));
      }
      produce_ns += timed(
          [&] { (void)broker.produce_batch("logs", std::move(batch)); });
    }
    for (uint64_t offset = 0; offset < n;) {
      size_t got = 0;
      fetch_ns += timed(
          [&] { got = broker.fetch("logs", 0, offset, kBatch).size(); });
      if (got == 0) break;
      offset += got;
      fetched += got;
    }
    out["broker.produce_ns_per_msg"] = per(produce_ns, n);
    out["broker.fetch_ns_per_msg"] = per(fetch_ns, fetched);
  }

  // Archive: every line into a fresh in-memory log store.
  {
    LogStore store;
    uint64_t add_ns = 0;
    for (size_t i = 0; i < n; ++i) {
      add_ns += timed(
          [&] { store.add(in.sources[in.source_of[i]], in.lines[i], -1); });
    }
    out["storage.archive_ns_per_line"] = per(add_ns, n);
  }
  return out;
}

}  // namespace perfbench
