// Workload generation and the two streaming passes: drain() batch mode and
// the background start()/stop() live mode.
#include <malloc.h>

#include <algorithm>
#include <cmath>
#include <thread>

#include "bench.h"
#include "common/hash.h"
#include "common/rng.h"
#include "datagen/datasets.h"
#include "service/service.h"
#include "service/wire.h"

namespace perfbench {

using namespace loglens;

namespace {

// D1 test split at scale 16: ~231k lines. Long enough that the broker's
// per-batch reserve of the whole retained partition and the unbounded
// retention dominate (drain() throughput at this length is well under
// half of the 14k-line figure).
constexpr double kD1BatchScale = 16;
// Lines per D1 unit of scale (14.5k test lines at scale 1).
constexpr double kD1LinesPerScale = 14450;
// D4 training split at scale 0.05 (20k lines: every one of the 3234
// templates at least three times, so logmine discovery is a real share of
// set-up) and the 100k-line test split at scale 0.25. The templates depend
// only on the seed, so both splits share one template set.
constexpr double kD4TrainScale = 0.05;
constexpr double kD4StreamScale = 0.25;
// Injected D4 lines no trained pattern can parse; each must come back as
// an unparsed-log anomaly.
constexpr size_t kD4Injected = 24;
constexpr int64_t kFarFutureMs = 24L * 3600 * 1000;
constexpr size_t kLiveSources = 4;

std::string event_id_of(const std::string& line) {
  const size_t at = line.find(" ev-");
  if (at == std::string::npos) return {};
  const size_t end = line.find(' ', at + 1);
  return line.substr(at + 1, end == std::string::npos ? std::string::npos
                                                      : end - at - 1);
}

std::string injected_d4_line(const std::string& neighbour, Rng& rng) {
  // Same timestamp and node as a real line, unseen words and shape.
  const size_t ts_end = neighbour.find(' ');
  std::string line = neighbour.substr(0, ts_end);
  line += " perfbench-probe sector=" + rng.hex(8) + " unreadable after " +
          std::to_string(rng.below(1000)) + " retries";
  return line;
}

ServiceOptions service_options(const Workload& w, const Input& in,
                               MetricsRegistry* registry) {
  ServiceOptions o;
  o.parser_partitions = w.partitions;
  o.detector_partitions = w.partitions;
  o.workers = w.partitions;
  o.build = in.build;
  o.metrics = registry;
  return o;
}

std::vector<Agent> make_agents(LogLensService& service, const Input& in) {
  std::vector<Agent> agents;
  for (const auto& s : in.sources) agents.push_back(service.make_agent(s));
  return agents;
}

uint64_t sum_partitions(MetricsRegistry& r, const std::string& name,
                        size_t partitions) {
  uint64_t total = 0;
  for (size_t p = 0; p < partitions; ++p) {
    total += r.counter(name, {{"partition", std::to_string(p)}}).value();
  }
  return total;
}

// Samples resident memory every 2 ms until stopped; returns the peak.
class RssSampler {
 public:
  double stop() {
    if (thread_.joinable()) {
      thread_.request_stop();
      thread_.join();
    }
    return peak_;
  }

 private:
  double peak_ = 0;
  std::jthread thread_{[this](std::stop_token stop) {
    while (!stop.stop_requested()) {
      peak_ = std::max(peak_, rss_mb());
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    peak_ = std::max(peak_, rss_mb());
  }};
};

// Checks the service's outputs against the input's ground truth and fills
// the correctness fields and the per-layer counters of `r`. Call after the
// final far-future heartbeat and drain.
void score(LogLensService& service, MetricsRegistry& registry,
           const Workload& w, const Input& in, PassResult& r) {
  const size_t n = in.lines.size();
  const std::set<std::string>& truth =
      in.anomalous_ids.empty() ? in.injected_lines : in.anomalous_ids;
  std::set<std::string> reported;
  std::string false_positive;  // the first one, for the failure message
  size_t injected_found = 0;
  for (const auto& a : service.anomalies().all()) {
    std::string key = a.event_id;
    if (!a.event_id.empty()) {
      r.reported_ids.insert(a.event_id);
    } else if (!a.logs.empty()) {
      key = a.logs.front();
      injected_found += in.injected_lines.count(key);
    } else {
      key = a.reason;
    }
    if (false_positive.empty() && truth.count(key) == 0) {
      false_positive = key + " (" + a.reason + ")";
    }
    reported.insert(std::move(key));
  }
  size_t hits = 0;
  for (const auto& key : reported) hits += truth.count(key);
  r.recall = truth.empty() ? 1.0 : static_cast<double>(hits) / truth.size();
  r.precision =
      reported.empty() ? 0.0 : static_cast<double>(hits) / reported.size();
  if (hits != truth.size() || hits != reported.size()) {
    r.check_failures.push_back(
        "anomalies: " + std::to_string(hits) + " of " +
        std::to_string(truth.size()) + " expected reported, " +
        std::to_string(reported.size()) + " reported in total" +
        (false_positive.empty() ? ""
                                : "; first unexpected: " + false_positive));
  }
  if (service.log_store().size() != n) {
    r.check_failures.push_back(
        "archive holds " + std::to_string(service.log_store().size()) +
        " lines, sent " + std::to_string(n));
  }
  const uint64_t dead = service.broker().end_offset("dead_letters", 0);
  if (dead != 0) {
    r.check_failures.push_back("dead_letters holds " + std::to_string(dead) +
                               " messages");
  }
  // A line is processed when the detector consumed it or, for an injected
  // line, when it came back as an unparsed-log anomaly.
  const uint64_t processed =
      sum_partitions(registry, "loglens_detector_logs_total", w.partitions) +
      injected_found;
  r.sent = n;
  r.failed_lines = processed >= n ? 0 : n - processed;
  if (r.failed_lines != 0) {
    r.check_failures.push_back(std::to_string(r.failed_lines) +
                               " sent lines never processed");
  }

  const size_t p = w.partitions;
  auto& L = r.layer;
  L["parser.logs"] = sum_partitions(registry, "loglens_parser_logs_total", p);
  L["parser.unparsed"] =
      sum_partitions(registry, "loglens_parser_unparsed_total", p);
  const double hits_idx =
      sum_partitions(registry, "loglens_parser_index_hits_total", p);
  const double misses_idx =
      sum_partitions(registry, "loglens_parser_index_misses_total", p);
  L["parser.index_lookups"] = hits_idx + misses_idx;
  L["parser.index_hit_ratio"] =
      hits_idx + misses_idx > 0 ? hits_idx / (hits_idx + misses_idx) : 0;
  L["parser.match_attempts_per_line"] =
      L["parser.logs"] > 0
          ? sum_partitions(registry, "loglens_parser_match_attempts_total", p) /
                L["parser.logs"]
          : 0;
  L["parser.set_fallbacks"] =
      sum_partitions(registry, "loglens_grok_set_fallbacks_total", p);
  L["detector.events_closed"] =
      sum_partitions(registry, "loglens_detector_events_closed_total", p);
  const double expired =
      sum_partitions(registry, "loglens_detector_events_expired_total", p);
  const double stale =
      sum_partitions(registry, "loglens_detector_stale_pops_total", p);
  L["detector.events_expired"] = expired;
  L["detector.heap_pops"] = stale + expired;
  L["detector.stale_pop_ratio"] =
      stale + expired > 0 ? stale / (stale + expired) : 0;
  double produced = 0, fetched = 0, retained = 0;
  Broker& broker = service.broker();
  for (const auto& topic : broker.topics()) {
    produced += registry
                    .counter("loglens_broker_messages_produced_total",
                             {{"topic", topic}})
                    .value();
    fetched += registry
                   .counter("loglens_broker_messages_fetched_total",
                            {{"topic", topic}})
                   .value();
    for (size_t q = 0; q < broker.partition_count(topic); ++q) {
      retained += broker.end_offset(topic, q);
    }
  }
  L["broker.produced"] = produced;
  L["broker.fetched"] = fetched;
  L["broker.retained_msgs"] = retained;
  L["storage.log_docs"] = service.log_store().size();
  L["storage.anomaly_docs"] = service.anomalies().count();
}

// Sink latency of the ground-truth anomalies visible at `seen`, measured
// from the send time of each anomaly's last line.
template <typename SentAt>
void sink_latencies(const std::vector<Anomaly>& anomalies, const Input& in,
                    Clock::time_point seen, SentAt&& sent_at,
                    std::vector<double>& out) {
  for (const auto& a : anomalies) {
    const std::string& key =
        !a.event_id.empty() ? a.event_id
                            : (a.logs.empty() ? a.reason : a.logs.front());
    auto it = in.last_line_of.find(key);
    if (it == in.last_line_of.end()) continue;
    out.push_back(seconds_between(sent_at(it->second), seen) * 1e3);
  }
}

}  // namespace

Input make_input(const Workload& w, uint64_t seed) {
  Input in;
  if (w.name == "d4-batch") {
    in.training = make_d4(kD4TrainScale, seed).training;
    Dataset d4 = make_d4(kD4StreamScale, seed);
    in.build.discovery = recommended_discovery("D4");
    Rng rng(seed ^ 0x5eedf00dULL);
    std::vector<size_t> at;
    for (size_t k = 0; k < kD4Injected; ++k) {
      at.push_back(rng.below(d4.testing.size()));
    }
    std::sort(at.begin(), at.end());
    size_t next = 0;
    for (size_t i = 0; i < d4.testing.size(); ++i) {
      while (next < at.size() && at[next] == i) {
        std::string line = injected_d4_line(d4.testing[i], rng);
        in.injected_lines.insert(line);
        in.last_line_of[line] = in.lines.size();
        in.lines.push_back(std::move(line));
        ++next;
      }
      in.lines.push_back(std::move(d4.testing[i]));
    }
    in.sources = {"d4"};
    in.source_of.assign(in.lines.size(), 0);
    return in;
  }

  // D1: the model is always trained on the paper-size (scale 1) training
  // split — 7 patterns, 2 automata — whatever the stream length.
  in.training = make_d1(1.0, seed).training;
  in.build.discovery = recommended_discovery("D1");
  const double scale =
      w.live ? w.live_rate_lps * w.live_seconds / kD1LinesPerScale
             : kD1BatchScale;
  Dataset d1 = make_d1(scale, seed);
  in.lines = std::move(d1.testing);
  in.anomalous_ids = std::move(d1.anomalous_event_ids);
  if (w.live) {
    for (size_t s = 0; s < kLiveSources; ++s) {
      in.sources.push_back("d1-agent-" + std::to_string(s));
    }
  } else {
    in.sources = {"d1"};
  }
  in.source_of.resize(in.lines.size());
  for (size_t i = 0; i < in.lines.size(); ++i) {
    const std::string id = event_id_of(in.lines[i]);
    // All lines of one event go through one source, so no two sources
    // share an event id.
    in.source_of[i] =
        static_cast<uint32_t>(fnv1a(id) % in.sources.size());
    if (in.anomalous_ids.count(id) != 0) in.last_line_of[id] = i;
  }
  return in;
}

PassResult run_batch_pass(const Workload& w, const Input& in, bool traced) {
  PassResult r;
  const size_t n = in.lines.size();
  malloc_trim(0);
  MetricsRegistry registry;
  LogLensService service(service_options(w, in, &registry));
  const auto t_setup = Clock::now();
  r.build = service.train(in.training);
  r.setup_s = seconds_between(t_setup, Clock::now());
  const double rss_base = rss_mb();
  std::vector<Agent> agents = make_agents(service, in);

  // Send times are taken per chunk of lines, not per line, to keep clock
  // reads off the measured path.
  constexpr size_t kChunk = 256;
  std::vector<Clock::time_point> chunk_sent;
  chunk_sent.reserve(n / kChunk + 1);
  RssSampler sampler;
  const auto start = Clock::now();
  uint64_t span = r.ledger.begin();
  for (size_t i = 0; i < n; i += kChunk) {
    chunk_sent.push_back(Clock::now());
    const size_t end = std::min(n, i + kChunk);
    for (size_t j = i; j < end; ++j) {
      agents[in.source_of[j]].send_line(in.lines[j]);
    }
  }
  // A batch replay has every line due at the start, so the generator is
  // late by as much as the replay takes to hand over its last line.
  r.late_max_ms = seconds_between(start, Clock::now()) * 1e3;
  if (traced) {
    r.ledger.end("agent.send", span);
    span = r.ledger.begin();
    service.log_manager().drain();
    r.ledger.end("log_manager.drain", span);
    span = r.ledger.begin();
    service.drain();
    r.ledger.end("service.drain", span);
  } else {
    service.drain();
  }
  const auto done = Clock::now();
  r.stream_rss_mb = sampler.stop() - rss_base;
  r.wall_s = seconds_between(start, done);
  r.throughput_lps = static_cast<double>(n) / r.wall_s;
  r.lag_ms.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    r.lag_ms.push_back(seconds_between(chunk_sent[i / kChunk], done) * 1e3);
  }
  // In drain() mode every result becomes visible when drain() returns.
  sink_latencies(
      service.anomalies().all(), in, done,
      [&](size_t line) { return chunk_sent[line / kChunk]; },
      r.anomaly_latency_ms);
  if (traced) r.pipeline_spans = registry.take_trace_spans();

  service.heartbeat_advance(kFarFutureMs);
  service.drain();
  score(service, registry, w, in, r);
  return r;
}

PassResult run_live_pass(const Workload& w, const Input& in, bool traced) {
  PassResult r;
  const size_t n = in.lines.size();
  const size_t expected = n - in.injected_lines.size();
  malloc_trim(0);
  MetricsRegistry registry;
  LogLensService service(service_options(w, in, &registry));
  const auto t_setup = Clock::now();
  r.build = service.train(in.training);
  r.setup_s = seconds_between(t_setup, Clock::now());
  const double rss_base = rss_mb();
  std::vector<Agent> agents = make_agents(service, in);
  std::vector<Counter*> detected;
  for (size_t p = 0; p < w.partitions; ++p) {
    detected.push_back(&registry.counter("loglens_detector_logs_total",
                                         {{"partition", std::to_string(p)}}));
  }
  service.start();

  // Open loop: line i is due at start + i / rate, whatever the pipeline
  // does; lag is measured from that scheduled time.
  const auto start = Clock::now() + std::chrono::milliseconds(20);
  const double period_ns = 1e9 / w.live_rate_lps;
  auto due = [&](size_t i) {
    return start + std::chrono::nanoseconds(static_cast<int64_t>(
                       std::llround(static_cast<double>(i) * period_ns)));
  };

  // Threads are std::jthread: every exit path requests their stop and
  // joins them before the state they use goes away.
  RssSampler sampler;
  uint64_t send_ns = 0, late_max_ns = 0;
  std::jthread generator([&] {
    for (size_t i = 0; i < n; ++i) {
      const auto at = due(i);
      auto now = Clock::now();
      if (now < at) {
        std::this_thread::sleep_until(at);
        now = Clock::now();
      }
      late_max_ns = std::max(late_max_ns, ns_between(at, now));
      agents[in.source_of[i]].send_line(in.lines[i]);
      if (traced) send_ns += ns_between(now, Clock::now());
    }
  });
  // start() runs neither the log manager nor the anomaly sink: the
  // benchmark pumps the log manager itself and reads anomalies through its
  // own consumer.
  uint64_t pump_ns = 0;
  std::jthread pump([&](std::stop_token stop) {
    LogManager& lm = service.log_manager();
    while (!stop.stop_requested()) {
      const auto t0 = Clock::now();
      const size_t k = lm.pump();
      if (k == 0) {
        std::this_thread::sleep_for(std::chrono::microseconds(100));
        continue;
      }
      pump_ns += ns_between(t0, Clock::now());
    }
  });
  uint64_t sink_ns = 0;
  std::jthread sink([&](std::stop_token stop) {
    Consumer consumer(service.broker(), "anomalies");
    while (!stop.stop_requested()) {
      auto batch = consumer.poll_blocking(4096, 20);
      if (batch.empty()) continue;
      const auto seen = Clock::now();
      std::vector<Anomaly> anomalies;
      for (const auto& m : batch) {
        auto a = anomaly_from_message(m);
        if (a.ok()) anomalies.push_back(std::move(a.value()));
      }
      sink_latencies(anomalies, in, seen, due, r.anomaly_latency_ms);
      sink_ns += ns_between(seen, Clock::now());
    }
  });

  // Monitor: detection progress as seen from outside (the detector's
  // per-partition log counters), heartbeat ticks every 100 ms, and span
  // draining so per-thread span rings never overflow.
  std::vector<std::pair<Clock::time_point, uint64_t>> timeline;
  timeline.reserve(1 << 16);
  uint64_t last = 0;
  auto next_tick = start + std::chrono::milliseconds(100);
  auto next_spans = start + std::chrono::milliseconds(50);
  const auto give_up = due(n) + std::chrono::seconds(30);
  uint64_t tick_ns = 0;
  while (true) {
    uint64_t c = 0;
    for (Counter* counter : detected) c += counter->value();
    const auto now = Clock::now();
    if (c != last) {
      timeline.emplace_back(now, c);
      last = c;
    }
    if (c >= expected) break;
    if (now > give_up) {
      r.check_failures.push_back("live stream not fully detected within 30 s "
                                 "of the last scheduled send");
      break;
    }
    if (now >= next_tick) {
      const auto t0 = Clock::now();
      service.heartbeat_tick();
      tick_ns += ns_between(t0, Clock::now());
      next_tick += std::chrono::milliseconds(100);
    }
    if (traced && now >= next_spans) {
      for (auto& s : registry.take_trace_spans()) {
        r.pipeline_spans.push_back(std::move(s));
      }
      next_spans += std::chrono::milliseconds(50);
    }
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
  generator.join();
  r.stream_rss_mb = sampler.stop() - rss_base;
  pump.request_stop();
  pump.join();
  sink.request_stop();
  sink.join();
  if (traced) {
    for (auto& s : registry.take_trace_spans()) {
      r.pipeline_spans.push_back(std::move(s));
    }
  }
  r.late_max_ms = static_cast<double>(late_max_ns) / 1e6;
  r.ledger.add_ns("agent.send", send_ns);
  r.ledger.add_ns("log_manager.pump", pump_ns);
  r.ledger.add_ns("sink.consume", sink_ns);
  r.ledger.add_ns("heartbeat.tick", tick_ns);

  // Line i counts as detected at the first observation where the detector
  // had consumed more than i lines.
  r.lag_ms.reserve(n);
  size_t k = 0;
  for (size_t i = 0; i < n && k < timeline.size(); ++i) {
    while (k < timeline.size() && timeline[k].second < i + 1) ++k;
    if (k == timeline.size()) break;
    r.lag_ms.push_back(seconds_between(due(i), timeline[k].first) * 1e3);
  }
  const auto finished = timeline.empty() ? due(0) : timeline.back().first;
  r.wall_s = seconds_between(start, finished);
  r.throughput_lps = static_cast<double>(expected) / r.wall_s;

  service.stop();
  service.heartbeat_advance(kFarFutureMs);
  service.drain();
  score(service, registry, w, in, r);
  return r;
}

std::set<std::string> drain_reference_ids(const Workload& w,
                                          const Input& in) {
  MetricsRegistry registry;
  LogLensService service(service_options(w, in, &registry));
  service.train(in.training);
  std::vector<Agent> agents = make_agents(service, in);
  for (size_t i = 0; i < in.lines.size(); ++i) {
    agents[in.source_of[i]].send_line(in.lines[i]);
  }
  service.drain();
  service.heartbeat_advance(kFarFutureMs);
  service.drain();
  std::set<std::string> ids;
  for (const auto& a : service.anomalies().all()) {
    if (!a.event_id.empty()) ids.insert(a.event_id);
  }
  return ids;
}

}  // namespace perfbench
