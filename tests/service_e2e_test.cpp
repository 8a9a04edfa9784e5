// End-to-end pipeline tests: agent -> parser stage -> detector stage ->
// anomaly store, with the log manager archiving beside the parser,
// heartbeats and live model updates.
#include <gtest/gtest.h>

#include <chrono>
#include <set>
#include <thread>

#include "datagen/datasets.h"
#include "metrics/metrics.h"
#include "service/service.h"

namespace loglens {
namespace {

ServiceOptions d1_options() {
  ServiceOptions opts;
  opts.build.discovery = recommended_discovery("D1");
  return opts;
}

// Streams the test corpus, then advances log time far enough to expire any
// open event.
void run_test_stream(LogLensService& service, Agent& agent,
                     const Dataset& ds, bool heartbeats) {
  agent.replay(ds.testing);
  service.drain();
  if (heartbeats) {
    service.heartbeat_advance(24L * 3600 * 1000);
    service.drain();
  }
}

std::set<std::string> anomalous_ids(const AnomalyStore& store) {
  std::set<std::string> ids;
  for (const auto& a : store.all()) {
    if (!a.event_id.empty()) ids.insert(a.event_id);
  }
  return ids;
}

TEST(ServiceE2E, Fig4AccuracyOnD1) {
  Dataset d1 = make_d1(0.05);
  LogLensService service(d1_options());
  BuildResult build = service.train(d1.training);
  ASSERT_EQ(build.unparsed_training_logs, 0u);
  Agent agent = service.make_agent("D1");
  run_test_stream(service, agent, d1, /*heartbeats=*/true);

  // 100% recall at event granularity, no false positives.
  EXPECT_EQ(anomalous_ids(service.anomalies()), d1.anomalous_event_ids);
  EXPECT_EQ(service.anomalies().count_by_type(AnomalyType::kUnparsedLog), 0u);
}

TEST(ServiceE2E, Fig5HeartbeatGapOnD1) {
  Dataset d1 = make_d1(0.05);
  // Without heartbeats the missing-end event is never reported.
  LogLensService no_hb(d1_options());
  no_hb.train(d1.training);
  Agent agent1 = no_hb.make_agent("D1");
  run_test_stream(no_hb, agent1, d1, /*heartbeats=*/false);
  auto without = anomalous_ids(no_hb.anomalies());
  EXPECT_EQ(without.size(),
            d1.anomalous_event_ids.size() - d1.missing_end_event_ids.size());
  for (const auto& id : d1.missing_end_event_ids) {
    EXPECT_FALSE(without.contains(id));
  }
  EXPECT_GT(no_hb.open_events(), 0u);  // the stuck open state is still there
}

TEST(ServiceE2E, TableVModelUpdateWithoutRestart) {
  Dataset d1 = make_d1(0.05);
  LogLensService service(d1_options());
  BuildResult build = service.train(d1.training);
  ASSERT_EQ(build.model.sequence.automata.size(), 2u);

  // Delete the "txn" automaton (the 3-state one — event type 2) through the
  // model manager, mid-service, no restart.
  ASSERT_TRUE(service.models()
                  .edit(service.model_name(),
                        [](CompositeModel& m) {
                          std::erase_if(m.sequence.automata,
                                        [](const Automaton& a) {
                                          return a.states.size() == 3;
                                        });
                        })
                  .ok());
  Agent agent = service.make_agent("D1");
  run_test_stream(service, agent, d1, /*heartbeats=*/true);

  // Only the 13 anomalies of automaton 1's event type remain.
  std::set<std::string> expected;
  for (const auto& [id, type] : d1.anomaly_event_types) {
    if (type == 1) expected.insert(id);
  }
  EXPECT_EQ(expected.size(), 13u);
  EXPECT_EQ(anomalous_ids(service.anomalies()), expected);
}

TEST(ServiceE2E, UnparsedLogsReportedAsStatelessAnomalies) {
  Dataset d1 = make_d1(0.02);
  LogLensService service(d1_options());
  service.train(d1.training);
  Agent agent = service.make_agent("D1");
  agent.send_line("totally unknown log format &&& 123");
  agent.send_line("another stranger");
  service.drain();
  EXPECT_EQ(service.anomalies().count_by_type(AnomalyType::kUnparsedLog), 2u);
  auto stored = service.anomalies().by_type(AnomalyType::kUnparsedLog);
  ASSERT_EQ(stored[0].logs.size(), 1u);
  EXPECT_EQ(stored[0].logs[0], "totally unknown log format &&& 123");
  EXPECT_EQ(stored[0].source, "D1");
}

TEST(ServiceE2E, LogManagerArchivesEverything) {
  Dataset d1 = make_d1(0.02);
  LogLensService service(d1_options());
  service.train(d1.training);
  Agent agent = service.make_agent("D1");
  agent.replay(d1.testing);
  service.drain();
  EXPECT_EQ(service.log_store().size(), d1.testing.size());
  EXPECT_TRUE(service.log_manager().sources().contains("D1"));
  EXPECT_EQ(service.log_store().fetch("D1").size(), d1.testing.size());
}

TEST(ServiceE2E, BackgroundModeMatchesDrainMode) {
  Dataset d1 = make_d1(0.02);

  LogLensService sync_service(d1_options());
  sync_service.train(d1.training);
  Agent a1 = sync_service.make_agent("D1");
  run_test_stream(sync_service, a1, d1, true);

  LogLensService async_service(d1_options());
  async_service.train(d1.training);
  async_service.start();
  Agent a2 = async_service.make_agent("D1");
  a2.replay(d1.testing);
  // Archive beside the parser while the runners work in the background.
  for (int i = 0;
       i < 200 && async_service.log_store().size() < d1.testing.size(); ++i) {
    async_service.log_manager().pump();
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  // Quiesce, then expire open states deterministically.
  async_service.stop();
  async_service.heartbeat_advance(24L * 3600 * 1000);
  async_service.drain();

  EXPECT_EQ(anomalous_ids(sync_service.anomalies()),
            anomalous_ids(async_service.anomalies()));
}

TEST(ServiceE2E, StartModeParsesIngestWithoutPumping) {
  // The parser runner reads the agents' topic itself: with no pump() and no
  // drain(), every sent line reaches the detector.
  Dataset d1 = make_d1(0.02);
  MetricsRegistry registry;
  ServiceOptions opts = d1_options();
  opts.metrics = &registry;
  LogLensService service(opts);
  service.train(d1.training);
  service.start();
  Agent agent = service.make_agent("D1");
  agent.replay(d1.testing);
  auto detector_logs = [&] {
    uint64_t total = 0;
    for (size_t p = 0; p < opts.detector_partitions; ++p) {
      total += registry
                   .counter("loglens_detector_logs_total",
                            {{"partition", std::to_string(p)}})
                   .value();
    }
    return total;
  };
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(20);
  while (detector_logs() < agent.lines_sent() &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  EXPECT_EQ(detector_logs(), d1.testing.size());
  service.stop();
  // The archive is the log manager's alone; stop()'s final drain fills it.
  EXPECT_EQ(service.log_store().size(), d1.testing.size());
}

TEST(ServiceE2E, ParserTokenizesWithTheTrainingSplitRules) {
  // The parser stage and replay_archive() tokenize with the split rules the
  // model was trained with, so a service parses its own training lines.
  ServiceOptions opts;
  opts.build.preprocessor.split_rules = {{"([0-9]+)(KB)", "$1 $2"}};
  std::vector<std::string> lines;
  for (int i = 0; i < 50; ++i) {
    lines.push_back("2016/02/23 09:00:" + std::to_string(10 + i) +
                    " cache evicted " + std::to_string(64 * (i + 1)) +
                    "KB from node" + std::to_string(i % 7));
  }
  LogLensService service(opts);
  BuildResult build = service.train(lines);
  ASSERT_EQ(build.unparsed_training_logs, 0u);
  Agent agent = service.make_agent("cache");
  agent.replay(lines);
  service.drain();
  EXPECT_EQ(service.anomalies().count_by_type(AnomalyType::kUnparsedLog), 0u);
  auto replay = service.replay_archive("cache");
  ASSERT_TRUE(replay.ok());
  EXPECT_EQ(replay->logs, lines.size());
  EXPECT_EQ(replay->unparsed, 0u);
}

// Heartbeats while the parser holds a backlog. Half the test split is
// processed; the other half waits on `ingest` while the controller ticks.
// The source is not quiet, only unparsed: a tick that extrapolated its
// log-time clock would expire events whose lines are still in flight, and
// the detector would report them as false positives.
class HeartbeatBacklog : public ::testing::TestWithParam<int> {};

TEST_P(HeartbeatBacklog, TicksDuringAParserBacklogAddNoFalsePositives) {
  Dataset d1 = make_d1(1.0, 3);
  LogLensService service(d1_options());
  service.train(d1.training);
  Agent agent = service.make_agent("D1");
  const auto mid = d1.testing.begin() +
                   static_cast<std::ptrdiff_t>(d1.testing.size() / 2);
  agent.replay(std::vector<std::string>(d1.testing.begin(), mid));
  service.drain();
  agent.replay(std::vector<std::string>(mid, d1.testing.end()));
  for (int i = 0; i < GetParam(); ++i) service.heartbeat_tick();
  service.drain();
  service.heartbeat_advance(24L * 3600 * 1000);
  service.drain();
  EXPECT_EQ(d1.anomalous_event_ids.size(), 21u);
  EXPECT_EQ(anomalous_ids(service.anomalies()), d1.anomalous_event_ids);
}

INSTANTIATE_TEST_SUITE_P(Ticks, HeartbeatBacklog,
                         ::testing::Values(0, 1, 2, 5, 20));

TEST(ServiceE2E, Fig4AccuracyOnD2) {
  Dataset d2 = make_d2(0.05);
  ServiceOptions opts;
  opts.build.discovery = recommended_discovery("D2");
  LogLensService service(opts);
  BuildResult build = service.train(d2.training);
  ASSERT_EQ(build.unparsed_training_logs, 0u);
  ASSERT_EQ(build.model.sequence.automata.size(), 3u);
  Agent agent = service.make_agent("D2");
  run_test_stream(service, agent, d2, true);
  EXPECT_EQ(anomalous_ids(service.anomalies()), d2.anomalous_event_ids);
}

}  // namespace
}  // namespace loglens
