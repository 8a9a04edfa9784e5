#include "service/log_manager.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "service/agent.h"

namespace loglens {
namespace {

// The manager only reads: ingest is the one topic and holds exactly what
// the agents sent.
void expect_produces_nothing(const Broker& broker, uint64_t sent) {
  EXPECT_EQ(broker.topics(), std::vector<std::string>{"ingest"});
  EXPECT_EQ(broker.end_offset("ingest", 0), sent);
}

TEST(LogManager, ArchivesAndTracksSource) {
  Broker broker;
  LogManager manager(broker);
  Agent agent(broker, {"web", "ingest"});
  agent.send_line("line one");
  agent.send_line("line two");
  EXPECT_EQ(manager.pump(), 2u);
  EXPECT_EQ(manager.log_store().size(), 2u);
  auto archived = manager.log_store().fetch("web");
  ASSERT_EQ(archived.size(), 2u);
  EXPECT_EQ(archived[0], "line one");
  EXPECT_TRUE(manager.sources().contains("web"));
  EXPECT_EQ(manager.pump(), 0u);
  expect_produces_nothing(broker, 2);
}

TEST(LogManager, DrainLoopsToEmpty) {
  Broker broker;
  LogManager manager(broker);
  Agent agent(broker, {"s", "ingest"});
  for (int i = 0; i < 10; ++i) agent.send_line("x");
  EXPECT_EQ(manager.drain(), 10u);
  EXPECT_EQ(manager.input_lag(), 0u);
  EXPECT_EQ(manager.log_store().size(), 10u);
  expect_produces_nothing(broker, 10);
}

TEST(LogManager, ReadsIngestBesideOtherConsumers) {
  // The parser consumes ingest on its own offsets; archiving must neither
  // take lines from it nor depend on it.
  Broker broker;
  LogManager manager(broker);
  Consumer parser(broker, "ingest");
  Agent agent(broker, {"s", "ingest"});
  for (int i = 0; i < 5; ++i) agent.send_line("l" + std::to_string(i));
  EXPECT_EQ(parser.poll(100).size(), 5u);
  EXPECT_EQ(manager.input_lag(), 5u);
  EXPECT_EQ(manager.drain(), 5u);
  EXPECT_EQ(manager.log_store().fetch("s").size(), 5u);
  expect_produces_nothing(broker, 5);
}

TEST(LogManager, TracksMultipleSources) {
  Broker broker;
  LogManager manager(broker);
  Agent a(broker, {"a", "ingest"});
  Agent b(broker, {"b", "ingest"});
  a.send_line("from a");
  b.send_line("from b");
  a.send_line("more a");
  manager.drain();
  EXPECT_EQ(manager.sources().size(), 2u);
  EXPECT_EQ(manager.log_store().fetch("a").size(), 2u);
  EXPECT_EQ(manager.log_store().fetch("b").size(), 1u);
  EXPECT_EQ(a.lines_sent(), 2u);
  EXPECT_EQ(a.source(), "a");
  expect_produces_nothing(broker, 3);
}

}  // namespace
}  // namespace loglens
