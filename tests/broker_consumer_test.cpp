// The batch-handoff consumer semantics: blocking polls,
// backpressure observability, batched produce, long-retention partition
// logs read back at random offsets — and sharded-partition
// interleaving stress meant for the TSan leg (concurrent produce /
// produce_batch / fetch across partitions share no lock but the
// per-partition ones).
#include "broker/broker.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "common/hash.h"
#include "common/rng.h"
#include "faults/fault_injector.h"
#include "metrics/metrics.h"

namespace loglens {
namespace {

using Clock = std::chrono::steady_clock;

Message msg(const std::string& key, const std::string& value) {
  Message m;
  m.key = key;
  m.value = value;
  m.tag = kTagData;
  return m;
}

int64_t ms_since(Clock::time_point t0) {
  return std::chrono::duration_cast<std::chrono::milliseconds>(Clock::now() -
                                                               t0)
      .count();
}

TEST(PollBlocking, TimesOutEmptyWhenNoData) {
  Broker broker;
  broker.create_topic("t", 2);
  Consumer consumer(broker, "t");
  const auto t0 = Clock::now();
  auto out = consumer.poll_blocking(/*max=*/16, /*timeout_ms=*/80);
  EXPECT_TRUE(out.empty());
  EXPECT_GE(ms_since(t0), 70);  // waited for the deadline, not a spin-out
}

TEST(PollBlocking, ReturnsImmediatelyWhenDataIsReady) {
  Broker broker;
  broker.create_topic("t", 1);
  for (int i = 0; i < 5; ++i) broker.produce("t", msg("k", "v"));
  Consumer consumer(broker, "t");
  const auto t0 = Clock::now();
  auto out = consumer.poll_blocking(/*max=*/16, /*timeout_ms=*/5000);
  EXPECT_EQ(out.size(), 5u);
  EXPECT_LT(ms_since(t0), 1000);  // did not sit out the timeout
}

TEST(PollBlocking, ProducerWakesParkedConsumer) {
  Broker broker;
  broker.create_topic("t", 2);
  Consumer consumer(broker, "t");
  std::thread producer([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    broker.produce("t", msg("key", "wake"));
  });
  const auto t0 = Clock::now();
  auto out = consumer.poll_blocking(/*max=*/16, /*timeout_ms=*/10000);
  producer.join();
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].value, "wake");
  // Condition-variable wakeup, not deadline expiry: well under the 10s
  // timeout. Generous bound for loaded CI machines.
  EXPECT_LT(ms_since(t0), 5000);
}

TEST(Consumer, QueueDepthGaugeTracksSlowSinkBackpressure) {
  MetricsRegistry registry;
  Broker broker(&registry);
  broker.create_topic("t", 1);
  Consumer consumer(broker, "t", &registry);
  Gauge& depth =
      registry.gauge("loglens_consumer_queue_depth", {{"topic", "t"}});

  // A fast producer against a sink that drains 2 messages per poll: the
  // gauge must expose the growing backlog after every poll — the signal a
  // deployment alerts on instead of discovering unbounded lag post hoc.
  for (int i = 0; i < 10; ++i) broker.produce("t", msg("k", "v"));
  EXPECT_EQ(consumer.poll(2).size(), 2u);
  EXPECT_EQ(depth.value(), 8);

  for (int i = 0; i < 6; ++i) broker.produce("t", msg("k", "v"));
  EXPECT_EQ(consumer.poll(2).size(), 2u);
  EXPECT_EQ(depth.value(), 12);
  EXPECT_EQ(consumer.lag(), 12u);

  // Draining the backlog brings the gauge back to zero.
  while (!consumer.caught_up()) consumer.poll(64);
  EXPECT_EQ(depth.value(), 0);
}

TEST(Consumer, BatchedOffsetCommitCounters) {
  MetricsRegistry registry;
  Broker broker(&registry);
  broker.create_topic("t", 2);
  Consumer consumer(broker, "t", &registry);
  Counter& commits = registry.counter("loglens_consumer_offset_commits_total",
                                      {{"topic", "t"}});
  Counter& records = registry.counter(
      "loglens_consumer_committed_records_total", {{"topic", "t"}});

  std::vector<Message> batch;
  for (int i = 0; i < 12; ++i) {
    batch.push_back(msg("k" + std::to_string(i), "v"));
  }
  ASSERT_TRUE(broker.produce_batch("t", std::move(batch)).ok());

  EXPECT_EQ(consumer.poll(64).size(), 12u);
  // One commit covered the whole poll — batched, not one per message.
  EXPECT_EQ(commits.value(), 1u);
  EXPECT_EQ(records.value(), 12u);

  // An empty poll commits nothing.
  EXPECT_TRUE(consumer.poll(64).empty());
  EXPECT_EQ(commits.value(), 1u);
  EXPECT_EQ(records.value(), 12u);
}

TEST(ProduceBatch, RoutesByKeyExactlyLikeProduce) {
  Broker a;
  Broker b;
  a.create_topic("t", 4);
  b.create_topic("t", 4);
  std::vector<Message> batch;
  for (int i = 0; i < 40; ++i) {
    auto m = msg("key-" + std::to_string(i % 7), "v" + std::to_string(i));
    a.produce("t", m);
    batch.push_back(std::move(m));
  }
  ASSERT_TRUE(b.produce_batch("t", std::move(batch)).ok());
  for (size_t p = 0; p < 4; ++p) {
    auto one = a.fetch("t", p, 0, 100);
    auto two = b.fetch("t", p, 0, 100);
    ASSERT_EQ(one.size(), two.size()) << "partition " << p;
    for (size_t i = 0; i < one.size(); ++i) {
      EXPECT_EQ(one[i].value, two[i].value);
      EXPECT_EQ(one[i].seq, two[i].seq);
    }
  }
}

TEST(ProduceBatch, ExhaustedRetriesLandInFailedNotTheLog) {
  FaultInjector faults(/*seed=*/42);
  Broker broker(nullptr, &faults);
  broker.create_topic("t", 1);
  // Every produce attempt fails: the whole batch must come back in
  // `failed`, none of it in the log, and the Status must not be ok.
  FaultSpec spec;
  spec.action = FaultAction::kThrow;
  spec.probability = 1.0;
  faults.arm(kFaultSiteProduce, spec);
  std::vector<Message> batch{msg("a", "1"), msg("b", "2")};
  std::vector<Message> failed;
  Status st = broker.produce_batch("t", std::move(batch), &failed);
  EXPECT_FALSE(st.ok());
  ASSERT_EQ(failed.size(), 2u);
  EXPECT_EQ(failed[0].value, "1");
  EXPECT_EQ(failed[1].value, "2");
  EXPECT_EQ(broker.end_offset("t", 0), 0u);

  // A failure ends the batch, on the single-partition and the routed path:
  // when only the second of four messages exhausts its retries, the log
  // holds the first and `failed` holds the rest in batch order, so a caller
  // re-publishing `failed` cannot reorder the stream.
  for (size_t partitions : {1u, 4u}) {
    SCOPED_TRACE(partitions);
    // Seed 34 at p = 0.5 draws miss, then five hits: message 1 goes
    // through, message 2 spends all five attempts, and the cap is gone.
    FaultInjector second_fails(/*seed=*/34);
    Broker routed(nullptr, &second_fails);
    routed.create_topic("t", partitions);
    FaultSpec five;
    five.probability = 0.5;
    five.max_triggers = 5;
    second_fails.arm(kFaultSiteProduce, five);
    std::vector<Message> four{msg("k", "1"), msg("k", "2"), msg("k", "3"),
                              msg("k", "4")};
    std::vector<Message> rest;
    EXPECT_FALSE(routed.produce_batch("t", std::move(four), &rest).ok());
    ASSERT_EQ(second_fails.triggered(kFaultSiteProduce), 5u);
    ASSERT_EQ(rest.size(), 3u);
    EXPECT_EQ(rest[0].value, "2");
    EXPECT_EQ(rest[1].value, "3");
    EXPECT_EQ(rest[2].value, "4");
    uint64_t total = 0;
    for (size_t p = 0; p < partitions; ++p) {
      for (const auto& m : routed.fetch("t", p, 0, 10)) {
        EXPECT_EQ(m.value, "1");
        ++total;
      }
    }
    EXPECT_EQ(total, 1u);
  }
}

// A partition log retaining 100k+ messages, appended through produce_batch
// (single-partition and routed) and single produce calls in a seeded mix,
// must read back exactly at any offset: random fetches are compared with a
// reference built from the documented rules — key-hash routing, batch order
// within a partition, and seq = append offset unless the message already
// carried one.
TEST(PartitionLog, RandomFetchesMatchReferenceAfterLongRetention) {
  constexpr size_t kMessages = 120'000;
  for (size_t partitions : {1u, 3u}) {
    SCOPED_TRACE(partitions);
    Broker broker;
    ASSERT_TRUE(broker.create_topic("t", partitions).ok());
    std::vector<std::vector<Message>> ref(partitions);
    Rng rng(partitions);
    auto make = [&](size_t i) {
      Message m = msg("k" + std::to_string(i % 11), "v" + std::to_string(i));
      // A re-published record arrives stamped and must keep its seq.
      if (i % 97 == 0) m.seq = static_cast<int64_t>(1'000'000 + i);
      std::vector<Message>& log = ref[fnv1a(m.key) % partitions];
      log.push_back(m);
      if (log.back().seq < 0) {
        log.back().seq = static_cast<int64_t>(log.size() - 1);
      }
      return m;
    };
    for (size_t i = 0; i < kMessages;) {
      if (rng.chance(0.2)) {
        ASSERT_TRUE(broker.produce("t", make(i++)).ok());
        continue;
      }
      std::vector<Message> batch;
      for (size_t n = 1 + rng.below(4096); n > 0 && i < kMessages; --n) {
        batch.push_back(make(i++));
      }
      ASSERT_TRUE(broker.produce_batch("t", std::move(batch)).ok());
    }
    size_t retained = 0;
    for (size_t p = 0; p < partitions; ++p) {
      ASSERT_EQ(broker.end_offset("t", p), ref[p].size());
      retained += ref[p].size();
    }
    ASSERT_EQ(retained, kMessages);
    for (int probe = 0; probe < 300; ++probe) {
      const size_t p = rng.below(partitions);
      const uint64_t offset = rng.below(ref[p].size() + 10);  // past end too
      const size_t max = rng.below(5000);
      auto got = broker.fetch("t", p, offset, max);
      const size_t want =
          offset >= ref[p].size()
              ? 0
              : std::min<size_t>(max, ref[p].size() - offset);
      ASSERT_EQ(got.size(), want) << "offset " << offset << " max " << max;
      for (size_t k = 0; k < got.size(); ++k) {
        const Message& r = ref[p][offset + k];
        ASSERT_EQ(got[k].key, r.key) << "offset " << offset + k;
        ASSERT_EQ(got[k].value, r.value) << "offset " << offset + k;
        ASSERT_EQ(got[k].seq, r.seq) << "offset " << offset + k;
      }
    }
  }
}

// Sharded-partition interleaving stress (sized for the TSan leg): single
// producers and batch producers hit all partitions concurrently while
// blocking readers drain them. Verifies no message is lost or duplicated
// and per-producer order within a partition is preserved — the invariants
// the per-partition locks plus the waiter rendezvous must uphold under
// real interleaving.
TEST(BrokerShardStress, ConcurrentProduceFetchAcrossPartitions) {
  constexpr size_t kPartitions = 4;
  constexpr int kProducers = 2;
  constexpr int kBatchProducers = 2;
  constexpr int kPerProducer = 400;

  Broker broker;
  ASSERT_TRUE(broker.create_topic("t", kPartitions).ok());

  std::vector<std::thread> producers;
  for (int pr = 0; pr < kProducers; ++pr) {
    producers.emplace_back([&, pr] {
      for (int i = 0; i < kPerProducer; ++i) {
        // Explicit partition; the value encodes (producer, index) so
        // readers can check per-producer order within the partition.
        size_t partition = static_cast<size_t>(i) % kPartitions;
        Message m =
            msg("", "p" + std::to_string(pr) + ":" + std::to_string(i));
        EXPECT_TRUE(broker.produce("t", std::move(m), partition).ok());
      }
    });
  }
  for (int bp = 0; bp < kBatchProducers; ++bp) {
    producers.emplace_back([&, bp] {
      for (int chunk = 0; chunk < kPerProducer / 50; ++chunk) {
        std::vector<Message> batch;
        for (int i = 0; i < 50; ++i) {
          int n = chunk * 50 + i;
          // Key-routed: same key => same partition, batch order preserved.
          batch.push_back(msg("bkey-" + std::to_string(n % kPartitions),
                              "b" + std::to_string(bp) + ":" +
                                  std::to_string(n)));
        }
        EXPECT_TRUE(broker.produce_batch("t", std::move(batch)).ok());
      }
    });
  }

  const size_t total =
      static_cast<size_t>(kProducers + kBatchProducers) * kPerProducer;
  std::atomic<size_t> consumed{0};
  std::vector<std::vector<std::string>> seen(kPartitions);
  std::vector<std::thread> readers;
  for (size_t p = 0; p < kPartitions; ++p) {
    readers.emplace_back([&, p] {
      // Watch only partition p: the others sit at an offset no partition
      // reaches, so their traffic cannot wake this reader.
      std::vector<uint64_t> watch(kPartitions, UINT64_MAX);
      uint64_t offset = 0;
      while (consumed.load(std::memory_order_relaxed) < total) {
        watch[p] = offset;
        (void)broker.wait_for_data("t", watch, /*timeout_ms=*/100);
        auto got = broker.fetch("t", p, offset, 64);
        for (auto& m : got) seen[p].push_back(std::move(m.value));
        offset += got.size();
        consumed.fetch_add(got.size(), std::memory_order_relaxed);
      }
    });
  }
  for (auto& t : producers) t.join();
  for (auto& t : readers) t.join();

  // Every message arrived exactly once...
  size_t arrived = 0;
  for (const auto& partition : seen) arrived += partition.size();
  EXPECT_EQ(arrived, total);
  // ...and within each partition, each producer's stream is in order.
  for (const auto& partition : seen) {
    std::map<std::string, int> last;  // producer prefix -> last index seen
    for (const auto& value : partition) {
      auto colon = value.find(':');
      ASSERT_NE(colon, std::string::npos);
      std::string who = value.substr(0, colon);
      int index = std::stoi(value.substr(colon + 1));
      auto it = last.find(who);
      if (it != last.end()) {
        EXPECT_GT(index, it->second)
            << "out-of-order delivery for producer " << who;
      }
      last[who] = index;
    }
  }
}

// poll_blocking under concurrent multi-partition production: the consumer
// registers every partition in its offsets vector, so data landing in any
// of them wakes the park. Exercises Consumer + wait_for_data end to end.
TEST(BrokerShardStress, PollBlockingDrainsConcurrentBatchProducer) {
  constexpr size_t kPartitions = 3;
  constexpr int kBatches = 20;
  constexpr int kBatchSize = 25;
  Broker broker;
  ASSERT_TRUE(broker.create_topic("t", kPartitions).ok());
  Consumer consumer(broker, "t");

  std::thread producer([&] {
    for (int n = 0; n < kBatches; ++n) {
      std::vector<Message> batch;
      for (int i = 0; i < kBatchSize; ++i) {
        batch.push_back(msg("k" + std::to_string(i), "v"));
      }
      EXPECT_TRUE(broker.produce_batch("t", std::move(batch)).ok());
      if (n % 5 == 0) {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
    }
  });

  size_t got = 0;
  const size_t total = static_cast<size_t>(kBatches) * kBatchSize;
  while (got < total) {
    auto out = consumer.poll_blocking(/*max=*/64, /*timeout_ms=*/5000);
    ASSERT_FALSE(out.empty()) << "timed out with " << got << "/" << total;
    got += out.size();
  }
  producer.join();
  EXPECT_EQ(got, total);
  EXPECT_TRUE(consumer.caught_up());
  EXPECT_EQ(consumer.consumed(), total);
}

}  // namespace
}  // namespace loglens
