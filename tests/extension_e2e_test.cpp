// End-to-end tests for the extension detectors flowing through the full
// pipeline: keyword alerts and KPI range checks ride the same model
// broadcast, the same anomaly topic, and the same store as the paper's two
// exemplary detectors.
#include <gtest/gtest.h>

#include "common/time.h"
#include "service/service.h"

namespace loglens {
namespace {

std::vector<std::string> training_lines() {
  std::vector<std::string> out;
  for (int i = 0; i < 60; ++i) {
    // Latency stays within [100, 159] during normal runs; the failover
    // component mentions a keyword legitimately.
    out.push_back(format_canonical(1456218000000 + i * 1000) +
                  " api request user" + std::to_string(i) + " latency " +
                  std::to_string(100 + i % 60));
    out.push_back(format_canonical(1456218000300 + i * 1000) +
                  " failover-agent heartbeat seq " + std::to_string(i));
  }
  return out;
}

ServiceOptions extension_options() {
  ServiceOptions opts;
  opts.build.discovery.max_dist = 0.45;
  opts.build.learn_field_ranges = true;
  opts.build.learn_keywords = true;
  opts.build.field_ranges = {.margin = 0.0, .min_samples = 10};
  return opts;
}

TEST(ExtensionE2E, KeywordAlertsFlowThroughPipeline) {
  LogLensService service(extension_options());
  service.train(training_lines());
  Agent agent = service.make_agent("api");

  // Normal traffic, including the allowlisted failover component: silent.
  agent.send_line("2016/02/23 10:00:01 api request user99 latency 140");
  agent.send_line("2016/02/23 10:00:02 failover-agent heartbeat seq 999");
  service.drain();
  EXPECT_EQ(service.anomalies().count_by_type(AnomalyType::kKeywordAlert), 0u);

  // An error line alarms even though it also fails to parse.
  agent.send_line("2016/02/23 10:00:03 api request FAILED disk error");
  service.drain();
  EXPECT_EQ(service.anomalies().count_by_type(AnomalyType::kKeywordAlert), 1u);
  auto alerts = service.anomalies().by_type(AnomalyType::kKeywordAlert);
  EXPECT_EQ(alerts[0].source, "api");
}

TEST(ExtensionE2E, KeywordListComesFromBuildOptions) {
  // The parser stage checks the keywords the model was built with.
  ServiceOptions opts = extension_options();
  opts.build.keywords.keywords = {"oom"};
  LogLensService service(opts);
  service.train(training_lines());
  Agent agent = service.make_agent("api");
  agent.send_line("2016/02/23 10:00:03 kernel oom killer invoked");
  service.drain();
  EXPECT_EQ(service.anomalies().count_by_type(AnomalyType::kKeywordAlert), 1u);
}

TEST(ExtensionE2E, FieldRangeAlertsFlowThroughPipeline) {
  LogLensService service(extension_options());
  service.train(training_lines());
  Agent agent = service.make_agent("api");

  agent.send_line("2016/02/23 10:00:01 api request user7 latency 130");
  service.drain();
  EXPECT_EQ(service.anomalies().count_by_type(AnomalyType::kValueOutOfRange),
            0u);

  agent.send_line("2016/02/23 10:00:02 api request user7 latency 9000");
  service.drain();
  ASSERT_EQ(service.anomalies().count_by_type(AnomalyType::kValueOutOfRange),
            1u);
  auto alerts = service.anomalies().by_type(AnomalyType::kValueOutOfRange);
  EXPECT_NE(alerts[0].reason.find("= 9000 outside learned range"),
            std::string::npos)
      << alerts[0].reason;
}

TEST(ExtensionE2E, DetectorsDisabledWhenNotLearned) {
  // Default build options learn neither extension; the same traffic
  // produces no extension anomalies.
  ServiceOptions opts;
  opts.build.discovery.max_dist = 0.45;
  LogLensService service(opts);
  service.train(training_lines());
  Agent agent = service.make_agent("api");
  agent.send_line("2016/02/23 10:00:02 api request user7 latency 9000");
  agent.send_line("2016/02/23 10:00:03 api request FAILED disk error");
  service.drain();
  EXPECT_EQ(service.anomalies().count_by_type(AnomalyType::kValueOutOfRange),
            0u);
  EXPECT_EQ(service.anomalies().count_by_type(AnomalyType::kKeywordAlert), 0u);
}

TEST(ExtensionE2E, ExtensionsSurviveModelRoundTripAndUpdate) {
  LogLensService service(extension_options());
  service.train(training_lines());
  // Force a model round trip through the store + controller (an edit that
  // changes nothing still reserializes everything).
  ASSERT_TRUE(service.models()
                  .edit(service.model_name(), [](CompositeModel&) {})
                  .ok());
  Agent agent = service.make_agent("api");
  agent.send_line("2016/02/23 10:00:02 api request user7 latency 9000");
  service.drain();
  EXPECT_EQ(service.anomalies().count_by_type(AnomalyType::kValueOutOfRange),
            1u);
}

}  // namespace
}  // namespace loglens
