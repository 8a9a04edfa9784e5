// Data-center workflow monitoring: the full LogLens service on a trace-log
// stream (the paper's D1 scenario and Figure 2 workload).
//
// Demonstrates the deployed pipeline of Figure 1: an agent ships logs to the
// ingest topic (the log manager archives them), the stateless parser turns
// them into JSON records, the stateful detector tracks request/transaction
// workflows by their automatically-discovered event ID, heartbeats expire
// stuck workflows, and the dashboard summarizes what went wrong.
//
// Build & run:  ./build/examples/datacenter_monitor
#include <cstdio>

#include "datagen/datasets.h"
#include "service/dashboard.h"
#include "service/service.h"

int main() {
  using namespace loglens;

  // Synthetic data-center trace: two workflow types, 21 corrupted test
  // events hidden among ~170 normal ones.
  Dataset d1 = make_d1(/*scale=*/0.05);
  std::printf("training logs: %zu, testing logs: %zu, injected anomalies: %zu\n",
              d1.training.size(), d1.testing.size(),
              d1.injected_anomalies());

  ServiceOptions options;
  options.build.discovery = recommended_discovery("D1");
  LogLensService service(options);

  // Train: discover patterns, event ID fields, and workflow automata.
  BuildResult build = service.train(d1.training);
  std::printf("\nmodel: %zu patterns, %zu automata\n",
              build.model.patterns.size(),
              build.model.sequence.automata.size());
  for (const auto& a : build.model.sequence.automata) {
    std::printf("  automaton %d: %zu states, duration [%lld, %lld] ms, "
                "%zu training events\n",
                a.id, a.states.size(),
                static_cast<long long>(a.min_duration_ms),
                static_cast<long long>(a.max_duration_ms),
                a.training_instances);
  }

  // Stream production logs through the live pipeline.
  Agent agent = service.make_agent("datacenter");
  agent.replay(d1.testing);
  service.drain();

  // The heartbeat controller keeps log time moving so workflows that lost
  // their final log still get reported.
  service.heartbeat_advance(24L * 3600 * 1000);
  service.drain();

  // Inspect the results.
  Dashboard dashboard(service.anomalies(), service.model_store(),
                      service.log_store());
  std::printf("\n%s", dashboard.render().c_str());
  std::printf("\nmost recent anomalies:\n%s",
              dashboard.render_recent(3).c_str());

  size_t found = 0;
  for (const auto& a : service.anomalies().all()) {
    if (d1.anomalous_event_ids.contains(a.event_id)) ++found;
  }
  std::printf("ground truth check: all %zu corrupted workflows flagged: %s\n",
              d1.injected_anomalies(),
              found >= d1.injected_anomalies() ? "yes" : "NO");
  return 0;
}
