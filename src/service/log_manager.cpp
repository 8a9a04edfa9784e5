#include "service/log_manager.h"

namespace loglens {

namespace {
// Logs archived per pump(): bounds the batch one poll holds in memory.
constexpr size_t kPollSize = 65536;
}  // namespace

LogManager::LogManager(Broker& broker, DocumentStoreOptions archive)
    : consumer_(broker, "ingest"), store_(std::move(archive)) {}

size_t LogManager::pump() {
  auto batch = consumer_.poll(kPollSize);
  for (const auto& m : batch) {
    if (!m.source.empty()) sources_.insert(m.source);
    store_.add(m.source, m.value, m.timestamp_ms);
  }
  return batch.size();
}

size_t LogManager::drain() {
  size_t total = 0;
  for (size_t n = pump(); n > 0; n = pump()) total += n;
  return total;
}

}  // namespace loglens
