// Log Manager (Figure 1): identifies log sources and archives raw logs to the
// log store. It reads the `ingest` topic as its own consumer, next to the
// parser, and never produces to the broker: the parser consumes `ingest`
// directly.
//
// Threading: one driver thread at a time calls pump()/drain(); which thread
// that is may change between calls (LogLensService::drain() runs the
// archive on a helper thread beside the parser). sources() and log_store()
// reflect a pump()/drain() once it has returned — read them from the driver
// thread, or after joining it. input_lag() is safe from any thread.
#pragma once

#include <cstdint>
#include <set>
#include <string>

#include "broker/broker.h"
#include "storage/stores.h"

namespace loglens {

class LogManager {
 public:
  // `archive`: tiered-engine configuration for the log store (segment dir,
  // flush and compaction policy). Default: in-memory.
  explicit LogManager(Broker& broker, DocumentStoreOptions archive = {});

  // Archives one poll's worth of buffered ingest logs and records their
  // sources. Returns the number archived.
  size_t pump();

  // Drains the ingest topic completely (repeated pumps).
  size_t drain();

  // Logs still buffered on the ingest topic. Under fault injection an empty
  // poll inside drain() can be an injected fetch failure, so callers chasing
  // a fixed point must gate on this rather than on drain() returning 0.
  uint64_t input_lag() const { return consumer_.lag(); }

  const std::set<std::string>& sources() const { return sources_; }
  LogStore& log_store() { return store_; }

 private:
  Consumer consumer_;
  LogStore store_;
  std::set<std::string> sources_;
};

}  // namespace loglens
