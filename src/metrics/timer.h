// Scoped timer: `ScopedTimer` records an elapsed-microseconds sample into a
// Histogram on destruction — wrap a hot-path section in one and the latency
// distribution shows up in the registry. Spans are filed explicitly with
// MetricsRegistry::record_span (one span model: trace::Span).
#pragma once

#include <cstdint>

#include "common/clock.h"
#include "metrics/metrics.h"

namespace loglens {

class ScopedTimer {
 public:
  explicit ScopedTimer(Histogram* histogram)
      : histogram_(histogram), start_us_(trace_clock::now_us()) {}
  ScopedTimer(const ScopedTimer&) = delete;
  ScopedTimer& operator=(const ScopedTimer&) = delete;
  ~ScopedTimer() {
    if (histogram_ != nullptr) histogram_->record(elapsed_us());
  }

  uint64_t elapsed_us() const { return trace_clock::now_us() - start_us_; }

 private:
  Histogram* histogram_;
  uint64_t start_us_;
};

}  // namespace loglens
