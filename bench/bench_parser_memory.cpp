// Section VI-A memory claim: Logstash "consumes huge memory" and "cannot
// handle a large number of patterns". We report the resident bytes of each
// engine's compiled model across the four pattern-set sizes. The absolute
// JVM overhead of real Logstash is out of scope (see DESIGN.md); the shape —
// the baseline's per-pattern footprint outweighing the signature index — is
// what this regenerates. Exits 1 when the shape does not hold: on any
// dataset the Logstash baseline's model is smaller than LogLens's parser
// (ratio below 1.0x). The sizes are counted, not sampled, so the check is
// deterministic.
#include <cstdio>

#include "baseline/logstash_parser.h"
#include "bench/bench_util.h"
#include "datagen/datasets.h"
#include "parser/log_parser.h"

int main() {
  using namespace loglens;
  double scale = bench::scale_or(0.003);
  bool ok = true;

  bench::print_header("Parser model memory: LogLens index vs Logstash regexes");
  std::printf("%-8s %-9s %-14s %-16s %s\n", "Dataset", "Patterns",
              "LogLens (KB)", "Logstash (KB)", "Ratio");
  for (const char* name : {"D3", "D4", "D5", "D6"}) {
    Dataset ds = make_dataset(name, scale);
    auto pre = std::move(Preprocessor::create({}).value());
    auto train = bench::tokenize_all(pre, ds.training);
    auto patterns =
        bench::discover_patterns(pre, train, recommended_discovery(name));

    LogParser loglens_parser(patterns, pre.classifier());
    // Warm the index with the test stream so its resident size is the
    // steady-state one.
    auto test = bench::tokenize_all(pre, ds.testing);
    for (const auto& log : test) loglens_parser.parse(log);
    LogstashParser logstash(patterns);

    double a = static_cast<double>(loglens_parser.resident_bytes()) / 1024.0;
    double b = static_cast<double>(logstash.resident_bytes()) / 1024.0;
    std::printf("%-8s %-9zu %-14.1f %-16.1f %.1fx\n", name, patterns.size(),
                a, b, b / a);
    if (b < a) {
      std::printf("FAIL: %s: Logstash/LogLens %.2fx is under 1.0x\n", name,
                  b / a);
      ok = false;
    }
  }
  return ok ? 0 : 1;
}
