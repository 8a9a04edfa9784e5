// The signature-level set matcher (grok/set_matcher.h) on the parser's
// index-miss path versus the per-pattern DP loop, on an adversarial model
// and on D4.
//
// The adversarial model defeats the signature index: every pattern is
// "svc<xyz> worker %{WORD:op} %{NUMBER:n} done" with a unique literal
// service name, so all ~2000 patterns share one signature and every log's
// candidate group is the whole model. With index_capacity=1 every log pays
// a group build — one signature walk with the set matcher, one DP per
// pattern without — and then the ordered capture pass over the group.
//
// D4 (3234 templates) is the real-model side: groups of tens of patterns
// and an index hit ratio near 1, where the default parser must keep pace
// with the set-matcher-free one. Both modes scan groups through the literal
// dispatch, so the two run at about the same speed; the dispatch shows in
// the attempts per line.
//
// Stages (BENCH_grok_set.json, gated in CI by tools/bench_compare.py):
//   grok_set_index_miss         logs/sec, set matcher on, index_capacity=1
//                               (every log pays a group build + match scan)
//   grok_set_linear             same workload, set matcher off
//   grok_set_d4_default         logs/sec, default LogParser on the D4 model's
//                               test split (warm index, best of 5 passes)
//   grok_set_d4_linear          same, SetMatchMode::kDisabled
//   grok_set_d4_speedup_x       grok_set_d4_default / grok_set_d4_linear
//   grok_set_d4_attempts_per_line
//                               match attempts per line of the default
//                               parser's first pass over the D4 test split
//                               (cold index, so group builds are included)
//
// Exits 1 in-process when the D4 speedup is under 0.8x, when D4 takes more
// than 2.0 match attempts per line (the count is deterministic), or when two
// configurations disagree on any parse outcome.
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "common/rng.h"
#include "datagen/datasets.h"
#include "json/json.h"
#include "logmine/discoverer.h"
#include "parser/log_parser.h"
#include "tokenize/preprocessor.h"

namespace loglens {
namespace {

double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

std::string svc_name(size_t i) {
  std::string suffix(3, 'a');
  suffix[0] = static_cast<char>('a' + i / 676 % 26);
  suffix[1] = static_cast<char>('a' + i / 26 % 26);
  suffix[2] = static_cast<char>('a' + i % 26);
  return "svc" + suffix;
}

std::vector<GrokPattern> make_model(size_t n) {
  std::vector<GrokPattern> out;
  out.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    auto p = GrokPattern::parse(svc_name(i) +
                                " worker %{WORD:op} %{NUMBER:n} done");
    p->assign_field_ids(static_cast<int>(i) + 1);
    out.push_back(std::move(p.value()));
  }
  return out;
}

std::vector<TokenizedLog> make_logs(Preprocessor& pre, size_t patterns,
                                    size_t count) {
  Rng rng(7);
  std::vector<TokenizedLog> out;
  out.reserve(count);
  for (size_t i = 0; i < count; ++i) {
    out.push_back(pre.process(svc_name(rng.below(patterns)) +
                              " worker start " + std::to_string(i) + " done"));
  }
  return out;
}

struct StageResult {
  std::string stage;
  double msgs_per_sec = 0;
  double attempts_per_line = -1;  // < 0: not a count stage
};

struct ParseRun {
  StageResult result;
  uint64_t match_attempts = 0;
  uint64_t unparsed = 0;
};

ParseRun run_parser(const std::vector<GrokPattern>& model,
                    Preprocessor& pre,
                    const std::vector<TokenizedLog>& logs, SetMatchMode mode,
                    const char* stage) {
  // index_capacity=1 with one shared signature still caches the one group,
  // so evict it by construction: capacity 1 plus a second, never-matching
  // signature interleaved would complicate the workload. Instead parse a
  // churn log with a different signature between payload logs so every
  // payload parse is an index miss — the path this benchmark is about.
  LogParser parser(model, pre.classifier(), IndexMode::kEnabled, 1, mode);
  TokenizedLog churn = pre.process("one two three");

  const auto t0 = std::chrono::steady_clock::now();
  for (const auto& log : logs) {
    parser.parse(log);
    parser.parse(churn);
  }
  const double secs = seconds_since(t0);

  ParseRun run;
  run.result.stage = stage;
  run.result.msgs_per_sec = static_cast<double>(logs.size()) / secs;
  run.match_attempts = parser.stats().match_attempts;
  run.unparsed = parser.stats().unparsed - logs.size();  // churn logs
  std::printf("%s: %zu logs x %zu patterns in %.3fs = %.0f logs/sec "
              "(%llu match attempts, %llu set fallbacks)\n",
              stage, logs.size(), model.size(), secs, run.result.msgs_per_sec,
              static_cast<unsigned long long>(run.match_attempts),
              static_cast<unsigned long long>(parser.stats().set_fallbacks));
  return run;
}

struct D4Run {
  StageResult default_run;
  StageResult linear_run;
  StageResult attempts;
  size_t mismatches = 0;  // logs whose outcomes differ between the two
};

// The default parser against the linear scan on D4: a warm-up pass fills
// both signature indexes and compares every outcome, then five alternating
// timed passes keep the best time of each.
D4Run run_d4(double scale) {
  Dataset d4 = make_d4(0.05 * scale);
  auto pre = Preprocessor::create({}).value();
  const auto patterns =
      bench::discover_patterns(pre, bench::tokenize_all(pre, d4.training),
                               recommended_discovery("D4"));
  const auto test = bench::tokenize_all(pre, d4.testing);

  LogParser by_default(patterns, pre.classifier());
  LogParser linear(patterns, pre.classifier(), IndexMode::kEnabled,
                   LogParser::kDefaultIndexCapacity, SetMatchMode::kDisabled);
  D4Run run;
  ParsedLog a;
  ParsedLog b;
  for (const auto& log : test) {
    const bool ok_a = by_default.parse_into(log, a);
    const bool ok_b = linear.parse_into(log, b);
    if (ok_a != ok_b || (ok_a && a.to_json().dump() != b.to_json().dump())) {
      ++run.mismatches;
    }
  }
  run.attempts.stage = "grok_set_d4_attempts_per_line";
  run.attempts.attempts_per_line =
      static_cast<double>(by_default.stats().match_attempts) /
      static_cast<double>(test.size());
  std::printf("grok_set_d4_attempts_per_line: %.3f (%llu groups built)\n",
              run.attempts.attempts_per_line,
              static_cast<unsigned long long>(by_default.stats().groups_built));
  auto timed_pass = [&](LogParser& parser) {
    const auto t0 = std::chrono::steady_clock::now();
    ParsedLog out;
    for (const auto& log : test) parser.parse_into(log, out);
    return seconds_since(t0);
  };
  double best_default = 1e30;
  double best_linear = 1e30;
  for (int round = 0; round < 5; ++round) {
    best_default = std::min(best_default, timed_pass(by_default));
    best_linear = std::min(best_linear, timed_pass(linear));
  }
  const auto n = static_cast<double>(test.size());
  run.default_run = {"grok_set_d4_default", n / best_default};
  run.linear_run = {"grok_set_d4_linear", n / best_linear};
  std::printf("grok_set_d4_default: %zu logs x %zu patterns, best pass "
              "%.3fs = %.0f logs/sec\n",
              test.size(), patterns.size(), best_default,
              run.default_run.msgs_per_sec);
  std::printf("grok_set_d4_linear: best pass %.3fs = %.0f logs/sec\n",
              best_linear, run.linear_run.msgs_per_sec);
  return run;
}

void write_bench_json(const std::vector<StageResult>& results) {
  JsonObject root;
  root.emplace_back("benchmark", Json("bench_grok_set"));
  JsonArray stages;
  for (const auto& r : results) {
    JsonObject obj;
    obj.emplace_back("stage", Json(r.stage));
    if (r.attempts_per_line >= 0) {
      obj.emplace_back("attempts_per_line", Json(r.attempts_per_line));
    } else {
      obj.emplace_back("msgs_per_sec", Json(r.msgs_per_sec));
    }
    stages.push_back(Json(std::move(obj)));
  }
  root.emplace_back("stages", Json(std::move(stages)));
  std::ofstream out("BENCH_grok_set.json");
  out << Json(std::move(root)).dump() << "\n";
}

}  // namespace
}  // namespace loglens

int main() {
  using loglens::StageResult;
  const double scale = loglens::bench::scale_or(1.0);
  const size_t patterns = static_cast<size_t>(2000 * scale) < 100
                              ? 100
                              : static_cast<size_t>(2000 * scale);
  const size_t log_count = static_cast<size_t>(20'000 * scale) < 1'000
                               ? 1'000
                               : static_cast<size_t>(20'000 * scale);

  loglens::bench::print_header("set-level GROK matcher benchmarks");
  auto pre = loglens::Preprocessor::create({}).value();
  const auto model = loglens::make_model(patterns);
  const auto logs = loglens::make_logs(pre, patterns, log_count);

  const auto set_run = loglens::run_parser(model, pre, logs,
                                           loglens::SetMatchMode::kAuto,
                                           "grok_set_index_miss");
  const auto linear_run = loglens::run_parser(model, pre, logs,
                                              loglens::SetMatchMode::kDisabled,
                                              "grok_set_linear");

  std::vector<StageResult> results;
  results.push_back(set_run.result);
  results.push_back(linear_run.result);

  const auto d4 = loglens::run_d4(scale);
  StageResult d4_speedup;
  d4_speedup.stage = "grok_set_d4_speedup_x";
  d4_speedup.msgs_per_sec =
      d4.default_run.msgs_per_sec / d4.linear_run.msgs_per_sec;
  std::printf("%s: default / linear = %.2fx\n", d4_speedup.stage.c_str(),
              d4_speedup.msgs_per_sec);
  results.push_back(d4.default_run);
  results.push_back(d4.linear_run);
  results.push_back(d4_speedup);
  results.push_back(d4.attempts);
  loglens::write_bench_json(results);

  bool ok = true;
  if (set_run.unparsed != linear_run.unparsed) {
    std::printf("FAIL: parse outcomes diverge (set %llu vs linear %llu "
                "unparsed)\n",
                static_cast<unsigned long long>(set_run.unparsed),
                static_cast<unsigned long long>(linear_run.unparsed));
    ok = false;
  }
  if (d4.mismatches != 0) {
    std::printf("FAIL: D4 parse outcomes diverge on %zu logs\n",
                d4.mismatches);
    ok = false;
  }
  if (d4_speedup.msgs_per_sec < 0.8) {
    std::printf("FAIL: default parser runs D4 at %.2fx the linear scan, "
                "under the 0.8x floor\n",
                d4_speedup.msgs_per_sec);
    ok = false;
  }
  if (d4.attempts.attempts_per_line > 2.0) {
    std::printf("FAIL: default parser makes %.2f match attempts per D4 line, "
                "over the 2.0 ceiling\n",
                d4.attempts.attempts_per_line);
    ok = false;
  }
  return ok ? 0 : 1;
}
