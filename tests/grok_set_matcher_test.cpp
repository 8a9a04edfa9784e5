#include "grok/set_matcher.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "common/rng.h"
#include "logmine/discoverer.h"
#include "parser/log_parser.h"
#include "parser/signature.h"
#include "tokenize/preprocessor.h"

namespace loglens {
namespace {

class GrokSetMatcherTest : public ::testing::Test {
 protected:
  GrokSetMatcherTest() : pre_(std::move(Preprocessor::create({}).value())) {}

  std::vector<GrokPattern> model(std::initializer_list<const char*> texts) {
    std::vector<GrokPattern> out;
    int id = 1;
    for (const char* t : texts) {
      auto p = GrokPattern::parse(t);
      EXPECT_TRUE(p.ok()) << t;
      p->assign_field_ids(id++);
      out.push_back(std::move(p.value()));
    }
    return out;
  }

  Preprocessor pre_;
};

// The 2^9 signatures of length 9 over {NUMBER, NOTSPACE}. A log of nine
// NUMBERs is covered by every element of every one of them, so the walk's
// active set doubles per position: 256 nodes at depth 8, 512 at depth 9 —
// past GrokSetMatcher::kMaxActive.
constexpr size_t kWideDepth = 9;
constexpr size_t kWideFamily = size_t{1} << kWideDepth;
static_assert(kWideFamily > GrokSetMatcher::kMaxActive);
static_assert(kWideFamily / 2 <= GrokSetMatcher::kMaxActive);

bool wide_member_is_notspace(size_t member, size_t pos) {
  return ((member >> pos) & 1) != 0;
}

std::vector<std::vector<Datatype>> wide_signatures() {
  std::vector<std::vector<Datatype>> out;
  for (size_t m = 0; m < kWideFamily; ++m) {
    std::vector<Datatype> sig;
    for (size_t pos = 0; pos < kWideDepth; ++pos) {
      sig.push_back(wide_member_is_notspace(m, pos) ? Datatype::kNotSpace
                                                    : Datatype::kNumber);
    }
    out.push_back(std::move(sig));
  }
  return out;
}

TEST_F(GrokSetMatcherTest, ActiveSetOverflowReportsFallback) {
  // Past the active-set cap the walk must refuse rather than drop patterns.
  auto m = GrokSetMatcher::compile_signatures(wide_signatures());
  GrokSetScratch s;
  const std::vector<Datatype> nine_numbers(kWideDepth, Datatype::kNumber);
  EXPECT_FALSE(m.match_signature(nine_numbers, s));
  EXPECT_TRUE(s.overflow);

  // Eight NUMBERs then a WORD stays at 256 active nodes: no overflow, and
  // only the family members ending in NOTSPACE cover the WORD.
  std::vector<Datatype> under_cap(kWideDepth - 1, Datatype::kNumber);
  under_cap.push_back(Datatype::kWord);
  ASSERT_TRUE(m.match_signature(under_cap, s));
  EXPECT_FALSE(s.overflow);
  EXPECT_EQ(s.result.size(), kWideFamily / 2);
}

TEST_F(GrokSetMatcherTest, ScratchIsReusableAcrossMatchersAndWalks) {
  const Datatype W = Datatype::kWord;
  const Datatype N = Datatype::kNumber;
  auto a = GrokSetMatcher::compile_signatures({{W, N}});
  auto b = GrokSetMatcher::compile_signatures({{W, W}, {N}, {W, W, W}});
  const std::vector<Datatype> word_number = {W, N};
  const std::vector<Datatype> word_word = {W, W};
  GrokSetScratch s;
  for (int round = 0; round < 3; ++round) {
    ASSERT_TRUE(a.match_signature(word_number, s));
    EXPECT_EQ(s.result.size(), 1u);
    ASSERT_TRUE(b.match_signature(word_number, s));
    EXPECT_TRUE(s.result.empty());
    ASSERT_TRUE(b.match_signature(word_word, s));
    EXPECT_EQ(s.result, (std::vector<uint32_t>{0}));
  }
}

TEST_F(GrokSetMatcherTest, SignatureWalkAgreesWithAlgorithmOne) {
  // Seeded differential: random pattern signatures (all six datatypes,
  // wildcards included) against random log signatures (classified types
  // only) — the walk must reproduce signature_match exactly.
  Rng rng(20260808);
  const Datatype kPatternTypes[] = {Datatype::kWord,     Datatype::kNumber,
                                    Datatype::kIp,       Datatype::kNotSpace,
                                    Datatype::kDateTime, Datatype::kAnyData};
  const Datatype kLogTypes[] = {Datatype::kWord, Datatype::kNumber,
                                Datatype::kIp, Datatype::kNotSpace,
                                Datatype::kDateTime};

  std::vector<std::vector<Datatype>> sigs;
  for (int i = 0; i < 48; ++i) {
    std::vector<Datatype> sig;
    const size_t len = 1 + rng.below(6);
    for (size_t j = 0; j < len; ++j) {
      sig.push_back(kPatternTypes[rng.below(std::size(kPatternTypes))]);
    }
    sigs.push_back(std::move(sig));
  }
  auto m = GrokSetMatcher::compile_signatures(sigs);
  GrokSetScratch s;

  for (int trial = 0; trial < 2000; ++trial) {
    std::vector<Datatype> log_sig;
    const size_t len = rng.below(7);  // empty signatures included
    for (size_t j = 0; j < len; ++j) {
      log_sig.push_back(kLogTypes[rng.below(std::size(kLogTypes))]);
    }
    std::vector<uint32_t> expected;
    for (uint32_t i = 0; i < sigs.size(); ++i) {
      if (signature_match(log_sig, sigs[i])) expected.push_back(i);
    }
    ASSERT_TRUE(m.match_signature(log_sig, s)) << "trial " << trial;
    EXPECT_EQ(s.result, expected)
        << "trial " << trial << " sig " << signature_key(log_sig);
  }
}

// The end-to-end guarantee the set matcher rests on: a parser with it
// enabled produces byte-identical outcomes to the set-matcher-free parser,
// on every path (index hit, index miss, eviction churn, unparsed, a large
// shared-signature candidate group).
TEST_F(GrokSetMatcherTest, ParserOutcomesAreByteIdenticalToLinearScan) {
  Rng rng(987);
  // A shared-signature family whose candidate group is large:
  // "svc<xy> worker %{WORD:op} %{NUMBER:n} done" with a unique literal
  // service name per pattern.
  constexpr size_t kFamily = 160;
  auto svc = [](size_t i) {
    return "svc" + std::string(1, static_cast<char>('a' + i / 26 % 26)) +
           std::string(1, static_cast<char>('a' + i % 26));
  };
  std::vector<std::string> corpus;
  for (int i = 0; i < 120; ++i) {
    corpus.push_back("worker " + std::to_string(i % 17) + " heartbeat ok");
    corpus.push_back("2016/02/23 09:00:" + std::to_string(10 + i % 50) +
                     " 10.0.0." + std::to_string(i % 9 + 1) + " login user" +
                     std::to_string(i));
    corpus.push_back("db connect " + rng.ident(5) + " latency " +
                     std::to_string(i) + " ms");
    corpus.push_back(rng.ident(4) + " unmodeled " + rng.hex(8));  // unparsed
    // Family members, plus a name outside the family (same signature,
    // unparsed by the family).
    corpus.push_back(svc(rng.below(kFamily)) + " worker start " +
                     std::to_string(i) + " done");
    corpus.push_back(svc(kFamily + rng.below(20)) + " worker stop " +
                     std::to_string(i) + " done");
  }
  // Model from discovery over a prefix, so later logs exercise both parsed
  // and unparsed outcomes, plus the family; shuffle to churn the signature
  // index.
  std::vector<TokenizedLog> tokenized;
  for (const auto& line : corpus) tokenized.push_back(pre_.process(line));
  PatternDiscoverer discoverer({}, pre_.classifier());
  std::vector<GrokPattern> patterns =
      discoverer.discover({tokenized.begin(), tokenized.begin() + 60});
  ASSERT_FALSE(patterns.empty());
  int next_id = static_cast<int>(patterns.size()) + 1;
  for (size_t i = 0; i < kFamily; ++i) {
    auto p = GrokPattern::parse(svc(i) + " worker %{WORD:op} %{NUMBER:n} done");
    ASSERT_TRUE(p.ok());
    p->assign_field_ids(next_id++);
    patterns.push_back(std::move(p.value()));
  }
  for (size_t i = corpus.size(); i > 1; --i) {
    std::swap(tokenized[i - 1], tokenized[rng.below(i)]);
  }

  struct Config {
    IndexMode index;
    size_t capacity;
  };
  const Config configs[] = {
      {IndexMode::kEnabled, LogParser::kDefaultIndexCapacity},
      {IndexMode::kEnabled, 1},  // every log is an index miss + eviction
      {IndexMode::kDisabled, LogParser::kDefaultIndexCapacity},
  };
  for (const auto& cfg : configs) {
    LogParser with_set(patterns, pre_.classifier(), cfg.index, cfg.capacity,
                       SetMatchMode::kAuto);
    LogParser without(patterns, pre_.classifier(), cfg.index, cfg.capacity,
                      SetMatchMode::kDisabled);
    for (const auto& log : tokenized) {
      auto a = with_set.parse(log);
      auto b = without.parse(log);
      ASSERT_EQ(a.log.has_value(), b.log.has_value()) << log.raw;
      if (a.log.has_value()) {
        EXPECT_EQ(a.log->to_json().dump(), b.log->to_json().dump()) << log.raw;
      }
    }
    EXPECT_EQ(with_set.stats().unparsed, without.stats().unparsed);
    EXPECT_EQ(with_set.stats().set_fallbacks, 0u);
    EXPECT_EQ(with_set.stats().match_attempts,
              without.stats().match_attempts);
  }
}

// A model whose group builds overflow the walk: the wide family as GROK
// patterns ("%{NUMBER:f1} %{NOTSPACE:f2} ...") plus ordinary ones. Group
// builds that overflow fall back to the DP loop, and outcomes stay
// byte-identical to the set-matcher-free parser.
TEST_F(GrokSetMatcherTest, OverflowingGroupBuildsFallBackToIdenticalGroups) {
  std::vector<GrokPattern> patterns = model({
      "login %{NOTSPACE:user}",
      "disk %{NOTSPACE:dev} full",
      "%{NUMBER:n} items in %{ANYDATA:rest}",
  });
  int next_id = static_cast<int>(patterns.size()) + 1;
  int all_number_id = 0;
  for (size_t m = 0; m < kWideFamily; ++m) {
    std::string text;
    for (size_t pos = 0; pos < kWideDepth; ++pos) {
      if (pos > 0) text.push_back(' ');
      text += wide_member_is_notspace(m, pos) ? "%{NOTSPACE:f" : "%{NUMBER:f";
      text += std::to_string(pos + 1) + "}";
    }
    auto p = GrokPattern::parse(text);
    ASSERT_TRUE(p.ok()) << text;
    if (m == 0) all_number_id = next_id;
    p->assign_field_ids(next_id++);
    patterns.push_back(std::move(p.value()));
  }

  // Two log signatures overflow the walk, NUMBER x9 and NUMBER x10; with
  // the default index capacity each is built exactly once.
  std::vector<TokenizedLog> logs;
  for (int i = 0; i < 40; ++i) {
    const std::string n = std::to_string(i);
    logs.push_back(pre_.process("1 2 3 4 5 6 7 8 " + n));
    logs.push_back(pre_.process("1 2 3 4 5 6 7 8 9 " + n));
    logs.push_back(pre_.process("1 2 3 4 5 6 7 8 w" + n));  // 256 active
    logs.push_back(pre_.process("a b c d e f g h x_" + n));
    logs.push_back(pre_.process("login user" + n));
    logs.push_back(pre_.process("disk /dev/sd" + n + " full"));
    logs.push_back(pre_.process(n + " items in the queue now"));
    logs.push_back(pre_.process("kernel panic " + n));  // unparsed
  }

  LogParser with_set(patterns, pre_.classifier());
  LogParser without(patterns, pre_.classifier(), IndexMode::kEnabled,
                    LogParser::kDefaultIndexCapacity, SetMatchMode::kDisabled);
  for (const auto& log : logs) {
    auto a = with_set.parse(log);
    auto b = without.parse(log);
    ASSERT_EQ(a.log.has_value(), b.log.has_value()) << log.raw;
    if (a.log.has_value()) {
      EXPECT_EQ(a.log->to_json().dump(), b.log->to_json().dump()) << log.raw;
    }
  }
  EXPECT_EQ(with_set.stats().set_fallbacks, 2u);
  EXPECT_EQ(without.stats().set_fallbacks, 0u);
  EXPECT_EQ(with_set.stats().groups_built, without.stats().groups_built);
  EXPECT_EQ(with_set.stats().match_attempts, without.stats().match_attempts);
  EXPECT_EQ(with_set.stats().unparsed, without.stats().unparsed);
  EXPECT_EQ(with_set.stats().unparsed, 80u);  // NUMBER x10, "kernel panic"

  // Generality order puts the all-NUMBER member first in the 512-candidate
  // group, so it parses a log of nine NUMBERs.
  auto nine = with_set.parse(pre_.process("10 20 30 40 50 60 70 80 90"));
  ASSERT_TRUE(nine.log.has_value());
  EXPECT_EQ(nine.log->pattern_id, all_number_id);
}

TEST_F(GrokSetMatcherTest, ResidentBytesAndNodeSharingReported) {
  // Shared prefixes must share trie nodes: two signatures with a common
  // 3-element prefix need fewer nodes than disjoint ones.
  const Datatype W = Datatype::kWord;
  const Datatype N = Datatype::kNumber;
  const Datatype I = Datatype::kIp;
  auto shared =
      GrokSetMatcher::compile_signatures({{W, W, N, W}, {W, W, N, N}});
  auto disjoint =
      GrokSetMatcher::compile_signatures({{W, W, N, W}, {I, N, I, N}});
  EXPECT_LT(shared.node_count(), disjoint.node_count());
  EXPECT_GT(shared.resident_bytes(), 0u);
}

}  // namespace
}  // namespace loglens
