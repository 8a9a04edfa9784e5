#include "parser/log_parser.h"

#include <gtest/gtest.h>

#include "tokenize/preprocessor.h"

namespace loglens {
namespace {

class LogParserTest : public ::testing::Test {
 protected:
  LogParserTest() : pre_(std::move(Preprocessor::create({}).value())) {}

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

TEST_F(LogParserTest, ParsesPaperExample) {
  LogParser parser(
      model({"%{WORD:Action} DB %{IP:Server} user %{NOTSPACE:UserName}"}),
      pre_.classifier());
  auto outcome = parser.parse(pre_.process("Connect DB 127.0.0.1 user abc123"));
  ASSERT_TRUE(outcome.log.has_value());
  EXPECT_EQ(outcome.log->pattern_id, 1);
  EXPECT_EQ(outcome.log->to_json().dump(),
            R"({"_pattern_id":1,"Action":"Connect","Server":"127.0.0.1",)"
            R"("UserName":"abc123"})");
}

TEST_F(LogParserTest, UnparsedIsAnomaly) {
  LogParser parser(model({"%{WORD:w} ok"}), pre_.classifier());
  auto outcome = parser.parse(pre_.process("something else entirely here"));
  EXPECT_FALSE(outcome.log.has_value());
  EXPECT_EQ(parser.stats().unparsed, 1u);
}

TEST_F(LogParserTest, TimestampCarriedThrough) {
  LogParser parser(model({"%{DATETIME:t} boot %{WORD:w}"}), pre_.classifier());
  auto outcome = parser.parse(pre_.process("2016/02/23 09:00:31 boot ok"));
  ASSERT_TRUE(outcome.log.has_value());
  EXPECT_EQ(outcome.log->timestamp_ms, 1456218031000);
  EXPECT_EQ(outcome.log->to_json().get_string("_timestamp"),
            "2016/02/23 09:00:31.000");
}

TEST_F(LogParserTest, MostSpecificPatternWins) {
  // Both patterns can parse "login 42"; the WORD/NUMBER one is more
  // specific than NOTSPACE/NOTSPACE and must win regardless of model order.
  LogParser parser(model({"%{NOTSPACE:a} %{NOTSPACE:b}",
                          "%{WORD:a} %{NUMBER:b}"}),
                   pre_.classifier());
  auto outcome = parser.parse(pre_.process("login 42"));
  ASSERT_TRUE(outcome.log.has_value());
  EXPECT_EQ(outcome.log->pattern_id, 2);
}

TEST_F(LogParserTest, ShorterPatternBreaksGeneralityTies) {
  LogParser parser(model({"%{WORD:a} %{ANYDATA:rest}", "%{WORD:a}"}),
                   pre_.classifier());
  auto outcome = parser.parse(pre_.process("hello"));
  ASSERT_TRUE(outcome.log.has_value());
  EXPECT_EQ(outcome.log->pattern_id, 2);
}

TEST_F(LogParserTest, IndexAmortizesSignatureComparisons) {
  LogParser parser(model({"%{WORD:a} %{NUMBER:b}", "x %{WORD:c}",
                          "%{IP:d} in", "%{WORD:a} out %{NUMBER:b}"}),
                   pre_.classifier());
  for (int i = 0; i < 100; ++i) {
    auto outcome =
        parser.parse(pre_.process("login " + std::to_string(i)));
    ASSERT_TRUE(outcome.log.has_value());
  }
  // One group build (4 signature comparisons), then 99 index hits.
  EXPECT_EQ(parser.stats().groups_built, 1u);
  EXPECT_EQ(parser.stats().index_hits, 99u);
  EXPECT_EQ(parser.stats().signature_comparisons, 4u);
  EXPECT_EQ(parser.stats().match_attempts, 100u);
}

TEST_F(LogParserTest, EmptyCandidateGroupCachedToo) {
  LogParser parser(model({"%{WORD:a} %{NUMBER:b}"}), pre_.classifier());
  for (int i = 0; i < 10; ++i) {
    EXPECT_FALSE(parser.parse(pre_.process("1 2 3")).log.has_value());
  }
  EXPECT_EQ(parser.stats().groups_built, 1u);
  EXPECT_EQ(parser.stats().index_hits, 9u);
  EXPECT_EQ(parser.stats().unparsed, 10u);
}

TEST_F(LogParserTest, DisabledIndexScansModelOrder) {
  LogParser parser(model({"%{NOTSPACE:a} %{NOTSPACE:b}",
                          "%{WORD:a} %{NUMBER:b}"}),
                   pre_.classifier(), IndexMode::kDisabled);
  auto outcome = parser.parse(pre_.process("login 42"));
  ASSERT_TRUE(outcome.log.has_value());
  // Naive mode: first pattern in model order wins (Logstash-style), so the
  // general pattern shadows the specific one.
  EXPECT_EQ(outcome.log->pattern_id, 1);
  EXPECT_EQ(parser.stats().groups_built, 0u);
}

TEST_F(LogParserTest, WildcardPatternViaIndex) {
  LogParser parser(model({"start %{ANYDATA:body} end"}), pre_.classifier());
  auto outcome = parser.parse(pre_.process("start a b c end"));
  ASSERT_TRUE(outcome.log.has_value());
  JsonObject& f = outcome.log->fields;
  ASSERT_EQ(f.size(), 1u);
  EXPECT_EQ(f[0].second.as_string(), "a b c");
  EXPECT_TRUE(parser.parse(pre_.process("start end")).log.has_value());
  EXPECT_FALSE(parser.parse(pre_.process("start a b")).log.has_value());
}

TEST_F(LogParserTest, ResidentBytesGrowWithModel) {
  auto small = model({"%{WORD:a}"});
  auto large = model({"%{WORD:a} %{NUMBER:b} %{IP:c} lit1 lit2",
                      "%{WORD:x} %{ANYDATA:y} tail",
                      "alpha beta gamma %{NOTSPACE:z}"});
  LogParser p1(small, pre_.classifier());
  LogParser p2(large, pre_.classifier());
  EXPECT_GT(p2.resident_bytes(), p1.resident_bytes());
}

TEST_F(LogParserTest, EmptyModelParsesNothing) {
  LogParser parser({}, pre_.classifier());
  EXPECT_FALSE(parser.parse(pre_.process("anything")).log.has_value());
  EXPECT_EQ(parser.pattern_count(), 0u);
}

TEST_F(LogParserTest, IndexEvictsLeastRecentlyUsedSignature) {
  LogParser parser(model({"%{WORD:a} %{NUMBER:b}"}), pre_.classifier(),
                   IndexMode::kEnabled, /*index_capacity=*/2);
  EXPECT_EQ(parser.index_capacity(), 2u);
  // Three distinct signatures against capacity 2: the third insert evicts
  // the least recently used (the first).
  parser.parse(pre_.process("login 42"));        // sig A
  parser.parse(pre_.process("login login"));     // sig B
  parser.parse(pre_.process("login 42 extra"));  // sig C -> evicts A
  EXPECT_EQ(parser.index_size(), 2u);
  EXPECT_EQ(parser.stats().index_evictions, 1u);
  // A was evicted: seeing it again rebuilds the group (and evicts B).
  parser.parse(pre_.process("login 43"));
  EXPECT_EQ(parser.stats().groups_built, 4u);
  EXPECT_EQ(parser.stats().index_hits, 0u);
  EXPECT_EQ(parser.stats().index_evictions, 2u);
}

TEST_F(LogParserTest, IndexHitRefreshesLruPosition) {
  LogParser parser(model({"%{WORD:a} %{NUMBER:b}"}), pre_.classifier(),
                   IndexMode::kEnabled, /*index_capacity=*/2);
  parser.parse(pre_.process("login 42"));        // sig A
  parser.parse(pre_.process("login login"));     // sig B
  parser.parse(pre_.process("login 43"));        // hit A -> A becomes MRU
  parser.parse(pre_.process("login 42 extra"));  // sig C -> evicts B, not A
  EXPECT_EQ(parser.stats().index_evictions, 1u);
  parser.parse(pre_.process("login 44"));  // A still cached
  EXPECT_EQ(parser.stats().index_hits, 2u);
  EXPECT_EQ(parser.stats().groups_built, 3u);
}

TEST_F(LogParserTest, EvictedGroupStillParsesCorrectly) {
  LogParser parser(model({"%{WORD:a} %{NUMBER:b}", "%{WORD:a} %{WORD:b}"}),
                   pre_.classifier(), IndexMode::kEnabled,
                   /*index_capacity=*/1);
  for (int i = 0; i < 20; ++i) {
    // Alternate signatures so every parse evicts the other's entry.
    auto a = parser.parse(pre_.process("login " + std::to_string(i)));
    ASSERT_TRUE(a.log.has_value());
    EXPECT_EQ(a.log->pattern_id, 1);
    auto b = parser.parse(pre_.process("login out"));
    ASSERT_TRUE(b.log.has_value());
    EXPECT_EQ(b.log->pattern_id, 2);
  }
  EXPECT_EQ(parser.index_size(), 1u);
  EXPECT_EQ(parser.stats().index_evictions, 39u);
}

TEST_F(LogParserTest, DisabledIndexCountsSignatureComparisons) {
  LogParser parser(model({"%{IP:d} in", "%{WORD:a} %{NUMBER:b}"}),
                   pre_.classifier(), IndexMode::kDisabled);
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(parser.parse(pre_.process("login 42")).log.has_value());
  }
  // Every log pays the full model scan up to its match (2 patterns here),
  // the cost the signature index amortizes away.
  EXPECT_EQ(parser.stats().signature_comparisons, 20u);
  EXPECT_EQ(parser.stats().match_attempts, 20u);
}

TEST_F(LogParserTest, ParseIntoMatchesParseOutput) {
  LogParser a(model({"%{WORD:Action} DB %{IP:Server}"}), pre_.classifier());
  LogParser b(model({"%{WORD:Action} DB %{IP:Server}"}), pre_.classifier());
  TokenizedLog log = pre_.process("Connect DB 127.0.0.1");
  auto outcome = a.parse(log);
  ASSERT_TRUE(outcome.log.has_value());
  ParsedLog parsed;
  ASSERT_TRUE(b.parse_into(log, parsed));
  EXPECT_EQ(outcome.log->to_json().dump(), parsed.to_json().dump());
  EXPECT_EQ(parsed.raw, "Connect DB 127.0.0.1");

  // The rvalue overload steals raw instead of copying.
  TokenizedLog moved = pre_.process("Connect DB 10.1.1.1");
  ASSERT_TRUE(b.parse_into(std::move(moved), parsed));
  EXPECT_EQ(parsed.raw, "Connect DB 10.1.1.1");
}

// Literal dispatch (log_parser.h, step 3). The first parse of a signature
// builds its group; the second is the first index hit and builds the
// dispatch, so each case parses its line at least twice.

TEST_F(LogParserTest, DispatchKeepsGroupOrderAcrossBucketAndRest) {
  // One signature, dispatched on token 0 (three members hold a literal
  // there). Pattern 1 holds a field at token 0, so it goes on `rest`, but
  // it ranks ahead of pattern 2 (equal generality and length, lower id).
  // Patterns 3 and 4 share the bucket "beta"; WORD is more specific than
  // NOTSPACE, so 3 ranks ahead of 4.
  LogParser parser(model({"%{WORD:a} start %{NUMBER:n}",
                          "alpha %{WORD:b} %{NUMBER:n}",
                          "beta %{WORD:b} %{NUMBER:n}",
                          "beta %{NOTSPACE:b} %{NUMBER:n}"}),
                   pre_.classifier());
  for (int i = 0; i < 3; ++i) {
    auto a = parser.parse(pre_.process("alpha start 5"));
    ASSERT_TRUE(a.log.has_value());
    EXPECT_EQ(a.log->pattern_id, 1) << "parse " << i;
    auto b = parser.parse(pre_.process("beta go 5"));
    ASSERT_TRUE(b.log.has_value());
    EXPECT_EQ(b.log->pattern_id, 3) << "parse " << i;
  }
  EXPECT_EQ(parser.stats().groups_built, 1u);
}

TEST_F(LogParserTest, TokenInNoBucketStillTriesRest) {
  LogParser parser(model({"alpha %{WORD:a} %{NUMBER:n}",
                          "beta %{WORD:a} %{NUMBER:n}",
                          "%{WORD:x} %{WORD:a} %{NUMBER:n}"}),
                   pre_.classifier());
  for (int i = 0; i < 3; ++i) {
    auto outcome = parser.parse(pre_.process("gamma foo 5"));
    ASSERT_TRUE(outcome.log.has_value()) << "parse " << i;
    EXPECT_EQ(outcome.log->pattern_id, 3);
  }
  EXPECT_EQ(parser.stats().index_hits, 2u);
}

TEST_F(LogParserTest, MemberWithEarlierAnyDataGoesOnRest) {
  // Dispatched on token 1 ("alpha"/"beta"). Pattern 3 holds the literal
  // "gamma" at pattern token 1, but its ANYDATA comes first, so that token
  // need not line up with the line's token 1: here it is the line's token 2.
  LogParser parser(model({"%{WORD:a} alpha %{WORD:b} %{NUMBER:n}",
                          "%{WORD:a} beta %{WORD:b} %{NUMBER:n}",
                          "%{ANYDATA:any} gamma %{NUMBER:n}"}),
                   pre_.classifier());
  for (int i = 0; i < 3; ++i) {
    auto outcome = parser.parse(pre_.process("zz yy gamma 5"));
    ASSERT_TRUE(outcome.log.has_value()) << "parse " << i;
    EXPECT_EQ(outcome.log->pattern_id, 3);
    EXPECT_EQ(outcome.log->to_json().dump(),
              R"({"_pattern_id":3,"any":"zz yy","n":"5"})");
  }
}

TEST_F(LogParserTest, FirstParseOfASignatureAgreesWithDispatchedOnes) {
  LogParser parser(model({"alpha %{WORD:a} %{NUMBER:n}",
                          "beta %{WORD:a} %{NUMBER:n}",
                          "gamma %{WORD:a} %{NUMBER:n}",
                          "delta %{WORD:a} %{NUMBER:n}"}),
                   pre_.classifier());
  const TokenizedLog log = pre_.process("delta x 5");
  auto first = parser.parse(log);
  ASSERT_TRUE(first.log.has_value());
  // The miss scans the group in order: delta is its last member.
  EXPECT_EQ(parser.stats().match_attempts, 4u);
  for (int i = 0; i < 3; ++i) {
    auto later = parser.parse(log);
    ASSERT_TRUE(later.log.has_value());
    EXPECT_EQ(later.log->to_json().dump(), first.log->to_json().dump());
  }
  // Each dispatched parse tries the "delta" bucket only.
  EXPECT_EQ(parser.stats().match_attempts, 4u + 3u);
  EXPECT_EQ(parser.stats().groups_built, 1u);
}

TEST_F(LogParserTest, ResidentBytesCountTheDispatch) {
  LogParser parser(model({"alpha %{WORD:a} %{NUMBER:n}",
                          "beta %{WORD:a} %{NUMBER:n}"}),
                   pre_.classifier());
  parser.parse(pre_.process("alpha x 5"));
  const size_t before = parser.resident_bytes();
  parser.parse(pre_.process("alpha x 5"));  // first hit builds the dispatch
  EXPECT_GT(parser.resident_bytes(), before);
}

TEST_F(LogParserTest, ResidentBytesGrowWithIndexEntries) {
  auto m = model({"%{WORD:a} %{NUMBER:b}"});
  LogParser parser(m, pre_.classifier());
  const size_t empty_index = parser.resident_bytes();
  for (int i = 0; i < 32; ++i) {
    std::string line = "login 1";
    for (int j = 0; j < i; ++j) line += " extra";
    parser.parse(pre_.process(line));
  }
  // 32 distinct signatures cached: the index accounting (bucket array +
  // per-entry nodes + owned signature/group storage) must be visible.
  EXPECT_GT(parser.resident_bytes(), empty_index + 32 * sizeof(void*));
}

}  // namespace
}  // namespace loglens
