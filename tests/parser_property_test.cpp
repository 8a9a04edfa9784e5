// Cross-module property tests: the signature index must be a lossless
// accelerator, and discovered models must parse their corpora end to end.
#include <gtest/gtest.h>

#include "datagen/datasets.h"
#include "logmine/discoverer.h"
#include "parser/log_parser.h"
#include "tokenize/preprocessor.h"

namespace loglens {
namespace {

class ParserProperty : public ::testing::Test {
 protected:
  ParserProperty() : pre_(std::move(Preprocessor::create({}).value())) {}

  std::vector<GrokPattern> discover(const std::vector<std::string>& lines,
                                    DiscoveryOptions opts) {
    std::vector<TokenizedLog> toks;
    toks.reserve(lines.size());
    for (const auto& l : lines) toks.push_back(pre_.process(l));
    PatternDiscoverer d(opts, pre_.classifier());
    return d.discover(toks);
  }

  Preprocessor pre_;
};

// Invariant (DESIGN.md): for any log, the indexed parser and the naive
// all-pattern scan agree on *whether* the log parses. (They may pick
// different patterns when several match — the index orders by specificity —
// so we compare parseability, not pattern identity.)
TEST_F(ParserProperty, IndexNeverLosesMatches) {
  Dataset d3 = make_d3(/*scale=*/0.002);
  auto patterns = discover(d3.training, recommended_discovery("D3"));
  ASSERT_FALSE(patterns.empty());

  LogParser indexed(patterns, pre_.classifier(), IndexMode::kEnabled);
  LogParser naive(patterns, pre_.classifier(), IndexMode::kDisabled);
  size_t checked = 0;
  for (const auto& line : d3.testing) {
    TokenizedLog log = pre_.process(line);
    bool a = indexed.parse(log).log.has_value();
    bool b = naive.parse(log).log.has_value();
    ASSERT_EQ(a, b) << line;
    ++checked;
  }
  EXPECT_GT(checked, 300u);
}

// A real model: the default parser scans D4's candidate groups (tens of
// patterns) linearly, making exactly the set-matcher-free parser's match
// attempts, and stays byte-identical to it.
TEST_F(ParserProperty, D4GroupsScanLinearlyWithIdenticalOutcomes) {
  Dataset d4 = make_d4(/*scale=*/0.01);
  auto patterns = discover(d4.training, recommended_discovery("D4"));
  ASSERT_GT(patterns.size(), 1000u);

  LogParser parser(patterns, pre_.classifier());
  LogParser linear(patterns, pre_.classifier(), IndexMode::kEnabled,
                   LogParser::kDefaultIndexCapacity, SetMatchMode::kDisabled);
  for (const auto& line : d4.testing) {
    TokenizedLog log = pre_.process(line);
    auto a = parser.parse(log);
    auto b = linear.parse(log);
    ASSERT_EQ(a.log.has_value(), b.log.has_value()) << line;
    if (a.log.has_value()) {
      ASSERT_EQ(a.log->to_json().dump(), b.log->to_json().dump()) << line;
    }
  }
  EXPECT_EQ(parser.stats().logs, d4.testing.size());
  EXPECT_EQ(parser.stats().set_fallbacks, 0u);
  EXPECT_EQ(parser.stats().unparsed, linear.stats().unparsed);
  EXPECT_EQ(parser.stats().match_attempts, linear.stats().match_attempts);
}

TEST_F(ParserProperty, TrainEqualsTestSanityZeroAnomalies) {
  // The Table IV setup: training and testing share templates, so a correct
  // parser yields zero unparsed logs.
  for (const char* name : {"D3", "D5"}) {
    Dataset ds = make_dataset(name, /*scale=*/0.002);
    auto patterns = discover(ds.training, recommended_discovery(name));
    LogParser parser(patterns, pre_.classifier());
    for (const auto& line : ds.testing) {
      ASSERT_TRUE(parser.parse(pre_.process(line)).log.has_value())
          << name << ": " << line;
    }
    EXPECT_EQ(parser.stats().unparsed, 0u) << name;
  }
}

TEST_F(ParserProperty, DiscoveredPatternCountTracksTemplateCount) {
  // Shape check for Table IV's pattern counts: discovery over the template
  // corpora recovers approximately one pattern per template.
  Dataset d5 = make_d5(/*scale=*/0.004);  // 243 templates
  auto patterns = discover(d5.training, recommended_discovery("D5"));
  EXPECT_GE(patterns.size(), 230u);
  EXPECT_LE(patterns.size(), 260u);
}

TEST_F(ParserProperty, ParsedFieldsRoundTripThroughJson) {
  Dataset d3 = make_d3(0.001);
  auto patterns = discover(d3.training, recommended_discovery("D3"));
  LogParser parser(patterns, pre_.classifier());
  size_t parsed_count = 0;
  for (size_t i = 0; i < d3.testing.size() && i < 200; ++i) {
    auto outcome = parser.parse(pre_.process(d3.testing[i]));
    if (!outcome.log.has_value()) continue;
    ++parsed_count;
    Json j = outcome.log->to_json();
    auto reparsed = Json::parse(j.dump());
    ASSERT_TRUE(reparsed.ok());
    EXPECT_EQ(reparsed.value(), j);
  }
  EXPECT_GT(parsed_count, 100u);
}

// Parameterized sweep: the index invariant must hold across dataset flavors.
class IndexInvariantSweep : public ::testing::TestWithParam<const char*> {};

TEST_P(IndexInvariantSweep, IndexedEqualsNaiveParseability) {
  auto pre = std::move(Preprocessor::create({}).value());
  Dataset ds = make_dataset(GetParam(), /*scale=*/0.001);
  std::vector<TokenizedLog> toks;
  for (const auto& l : ds.training) toks.push_back(pre.process(l));
  PatternDiscoverer d(recommended_discovery(GetParam()), pre.classifier());
  auto patterns = d.discover(toks);
  ASSERT_FALSE(patterns.empty());
  LogParser indexed(patterns, pre.classifier(), IndexMode::kEnabled);
  LogParser naive(patterns, pre.classifier(), IndexMode::kDisabled);
  size_t limit = std::min<size_t>(ds.testing.size(), 400);
  for (size_t i = 0; i < limit; ++i) {
    TokenizedLog log = pre.process(ds.testing[i]);
    ASSERT_EQ(indexed.parse(log).log.has_value(),
              naive.parse(log).log.has_value())
        << GetParam() << ": " << ds.testing[i];
  }
}

INSTANTIATE_TEST_SUITE_P(Datasets, IndexInvariantSweep,
                         ::testing::Values("D1", "D2", "D3", "D5", "SS7"));

}  // namespace
}  // namespace loglens
