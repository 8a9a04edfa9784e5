// Cross-module property tests: the signature index must be a lossless
// accelerator, and discovered models must parse their corpora end to end.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <tuple>

#include "datagen/datasets.h"
#include "logmine/discoverer.h"
#include "parser/log_parser.h"
#include "parser/signature.h"
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

// A real model: the default parser and the set-matcher-free one both scan
// D4's candidate groups (tens of patterns) through the literal dispatch. They
// stay byte-identical, make the same match attempts, and need at most two
// attempts per line, group builds included.
TEST_F(ParserProperty, D4GroupsDispatchWithIdenticalOutcomes) {
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
  EXPECT_LE(parser.stats().match_attempts, 2 * parser.stats().logs);
}

// A reference for the indexed parser written from Section III-B alone:
// Algorithm 1 against every pattern, the generality / length / model-order
// sort, then GrokPattern::match in that order. Candidate lists are memoized
// per signature so the reference stays affordable on D4.
class ReferenceParser {
 public:
  ReferenceParser(const std::vector<GrokPattern>& model,
                  const DatatypeClassifier& classifier)
      : model_(model), classifier_(classifier) {
    for (const auto& p : model_) {
      sigs_.push_back(pattern_signature(p, classifier_));
    }
  }

  // The parse's to_json().dump(), or "" when no pattern parses the log.
  std::string parse(const TokenizedLog& log) {
    const std::vector<Datatype> sig = log_signature(log);
    auto [it, fresh] = groups_.try_emplace(signature_key(sig));
    std::vector<uint32_t>& group = it->second;
    if (fresh) {
      for (uint32_t i = 0; i < model_.size(); ++i) {
        if (signature_match(sig, sigs_[i])) group.push_back(i);
      }
      auto key = [this](uint32_t i) {
        return std::tuple(model_[i].generality_score(), model_[i].size(), i);
      };
      std::sort(group.begin(), group.end(),
                [&key](uint32_t a, uint32_t b) { return key(a) < key(b); });
    }
    for (uint32_t i : group) {
      ParsedLog out;
      if (!model_[i].match(log.tokens, classifier_, &out.fields)) continue;
      out.pattern_id = model_[i].id();
      out.timestamp_ms = log.timestamp_ms;
      return out.to_json().dump();
    }
    return "";
  }

 private:
  const std::vector<GrokPattern>& model_;
  const DatatypeClassifier& classifier_;
  std::vector<std::vector<Datatype>> sigs_;
  std::map<std::string, std::vector<uint32_t>> groups_;
};

// `log` with one token past its leading timestamp (which one cycles with
// `i`, starting at the first) replaced by the token at the same position in
// `donor`, reclassified. Such lines keep their length but land in other
// buckets, or in none.
TokenizedLog mutate_token(TokenizedLog log, const TokenizedLog& donor,
                          size_t i, const DatatypeClassifier& classifier) {
  size_t k = 0;
  while (k < log.tokens.size() && log.tokens[k].type == Datatype::kDateTime) {
    ++k;
  }
  if (k == log.tokens.size()) return log;
  k += i % (log.tokens.size() - k);
  Token& t = log.tokens[k];
  t.text = k < donor.tokens.size() && donor.tokens[k].text != t.text
               ? donor.tokens[k].text
               : t.text + "x";
  t.type = classifier.classify(t.text);
  return log;
}

// Parses `logs` with the reference and with LogParser at two index
// capacities, twice each, and requires byte-identical outcomes. Returns how
// many lines the reference parses.
size_t check_against_reference(const char* name,
                             const std::vector<GrokPattern>& patterns,
                             const std::vector<TokenizedLog>& logs,
                             const DatatypeClassifier& classifier) {
  ReferenceParser reference(patterns, classifier);
  std::vector<std::string> expected;
  expected.reserve(logs.size());
  size_t parsed = 0;
  for (const auto& log : logs) {
    expected.push_back(reference.parse(log));
    parsed += expected.back().empty() ? 0 : 1;
  }
  for (size_t capacity : {LogParser::kDefaultIndexCapacity, size_t{8}}) {
    LogParser parser(patterns, classifier, IndexMode::kEnabled, capacity);
    // Two passes: the second parses every line through a built dispatch.
    size_t mismatches = 0;
    std::string first;
    for (int pass = 0; pass < 2; ++pass) {
      for (size_t i = 0; i < logs.size(); ++i) {
        auto outcome = parser.parse(logs[i]);
        const std::string got =
            outcome.log.has_value() ? outcome.log->to_json().dump() : "";
        if (got != expected[i] && mismatches++ == 0) {
          first = "pass " + std::to_string(pass) + ": " + logs[i].raw +
                  "\n  got      " + got + "\n  expected " + expected[i];
        }
      }
    }
    EXPECT_EQ(mismatches, 0u) << name << " with " << patterns.size()
                              << " patterns, capacity " << capacity
                              << "; first mismatch at " << first;
    if (capacity == 8) {
      EXPECT_GT(parser.stats().index_evictions, 0u) << name;
    }
  }
  return parsed;
}

// `model` plus, for each pattern, a copy with one token past its leading
// DATETIME fields (which one cycles with the pattern's index) turned from a
// literal into a field of the literal's datatype. A copy shares its
// original's signature and ranks behind it, so dispatched groups get `rest`
// members, and buckets hold members that match the same lines, where the
// first in group order must win. A copy also parses the mutated lines that
// changed the token it generalized.
std::vector<GrokPattern> with_generalized_copies(
    std::vector<GrokPattern> model, const DatatypeClassifier& classifier) {
  const size_t n = model.size();
  int next_id = 0;
  for (const auto& p : model) next_id = std::max(next_id, p.id());
  for (size_t i = 0; i < n; ++i) {
    GrokPattern copy = model[i];
    auto& tokens = copy.tokens();
    size_t k = 0;
    while (k < tokens.size() && tokens[k].is_field &&
           tokens[k].field.type == Datatype::kDateTime) {
      ++k;
    }
    if (k == tokens.size()) continue;
    k += i % (tokens.size() - k);
    if (tokens[k].is_field) continue;
    tokens[k] = GrokToken::make_field(classifier.classify(tokens[k].literal));
    copy.assign_field_ids(++next_id);
    model.push_back(std::move(copy));
  }
  return model;
}

// The indexed parser, whose groups dispatch on a literal, against the
// reference above on D3-D6 test splits plus a mutated copy of each line,
// with the discovered model and with generalized copies added: byte-identical
// at the default index capacity and at a capacity small enough that entries
// are evicted and rebuilt.
TEST_F(ParserProperty, IndexedParserEqualsSectionIIIBReference) {
  for (const char* name : {"D3", "D4", "D5", "D6"}) {
    Dataset ds = make_dataset(name, /*scale=*/0.002);
    auto discovered = discover(ds.training, recommended_discovery(name));
    ASSERT_FALSE(discovered.empty()) << name;
    std::vector<TokenizedLog> logs;
    for (const auto& line : ds.testing) logs.push_back(pre_.process(line));
    const size_t n = logs.size();
    for (size_t i = 0; i < n; ++i) {
      logs.push_back(
          mutate_token(logs[i], logs[(i * 7 + 3) % n], i, pre_.classifier()));
    }
    const size_t parsed =
        check_against_reference(name, discovered, logs, pre_.classifier());
    EXPECT_GE(parsed, n) << name;  // every test line, some mutated ones
    EXPECT_GT(check_against_reference(
                  name, with_generalized_copies(discovered, pre_.classifier()),
                  logs, pre_.classifier()),
              parsed)
        << name;
  }
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
