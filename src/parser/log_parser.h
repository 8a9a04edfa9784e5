// The stateless log parser (Section III-B): LogLens's exemplary stateless
// anomaly detector and the building block for all downstream analytics.
//
// Given a model (the discovered GROK patterns) the parser maintains a hash
// index from log-signature to candidate-pattern-group:
//   1. compute the incoming log's signature,
//   2. on an index miss, build the group by running Algorithm 1 against all
//      m pattern signatures, sort it by datatype generality then length, and
//      cache it (an empty group is cached too),
//   3. scan the group's patterns in order until one parses the log.
// A log no pattern parses is an anomaly (type kUnparsedLog).
//
// Step 3 dispatches on a literal. Members of a group share a signature and
// differ mostly in literal tokens, and every line of a group has the same
// token count, so the tokens before a member's first ANYDATA line up with
// the line's one-to-one. On an entry's first index hit the parser picks the
// token position where the most such members hold a literal and buckets
// those members by it; every other member goes on the entry's `rest` list.
// A hit then tries only the line's bucket merged with `rest` in group
// order: the members it skips hold a different literal where the line has
// this token, so they cannot parse it, and the ones it tries keep the order
// above, so outcomes are those of the full scan. The dispatch is
// built lazily, never on the miss, so signature churn pays nothing for it.
//
// The index keys on the hashed datatype sequence directly (no string key is
// ever built) and is bounded: entries beyond `index_capacity` evict the
// least-recently-used signature, so adversarial signature churn cannot grow
// the parser without bound. Evictions are counted in ParserStats and
// surfaced as loglens_parser_index_evictions_total.
//
// Hot-path contract: parse_into() reuses caller-owned ParsedLog storage plus
// per-instance scratch (signature buffer, matcher state), so an index-hit
// parse of a warm parser performs zero heap allocations
// (tests/parser_allocation_test.cpp holds this to exactly 0).
//
// `IndexMode::kDisabled` gives the naive O(m) scan-per-log behaviour for the
// index ablation benchmark.
#pragma once

#include <cstdint>
#include <list>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "grok/datatype.h"
#include "grok/pattern.h"
#include "grok/set_matcher.h"
#include "grok/token.h"
#include "json/json.h"
#include "parser/signature.h"

#include <unordered_map>

namespace loglens {

// A successfully parsed log: the input of the stateful detector.
struct ParsedLog {
  int pattern_id = 0;
  int64_t timestamp_ms = -1;  // unified timestamp, -1 when the log has none
  JsonObject fields;          // field name -> value, in pattern order
  std::string raw;

  Json to_json() const;
};

struct ParseOutcome {
  std::optional<ParsedLog> log;  // empty => unparsed (stateless anomaly)
};

struct ParserStats {
  uint64_t logs = 0;
  uint64_t unparsed = 0;
  uint64_t index_hits = 0;
  uint64_t groups_built = 0;
  uint64_t index_evictions = 0;
  // Pattern comparisons: Algorithm 1 membership decisions during group
  // building (one per pattern per build, whether they were computed by the
  // per-pattern DP loop or by one set-matcher walk) plus (in naive mode) the
  // per-pattern model scan every log pays. This is the quantity the
  // O(mn) -> O(n) claim is about.
  uint64_t signature_comparisons = 0;
  uint64_t match_attempts = 0;
  // Group builds whose set-matcher walk (grok/set_matcher.h) overflowed its
  // active-set cap, so the per-pattern DP loop built the group instead.
  uint64_t set_fallbacks = 0;
};

enum class IndexMode { kEnabled, kDisabled };

// kAuto: compile the signature-level set matcher and build candidate groups
// on index misses with one walk. kDisabled: build every group with the
// per-pattern DP loop — the ablation baseline the differential tests compare
// against byte-for-byte. Either way the group is then scanned through its
// literal dispatch.
enum class SetMatchMode { kAuto, kDisabled };

class LogParser {
 public:
  static constexpr size_t kDefaultIndexCapacity = 1u << 16;

  LogParser(std::vector<GrokPattern> model, const DatatypeClassifier& classifier,
            IndexMode index_mode = IndexMode::kEnabled,
            size_t index_capacity = kDefaultIndexCapacity,
            SetMatchMode set_match = SetMatchMode::kAuto);

  // Parses one preprocessed log.
  ParseOutcome parse(const TokenizedLog& log);

  // Hot-path variants: on success fill `out` in place (reusing its field and
  // raw string storage) and return true; on failure `out` is stale and must
  // not be read. The rvalue overload steals `log.raw` instead of copying it.
  bool parse_into(const TokenizedLog& log, ParsedLog& out);
  bool parse_into(TokenizedLog&& log, ParsedLog& out);

  std::vector<GrokPattern> model() const {
    std::vector<GrokPattern> out;
    out.reserve(patterns_.size());
    for (const auto& ip : patterns_) out.push_back(ip.pattern);
    return out;
  }
  size_t pattern_count() const { return patterns_.size(); }
  const ParserStats& stats() const { return stats_; }
  void reset_stats() { stats_ = {}; }

  size_t index_size() const { return index_map_.size(); }
  size_t index_capacity() const { return index_capacity_; }

  // Approximate resident bytes of the model + index (memory experiment),
  // including the index's hash-bucket array and per-entry node overhead.
  size_t resident_bytes() const;

 private:
  struct IndexedPattern {
    GrokPattern pattern;
    std::vector<Datatype> signature;
    int generality = 0;
  };

  // Members bucketed[begin, end) hold `literal` at the entry's dispatch
  // position. The view points into patterns_, which is built once.
  struct LiteralBucket {
    std::string_view literal;
    uint32_t begin = 0;
    uint32_t end = 0;
  };

  // One cached signature -> candidate-group mapping. The entry owns the
  // signature storage; the index map's span key points into it (std::list
  // nodes are stable under splice, so the span stays valid for the entry's
  // lifetime).
  struct IndexEntry {
    std::vector<Datatype> sig;
    std::vector<uint32_t> group;  // pattern indices, in Section III-B order
    // Literal dispatch, built on the entry's first index hit. `buckets` is
    // sorted by literal; `bucketed` and `rest` hold pattern indices in
    // group order within each bucket and within `rest`. No buckets: every
    // line scans the whole group.
    bool dispatch_built = false;
    uint32_t dispatch_pos = 0;
    std::vector<LiteralBucket> buckets;
    std::vector<uint32_t> bucketed;
    std::vector<uint32_t> rest;
  };
  using LruList = std::list<IndexEntry>;

  struct SigHash {
    size_t operator()(std::span<const Datatype> s) const {
      return static_cast<size_t>(signature_hash(s));
    }
  };
  struct SigEq {
    bool operator()(std::span<const Datatype> a,
                    std::span<const Datatype> b) const {
      return a.size() == b.size() && std::equal(a.begin(), a.end(), b.begin());
    }
  };

  // Looks up (and on miss builds + caches) the index entry for `sig`,
  // refreshing its LRU position, and builds its literal dispatch on the
  // first hit. The returned reference is valid until the next index_entry
  // call.
  IndexEntry& index_entry(std::span<const Datatype> sig);
  void build_dispatch(IndexEntry& entry) const;

  // Shared matching core: fills out.pattern_id / timestamp_ms / fields on
  // success, leaving out.raw for the caller to settle.
  bool match_core(const TokenizedLog& log, ParsedLog& out);

  const DatatypeClassifier& classifier_;
  IndexMode index_mode_;
  size_t index_capacity_;
  std::vector<IndexedPattern> patterns_;
  std::vector<uint32_t> rank_;  // pattern index -> Section III-B scan rank
  LruList lru_;  // front = most recently used
  std::unordered_map<std::span<const Datatype>, LruList::iterator, SigHash,
                     SigEq>
      index_map_;
  ParserStats stats_;
  // Signature-level set matcher compiled once from the model for group
  // building on index misses (empty in SetMatchMode::kDisabled).
  SetMatchMode set_match_mode_;
  GrokSetMatcher sig_matcher_;
  // Per-instance scratch reused across parse calls (hot-path contract).
  std::vector<Datatype> sig_scratch_;
  GrokMatchScratch match_scratch_;
  GrokSetScratch set_scratch_;
};

}  // namespace loglens
