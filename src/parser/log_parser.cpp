#include "parser/log_parser.h"

#include <algorithm>

#include "common/time.h"

namespace loglens {

Json ParsedLog::to_json() const {
  JsonObject obj;
  obj.emplace_back("_pattern_id", Json(static_cast<int64_t>(pattern_id)));
  if (timestamp_ms >= 0) {
    obj.emplace_back("_timestamp", Json(format_canonical(timestamp_ms)));
  }
  for (const auto& [k, v] : fields) obj.emplace_back(k, v);
  return Json(std::move(obj));
}

LogParser::LogParser(std::vector<GrokPattern> model,
                     const DatatypeClassifier& classifier,
                     IndexMode index_mode, size_t index_capacity,
                     SetMatchMode set_match)
    : classifier_(classifier),
      index_mode_(index_mode),
      index_capacity_(std::max<size_t>(1, index_capacity)),
      set_match_mode_(set_match) {
  patterns_.reserve(model.size());
  for (auto& p : model) {
    IndexedPattern ip;
    ip.signature = pattern_signature(p, classifier_);
    ip.generality = p.generality_score();
    ip.pattern = std::move(p);
    patterns_.push_back(std::move(ip));
  }
  // "Patterns are sorted in the ascending order of datatype's generality and
  // length": most specific first; shorter patterns break ties. Groups and
  // their dispatch lists are ordered by this rank.
  std::vector<uint32_t> order(patterns_.size());
  for (uint32_t pi = 0; pi < order.size(); ++pi) order[pi] = pi;
  std::sort(order.begin(), order.end(), [this](uint32_t a, uint32_t b) {
    const auto& pa = patterns_[a];
    const auto& pb = patterns_[b];
    if (pa.generality != pb.generality) return pa.generality < pb.generality;
    if (pa.pattern.size() != pb.pattern.size()) {
      return pa.pattern.size() < pb.pattern.size();
    }
    return a < b;
  });
  rank_.resize(order.size());
  for (uint32_t r = 0; r < order.size(); ++r) rank_[order[r]] = r;
  if (set_match_mode_ == SetMatchMode::kAuto) {
    std::vector<std::vector<Datatype>> sigs;
    sigs.reserve(patterns_.size());
    for (const auto& ip : patterns_) sigs.push_back(ip.signature);
    sig_matcher_ = GrokSetMatcher::compile_signatures(sigs);
  }
}

LogParser::IndexEntry& LogParser::index_entry(std::span<const Datatype> sig) {
  auto it = index_map_.find(sig);
  if (it != index_map_.end()) {
    ++stats_.index_hits;
    lru_.splice(lru_.begin(), lru_, it->second);
    IndexEntry& entry = *it->second;
    if (!entry.dispatch_built) build_dispatch(entry);
    return entry;
  }
  ++stats_.groups_built;
  IndexEntry entry;
  entry.sig.assign(sig.begin(), sig.end());
  // One signature-level walk decides Algorithm 1 membership for every
  // pattern at once — the index-miss cost drops from O(patterns) DPs to
  // ~O(signature length). The walk makes the same per-pattern membership
  // decisions the DP loop would, so it contributes the same
  // signature_comparisons count; only its cost differs.
  if (set_match_mode_ == SetMatchMode::kAuto &&
      sig_matcher_.match_signature(sig, set_scratch_)) {
    stats_.signature_comparisons += patterns_.size();
    entry.group.assign(set_scratch_.result.begin(), set_scratch_.result.end());
  } else {
    if (set_match_mode_ == SetMatchMode::kAuto) ++stats_.set_fallbacks;
    for (uint32_t pi = 0; pi < patterns_.size(); ++pi) {
      ++stats_.signature_comparisons;
      if (signature_match(sig, patterns_[pi].signature)) {
        entry.group.push_back(pi);
      }
    }
  }
  std::sort(entry.group.begin(), entry.group.end(),
            [this](uint32_t a, uint32_t b) { return rank_[a] < rank_[b]; });
  if (index_map_.size() >= index_capacity_) {
    index_map_.erase(std::span<const Datatype>(lru_.back().sig));
    lru_.pop_back();
    ++stats_.index_evictions;
  }
  lru_.push_front(std::move(entry));
  index_map_.emplace(std::span<const Datatype>(lru_.front().sig),
                     lru_.begin());
  return lru_.front();
}

void LogParser::build_dispatch(IndexEntry& entry) const {
  entry.dispatch_built = true;
  const size_t width = entry.sig.size();
  if (entry.group.size() < 2) return;  // one member: nothing to skip past
  // A member's tokens before its first ANYDATA align with the line's, so
  // only those positions can key it. Count literals per aligned position.
  auto aligned = [width](const GrokPattern& p) {
    size_t n = 0;
    for (const auto& t : p.tokens()) {
      if (n == width || (t.is_field && t.field.type == Datatype::kAnyData)) {
        break;
      }
      ++n;
    }
    return n;
  };
  std::vector<uint32_t> literals(width, 0);
  for (uint32_t pi : entry.group) {
    const GrokPattern& p = patterns_[pi].pattern;
    for (size_t k = 0, n = aligned(p); k < n; ++k) {
      if (!p.tokens()[k].is_field) ++literals[k];
    }
  }
  const auto best = std::max_element(literals.begin(), literals.end());
  if (best == literals.end() || *best == 0) return;
  const auto pos = static_cast<uint32_t>(best - literals.begin());
  entry.dispatch_pos = pos;

  // (literal, group position) for every member keyed at `pos`.
  std::vector<std::pair<std::string_view, uint32_t>> keyed;
  keyed.reserve(*best);
  for (uint32_t g = 0; g < entry.group.size(); ++g) {
    const GrokPattern& p = patterns_[entry.group[g]].pattern;
    if (pos < aligned(p) && !p.tokens()[pos].is_field) {
      keyed.emplace_back(p.tokens()[pos].literal, g);
    } else {
      entry.rest.push_back(entry.group[g]);
    }
  }
  // By literal, then group position: each bucket stays in group order.
  std::sort(keyed.begin(), keyed.end());
  entry.bucketed.reserve(keyed.size());
  for (const auto& [literal, g] : keyed) {
    const auto at = static_cast<uint32_t>(entry.bucketed.size());
    if (entry.buckets.empty() || entry.buckets.back().literal != literal) {
      entry.buckets.push_back({literal, at, at});
    }
    entry.bucketed.push_back(entry.group[g]);
    entry.buckets.back().end = at + 1;
  }
}

bool LogParser::match_core(const TokenizedLog& log, ParsedLog& out) {
  ++stats_.logs;
  sig_scratch_.clear();
  for (const auto& t : log.tokens) sig_scratch_.push_back(t.type);

  const GrokPattern* matched = nullptr;
  if (index_mode_ == IndexMode::kEnabled) {
    const IndexEntry& entry = index_entry(sig_scratch_);
    // With buckets, try the line's bucket merged with `rest` by rank. A
    // new entry (no dispatch yet) or one without buckets scans the group.
    std::span<const uint32_t> rest = entry.group;
    std::span<const uint32_t> bucket;
    if (!entry.buckets.empty()) {
      rest = entry.rest;
      const std::string_view text = log.tokens[entry.dispatch_pos].text;
      const auto b = std::lower_bound(
          entry.buckets.begin(), entry.buckets.end(), text,
          [](const LiteralBucket& lb, std::string_view t) {
            return lb.literal < t;
          });
      if (b != entry.buckets.end() && b->literal == text) {
        bucket = std::span<const uint32_t>(entry.bucketed)
                     .subspan(b->begin, b->end - b->begin);
      }
    }
    for (size_t bi = 0, ri = 0; bi < bucket.size() || ri < rest.size();) {
      const uint32_t pi =
          ri == rest.size() ||
                  (bi < bucket.size() && rank_[bucket[bi]] < rank_[rest[ri]])
              ? bucket[bi++]
              : rest[ri++];
      ++stats_.match_attempts;
      if (patterns_[pi].pattern.match_into(log.tokens, classifier_,
                                           &out.fields, match_scratch_)) {
        matched = &patterns_[pi].pattern;
        break;
      }
    }
  } else {
    // Naive baseline behaviour: try every pattern in model order. Each scan
    // step is a pattern comparison — the cost the signature index amortizes
    // away — so it counts toward signature_comparisons too.
    for (auto& ip : patterns_) {
      ++stats_.signature_comparisons;
      ++stats_.match_attempts;
      if (ip.pattern.match_into(log.tokens, classifier_, &out.fields,
                                match_scratch_)) {
        matched = &ip.pattern;
        break;
      }
    }
  }

  if (matched == nullptr) {
    ++stats_.unparsed;
    return false;
  }
  out.pattern_id = matched->id();
  out.timestamp_ms = log.timestamp_ms;
  return true;
}

bool LogParser::parse_into(const TokenizedLog& log, ParsedLog& out) {
  if (!match_core(log, out)) return false;
  out.raw.assign(log.raw);
  return true;
}

bool LogParser::parse_into(TokenizedLog&& log, ParsedLog& out) {
  if (!match_core(log, out)) return false;
  out.raw.swap(log.raw);
  return true;
}

ParseOutcome LogParser::parse(const TokenizedLog& log) {
  ParsedLog parsed;
  if (!match_core(log, parsed)) return {};
  parsed.raw = log.raw;
  return ParseOutcome{std::move(parsed)};
}

size_t LogParser::resident_bytes() const {
  size_t total = sizeof(*this);
  total += sig_matcher_.resident_bytes();
  total += rank_.capacity() * sizeof(uint32_t);
  for (const auto& ip : patterns_) {
    total += sizeof(ip) + ip.signature.capacity() * sizeof(Datatype);
    for (const auto& t : ip.pattern.tokens()) {
      total += sizeof(t) + t.literal.capacity() + t.field.name.capacity();
    }
  }
  // Index: the hash table's bucket array, then per entry one map node (hash
  // cache + chain pointer + key/value pair) and one doubly-linked list node
  // around the entry's owned signature, group and dispatch storage.
  total += index_map_.bucket_count() * sizeof(void*);
  constexpr size_t kMapNodeOverhead =
      sizeof(void*) + sizeof(size_t) +
      sizeof(std::pair<std::span<const Datatype>, LruList::iterator>);
  constexpr size_t kListNodeOverhead = 2 * sizeof(void*);
  for (const auto& e : lru_) {
    total += kMapNodeOverhead + kListNodeOverhead + sizeof(IndexEntry) +
             e.sig.capacity() * sizeof(Datatype) +
             e.group.capacity() * sizeof(uint32_t) +
             e.buckets.capacity() * sizeof(LiteralBucket) +
             (e.bucketed.capacity() + e.rest.capacity()) * sizeof(uint32_t);
  }
  return total;
}

}  // namespace loglens
