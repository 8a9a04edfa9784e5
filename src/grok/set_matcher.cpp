#include "grok/set_matcher.h"

#include <algorithm>
#include <array>

namespace loglens {

namespace {

// cover_mask[d] = the set of non-wildcard pattern elements p that accept a
// log element d under Algorithm 1: d == p || is_covered(d, p). Precomputed
// once from the same is_covered the linear signature_match loop uses.
std::array<uint8_t, kDatatypeCount> build_cover_masks() {
  std::array<uint8_t, kDatatypeCount> out{};
  for (int d = 0; d < kDatatypeCount; ++d) {
    for (int p = 0; p < kDatatypeCount; ++p) {
      const Datatype dd = static_cast<Datatype>(d);
      const Datatype pp = static_cast<Datatype>(p);
      if (dd == pp || is_covered(dd, pp)) {
        out[d] |= static_cast<uint8_t>(1u << p);
      }
    }
  }
  return out;
}

const std::array<uint8_t, kDatatypeCount>& cover_masks() {
  static const std::array<uint8_t, kDatatypeCount> masks = build_cover_masks();
  return masks;
}

}  // namespace

int32_t GrokSetMatcher::child_class(uint32_t node, Datatype type) {
  const int idx = static_cast<int>(type);
  int32_t next = nodes_[node].class_next[idx];
  if (next < 0) {
    next = static_cast<int32_t>(nodes_.size());
    nodes_.emplace_back();
    nodes_[node].class_next[idx] = next;
  }
  return next;
}

int32_t GrokSetMatcher::child_wild(uint32_t node) {
  int32_t next = nodes_[node].wild_next;
  if (next < 0) {
    next = static_cast<int32_t>(nodes_.size());
    nodes_.emplace_back();
    nodes_.back().self_loop = true;
    nodes_[node].wild_next = next;
  }
  return next;
}

GrokSetMatcher GrokSetMatcher::compile_signatures(
    const std::vector<std::vector<Datatype>>& signatures) {
  GrokSetMatcher m;
  m.pattern_count_ = signatures.size();
  m.nodes_.emplace_back();  // root
  for (size_t i = 0; i < signatures.size(); ++i) {
    uint32_t cur = 0;
    for (Datatype d : signatures[i]) {
      if (d == Datatype::kAnyData) {
        cur = static_cast<uint32_t>(m.child_wild(cur));
      } else {
        cur = static_cast<uint32_t>(m.child_class(cur, d));
      }
    }
    m.nodes_[cur].terminal.push_back(static_cast<uint32_t>(i));
  }
  return m;
}

bool GrokSetMatcher::match_signature(std::span<const Datatype> sig,
                                     GrokSetScratch& scratch) const {
  scratch.result.clear();
  scratch.overflow = false;
  if (nodes_.empty() || pattern_count_ == 0) return true;
  if (scratch.seen.size() != nodes_.size()) {
    scratch.seen.assign(nodes_.size(), 0);
    scratch.epoch = 0;
  }

  auto next_epoch = [&scratch]() {
    if (++scratch.epoch == 0) {  // wrapped: invalidate every stale stamp
      std::fill(scratch.seen.begin(), scratch.seen.end(), 0u);
      scratch.epoch = 1;
    }
  };
  // Adds `node` and its epsilon closure (the wild_next chain: a wildcard
  // may span zero tokens, so entering one immediately activates its
  // continuation too). Epoch stamps dedup nodes reachable twice per step.
  auto add = [this, &scratch](std::vector<uint32_t>& set, uint32_t node) {
    while (scratch.seen[node] != scratch.epoch) {
      scratch.seen[node] = scratch.epoch;
      set.push_back(node);
      const int32_t w = nodes_[node].wild_next;
      if (w < 0) break;
      node = static_cast<uint32_t>(w);
    }
  };

  const auto& masks = cover_masks();
  next_epoch();
  scratch.active.clear();
  add(scratch.active, 0);
  for (const Datatype d : sig) {
    if (scratch.active.empty()) break;  // no pattern can match
    const uint8_t mask = masks[static_cast<int>(d)];
    next_epoch();
    scratch.next_active.clear();
    for (const uint32_t id : scratch.active) {
      const Node& nd = nodes_[id];
      if (nd.self_loop) add(scratch.next_active, id);
      for (int p = 0; p < kDatatypeCount; ++p) {
        if (((mask >> p) & 1) != 0 && nd.class_next[p] >= 0) {
          add(scratch.next_active, static_cast<uint32_t>(nd.class_next[p]));
        }
      }
      if (scratch.next_active.size() > kMaxActive) {
        scratch.overflow = true;
        return false;
      }
    }
    scratch.active.swap(scratch.next_active);
  }

  for (const uint32_t id : scratch.active) {
    const Node& nd = nodes_[id];
    scratch.result.insert(scratch.result.end(), nd.terminal.begin(),
                          nd.terminal.end());
  }
  // Terminal lists of distinct nodes are disjoint, so this is a plain sort,
  // no dedup needed.
  std::sort(scratch.result.begin(), scratch.result.end());
  return true;
}

size_t GrokSetMatcher::resident_bytes() const {
  size_t bytes = nodes_.capacity() * sizeof(Node);
  for (const Node& n : nodes_) {
    bytes += n.terminal.capacity() * sizeof(uint32_t);
  }
  return bytes;
}

}  // namespace loglens
