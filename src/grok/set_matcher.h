// Set-level signature matcher (paper Algorithm 1 over the whole model): the
// model's pattern signatures compiled into one shared-prefix trie executed
// as an NFA, so on a signature-index miss the parser decides Algorithm 1
// membership for *every* pattern in one pass over the log signature instead
// of one DP per pattern — the index-miss cost drops from O(patterns) to
// ~O(signature length).
//
// Compile-then-execute IR. Each signature element lowers to one symbol:
//
//   datatype T   -> a datatype class edge (T != ANYDATA),
//   ANYDATA      -> a wildcard node: self-loop plus an epsilon edge to the
//                   continuation (spans zero or more log elements).
//
// Signatures sharing a prefix share trie nodes; a node reached by a whole
// signature records that pattern's index in its terminal list.
//
// Execution is a Thompson-style NFA simulation over the trie. For each log
// element the walk looks up the set of pattern elements that accept it
// (d == p || is_covered(d, p), the same test the DP uses) and advances
// every active node with pure integer edge checks. Cost per log is
// O(elements x active nodes), independent of the pattern count. The active
// set is capped at kMaxActive nodes: on overflow the walk reports failure
// (GrokSetScratch::overflow) and the caller falls back to the per-pattern
// DP loop.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "grok/datatype.h"

namespace loglens {

// Reusable walk state: a warm scratch executes a walk with no heap
// allocation. Outputs of the last walk are left in `result` / `overflow`.
struct GrokSetScratch {
  // Walk output: indices of every matching pattern, ascending. Meaningless
  // when the walk returned false (overflow).
  std::vector<uint32_t> result;
  bool overflow = false;  // active-set cap exceeded; fall back

  // Internals reused across walks.
  std::vector<uint32_t> active;
  std::vector<uint32_t> next_active;
  std::vector<uint32_t> seen;  // node id -> epoch of last activation
  uint32_t epoch = 0;
};

class GrokSetMatcher {
 public:
  // Ceiling on simultaneously-active trie nodes. Shared prefixes keep real
  // models far below this; a model that exceeds it (pathological wildcard
  // nesting) falls back to the DP loop rather than paying unbounded walk
  // cost.
  static constexpr size_t kMaxActive = 256;

  GrokSetMatcher() = default;

  static GrokSetMatcher compile_signatures(
      const std::vector<std::vector<Datatype>>& signatures);

  // One pass over `sig`: on success returns true with scratch.result
  // holding every i with signature_match(sig, signatures[i]), ascending.
  // Returns false with scratch.overflow set when the active set exceeded
  // kMaxActive (use the DP loop instead).
  bool match_signature(std::span<const Datatype> sig,
                       GrokSetScratch& scratch) const;

  size_t pattern_count() const { return pattern_count_; }
  size_t node_count() const { return nodes_.size(); }
  size_t resident_bytes() const;

 private:
  struct Node {
    // Edge per datatype class (indexed by the field's Datatype); -1 absent.
    int32_t class_next[kDatatypeCount];
    int32_t wild_next = -1;  // epsilon edge into a wildcard child
    bool self_loop = false;  // node entered via ANYDATA: consumes freely
    std::vector<uint32_t> terminal;  // pattern indices ending here
    Node() {
      for (auto& e : class_next) e = -1;
    }
  };

  int32_t child_class(uint32_t node, Datatype type);
  int32_t child_wild(uint32_t node);

  std::vector<Node> nodes_;
  size_t pattern_count_ = 0;
};

}  // namespace loglens
