// Immutable on-disk columnar segments for the tiered DocumentStore.
//
// A segment is the sealed form of the store's in-memory hot segment: a
// contiguous id range [base_id, base_id + doc_count) of JSON documents,
// written once and then only ever read through an mmap. The hot segment
// already holds each document as its row, so sealing copies the rows and
// adds columns built from one parse per row. The layout is column-first so
// queries touch the few bytes they need:
//
//   header   magic, payload size, fnv1a-64 checksum of the payload
//   rows     per-doc serialized JSON (the byte-exact dump() of each doc),
//            addressed by an offset table; query materialization parses
//            them back
//   strings  per string field: a dictionary of distinct terms, a per-doc
//            code column (0 = the doc's first value for this key is not a
//            string), and a posting list of local ids per term
//   ints     per integer field: a zone map (min/max over the segment) plus
//            a per-doc presence byte and value column
//
// Columns index the *first* occurrence of each key in a document — the same
// value Json::find returns — so evaluating a term or range clause against
// the columns is exactly equivalent to evaluating it against the document.
//
// Torn-write safety: open() accepts a file only when the magic matches, the
// file length equals header + recorded payload size, and the payload
// checksum verifies. A crash (or injected torn write) anywhere mid-file
// fails at least one of those checks, so a damaged segment is rejected at
// open time without affecting its neighbours. See DESIGN.md §6.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "common/status.h"
#include "json/json.h"

namespace loglens {

// Serializes one sealed segment (header + payload) into a byte buffer from
// its rows, each the dump() of one document. A row that does not parse as
// JSON is stored but gets no column values, so no clause can match it. The
// caller owns durability (tmp + rename) and fault injection at the write.
std::string encode_segment(uint64_t base_id,
                           const std::vector<std::string_view>& rows);

class Segment {
 public:
  struct StringField {
    std::string_view name;
    std::vector<std::string_view> terms;  // term_id -> text
    std::unordered_map<std::string_view, uint32_t> term_ids;
    const char* codes = nullptr;  // u32[doc_count]; 0 = absent, else id + 1
    // term_id -> (first id byte, id count); ids are u32 locals, ascending.
    std::vector<std::pair<const char*, uint32_t>> postings;
  };

  struct IntField {
    std::string_view name;
    int64_t zone_min = 0;  // zone map over present values
    int64_t zone_max = 0;
    const char* presence = nullptr;  // u8[doc_count]; 1 = doc has a number
    const char* values = nullptr;    // i64[doc_count]
  };

  // Validates and maps the file. Any truncation or corruption — from the
  // magic through the last payload byte — returns an error and leaves no
  // mapping behind.
  static StatusOr<std::shared_ptr<const Segment>> open(std::string path);

  ~Segment();
  Segment(const Segment&) = delete;
  Segment& operator=(const Segment&) = delete;

  uint64_t base_id() const { return base_id_; }
  uint32_t doc_count() const { return doc_count_; }
  uint64_t end_id() const { return base_id_ + doc_count_; }
  const std::string& path() const { return path_; }

  // The serialized JSON of one document, byte-identical to the dump() of
  // the Json that was inserted.
  std::string_view doc_bytes(uint32_t local_id) const;

  // nullptr when no document in this segment has a string (respectively
  // numeric) first value for the field.
  const StringField* string_field(std::string_view name) const;
  const IntField* int_field(std::string_view name) const;

  // Column accessors (bounds are the caller's responsibility).
  static uint32_t code_at(const StringField& f, uint32_t local_id);
  static uint32_t posting_at(const StringField& f, uint32_t term_id,
                             uint32_t index);
  static bool int_present(const IntField& f, uint32_t local_id);
  static int64_t int_value(const IntField& f, uint32_t local_id);

 private:
  Segment() = default;
  Status parse_payload(const char* payload, uint64_t size);

  std::string path_;
  // The mapping (mmap when available, a heap copy otherwise).
  const char* data_ = nullptr;
  uint64_t data_size_ = 0;
  bool mapped_ = false;
  std::string heap_copy_;

  uint64_t base_id_ = 0;
  uint32_t doc_count_ = 0;
  const char* doc_offsets_ = nullptr;  // u64[doc_count + 1]
  const char* blob_ = nullptr;
  uint64_t blob_size_ = 0;
  std::vector<StringField> string_fields_;
  std::vector<IntField> int_fields_;
  std::unordered_map<std::string_view, size_t> string_by_name_;
  std::unordered_map<std::string_view, size_t> int_by_name_;
};

}  // namespace loglens
