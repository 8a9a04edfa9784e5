#include "storage/segment.h"

#include <algorithm>
#include <cstring>
#include <fstream>

#if defined(__unix__) || defined(__APPLE__)
#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>
#define LOGLENS_SEGMENT_MMAP 1
#else
#define LOGLENS_SEGMENT_MMAP 0
#endif

#include "common/hash.h"

namespace loglens {

namespace {

// File layout constants. The magic doubles as a format version: bump the
// trailing digit when the payload layout changes and old files are rejected
// (and rebuilt from JSONL) instead of misread.
constexpr char kMagic[8] = {'L', 'L', 'S', 'E', 'G', '1', '\n', '\0'};
constexpr uint64_t kHeaderSize = 8 + 8 + 8;  // magic + payload size + checksum

// Structural sanity bounds, enforced on open in addition to the checksum.
constexpr uint64_t kMaxDocs = 1ull << 28;
constexpr uint64_t kMaxFields = 1ull << 20;
constexpr uint64_t kMaxTerms = 1ull << 26;
constexpr uint64_t kMaxStrLen = 1ull << 24;

void put_u32(std::string& out, uint32_t v) {
  out.append(reinterpret_cast<const char*>(&v), 4);
}
void put_u64(std::string& out, uint64_t v) {
  out.append(reinterpret_cast<const char*>(&v), 8);
}
void put_i64(std::string& out, int64_t v) {
  out.append(reinterpret_cast<const char*>(&v), 8);
}
void put_str(std::string& out, std::string_view s) {
  put_u32(out, static_cast<uint32_t>(s.size()));
  out.append(s);
}

uint32_t load_u32(const char* p) {
  uint32_t v;
  std::memcpy(&v, p, 4);
  return v;
}
uint64_t load_u64(const char* p) {
  uint64_t v;
  std::memcpy(&v, p, 8);
  return v;
}
int64_t load_i64(const char* p) {
  int64_t v;
  std::memcpy(&v, p, 8);
  return v;
}

// Bounds-checked forward reader over the payload. Every read that would
// run past the end flips `ok` and returns zeros; the parser checks `ok`
// after each section so a structurally-absurd (if checksum-colliding) file
// can never index out of the mapping.
struct Cursor {
  const char* p;
  const char* end;
  bool ok = true;

  bool has(uint64_t n) {
    if (!ok || static_cast<uint64_t>(end - p) < n) {
      ok = false;
      return false;
    }
    return true;
  }
  uint32_t u32() {
    if (!has(4)) return 0;
    uint32_t v = load_u32(p);
    p += 4;
    return v;
  }
  uint64_t u64() {
    if (!has(8)) return 0;
    uint64_t v = load_u64(p);
    p += 8;
    return v;
  }
  int64_t i64() {
    if (!has(8)) return 0;
    int64_t v = load_i64(p);
    p += 8;
    return v;
  }
  std::string_view str(uint64_t max_len) {
    uint32_t n = u32();
    if (n > max_len || !has(n)) {
      ok = false;
      return {};
    }
    std::string_view s(p, n);
    p += n;
    return s;
  }
  const char* bytes(uint64_t n) {
    if (!has(n)) return nullptr;
    const char* s = p;
    p += n;
    return s;
  }
};

// First-occurrence walk over a document's object fields: calls fn(key,
// value) once per distinct key, for the value Json::find would return.
template <typename Fn>
void for_each_first_field(const Json& doc, Fn&& fn) {
  if (!doc.is_object()) return;
  const JsonObject& obj = doc.as_object();
  for (size_t i = 0; i < obj.size(); ++i) {
    bool duplicate = false;
    for (size_t j = 0; j < i; ++j) {
      if (obj[j].first == obj[i].first) {
        duplicate = true;
        break;
      }
    }
    if (!duplicate) fn(obj[i].first, obj[i].second);
  }
}

}  // namespace

std::string encode_segment(uint64_t base_id,
                           const std::vector<std::string_view>& rows) {
  const uint32_t n = static_cast<uint32_t>(rows.size());

  // Row section: the rows + offsets.
  std::string blob;
  std::vector<uint64_t> offsets;
  offsets.reserve(rows.size() + 1);
  for (std::string_view row : rows) {
    offsets.push_back(blob.size());
    blob.append(row);
  }
  offsets.push_back(blob.size());

  // Column section, built by one parse and one first-occurrence pass per
  // row. Field and term ids are assigned in first-appearance order
  // (deterministic given the rows).
  struct StringCol {
    std::string name;
    std::vector<std::string> terms;
    std::unordered_map<std::string, uint32_t> term_ids;
    std::vector<uint32_t> codes;               // per doc, 0 = absent
    std::vector<std::vector<uint32_t>> posts;  // per term
  };
  struct IntCol {
    std::string name;
    int64_t zmin = INT64_MAX;
    int64_t zmax = INT64_MIN;
    std::vector<uint8_t> presence;
    std::vector<int64_t> values;
  };
  std::vector<StringCol> scols;
  std::vector<IntCol> icols;
  std::unordered_map<std::string, size_t> sidx;
  std::unordered_map<std::string, size_t> iidx;

  for (uint32_t d = 0; d < n; ++d) {
    auto doc = Json::parse(rows[d]);
    if (!doc.ok()) continue;
    for_each_first_field(doc.value(), [&](const std::string& key,
                                          const Json& v) {
      if (v.is_string()) {
        auto [it, fresh] = sidx.try_emplace(key, scols.size());
        if (fresh) {
          scols.emplace_back();
          scols.back().name = key;
          scols.back().codes.assign(n, 0);
        }
        StringCol& col = scols[it->second];
        auto [tit, term_fresh] =
            col.term_ids.try_emplace(v.as_string(),
                                     static_cast<uint32_t>(col.terms.size()));
        if (term_fresh) {
          col.terms.push_back(v.as_string());
          col.posts.emplace_back();
        }
        col.codes[d] = tit->second + 1;
        col.posts[tit->second].push_back(d);
      } else if (v.is_number()) {
        auto [it, fresh] = iidx.try_emplace(key, icols.size());
        if (fresh) {
          icols.emplace_back();
          icols.back().name = key;
          icols.back().presence.assign(n, 0);
          icols.back().values.assign(n, 0);
        }
        IntCol& col = icols[it->second];
        const int64_t x = v.as_int();
        col.presence[d] = 1;
        col.values[d] = x;
        col.zmin = std::min(col.zmin, x);
        col.zmax = std::max(col.zmax, x);
      }
    });
  }

  std::string payload;
  payload.reserve(blob.size() + 64 * (scols.size() + icols.size()) + 64);
  put_u64(payload, base_id);
  put_u32(payload, n);
  put_u32(payload, 0);  // reserved
  put_u64(payload, blob.size());
  for (uint64_t off : offsets) put_u64(payload, off);
  payload.append(blob);

  put_u32(payload, static_cast<uint32_t>(scols.size()));
  for (const StringCol& col : scols) {
    put_str(payload, col.name);
    put_u32(payload, static_cast<uint32_t>(col.terms.size()));
    for (const auto& t : col.terms) put_str(payload, t);
    for (uint32_t c : col.codes) put_u32(payload, c);
    for (const auto& post : col.posts) {
      put_u32(payload, static_cast<uint32_t>(post.size()));
      for (uint32_t id : post) put_u32(payload, id);
    }
  }
  put_u32(payload, static_cast<uint32_t>(icols.size()));
  for (const IntCol& col : icols) {
    put_str(payload, col.name);
    put_i64(payload, col.zmin);
    put_i64(payload, col.zmax);
    payload.append(reinterpret_cast<const char*>(col.presence.data()),
                   col.presence.size());
    for (int64_t v : col.values) put_i64(payload, v);
  }

  std::string file;
  file.reserve(kHeaderSize + payload.size());
  file.append(kMagic, sizeof(kMagic));
  put_u64(file, payload.size());
  put_u64(file, fnv1a(payload));
  file.append(payload);
  return file;
}

StatusOr<std::shared_ptr<const Segment>> Segment::open(std::string path) {
  auto seg = std::shared_ptr<Segment>(new Segment());
  seg->path_ = std::move(path);

#if LOGLENS_SEGMENT_MMAP
  int fd = ::open(seg->path_.c_str(), O_RDONLY);
  if (fd < 0) {
    return StatusOr<std::shared_ptr<const Segment>>::Error(
        "cannot open segment: " + seg->path_);
  }
  struct stat st;
  if (fstat(fd, &st) != 0) {
    ::close(fd);
    return StatusOr<std::shared_ptr<const Segment>>::Error(
        "cannot stat segment: " + seg->path_);
  }
  seg->data_size_ = static_cast<uint64_t>(st.st_size);
  if (seg->data_size_ > 0) {
    void* map = ::mmap(nullptr, seg->data_size_, PROT_READ, MAP_PRIVATE, fd, 0);
    ::close(fd);
    if (map == MAP_FAILED) {
      return StatusOr<std::shared_ptr<const Segment>>::Error(
          "cannot mmap segment: " + seg->path_);
    }
    seg->data_ = static_cast<const char*>(map);
    seg->mapped_ = true;
  } else {
    ::close(fd);
  }
#else
  std::ifstream in(seg->path_, std::ios::binary);
  if (!in) {
    return StatusOr<std::shared_ptr<const Segment>>::Error(
        "cannot open segment: " + seg->path_);
  }
  seg->heap_copy_.assign(std::istreambuf_iterator<char>(in),
                         std::istreambuf_iterator<char>());
  seg->data_ = seg->heap_copy_.data();
  seg->data_size_ = seg->heap_copy_.size();
#endif

  // Header validation: magic, recorded payload size vs actual file length,
  // payload checksum. A torn write or corrupt byte anywhere fails here.
  if (seg->data_size_ < kHeaderSize ||
      std::memcmp(seg->data_, kMagic, sizeof(kMagic)) != 0) {
    return StatusOr<std::shared_ptr<const Segment>>::Error(
        "not a segment file (bad magic): " + seg->path_);
  }
  const uint64_t payload_size = load_u64(seg->data_ + 8);
  const uint64_t checksum = load_u64(seg->data_ + 16);
  if (seg->data_size_ != kHeaderSize + payload_size) {
    return StatusOr<std::shared_ptr<const Segment>>::Error(
        "segment truncated or oversized: " + seg->path_);
  }
  const char* payload = seg->data_ + kHeaderSize;
  if (fnv1a(std::string_view(payload, payload_size)) != checksum) {
    return StatusOr<std::shared_ptr<const Segment>>::Error(
        "segment checksum mismatch: " + seg->path_);
  }
  Status s = seg->parse_payload(payload, payload_size);
  if (!s.ok()) return s;
  return std::shared_ptr<const Segment>(std::move(seg));
}

Status Segment::parse_payload(const char* payload, uint64_t size) {
  Cursor c{payload, payload + size};
  base_id_ = c.u64();
  doc_count_ = c.u32();
  (void)c.u32();  // reserved
  blob_size_ = c.u64();
  if (!c.ok || doc_count_ > kMaxDocs) {
    return Status::Error("segment header malformed: " + path_);
  }
  doc_offsets_ = c.bytes(8ull * (doc_count_ + 1));
  blob_ = c.bytes(blob_size_);
  if (!c.ok || load_u64(doc_offsets_ + 8ull * doc_count_) != blob_size_) {
    return Status::Error("segment row section malformed: " + path_);
  }

  const uint32_t n_strings = c.u32();
  if (!c.ok || n_strings > kMaxFields) {
    return Status::Error("segment column section malformed: " + path_);
  }
  string_fields_.reserve(n_strings);
  for (uint32_t f = 0; f < n_strings; ++f) {
    StringField field;
    field.name = c.str(kMaxStrLen);
    const uint32_t n_terms = c.u32();
    if (!c.ok || n_terms > kMaxTerms) {
      return Status::Error("segment column section malformed: " + path_);
    }
    field.terms.reserve(n_terms);
    for (uint32_t t = 0; t < n_terms; ++t) {
      field.terms.push_back(c.str(kMaxStrLen));
    }
    field.codes = c.bytes(4ull * doc_count_);
    field.postings.reserve(n_terms);
    for (uint32_t t = 0; t < n_terms; ++t) {
      const uint32_t len = c.u32();
      if (len > doc_count_) {
        return Status::Error("segment posting list malformed: " + path_);
      }
      field.postings.emplace_back(c.bytes(4ull * len), len);
    }
    if (!c.ok) {
      return Status::Error("segment column section malformed: " + path_);
    }
    for (uint32_t t = 0; t < n_terms; ++t) field.term_ids[field.terms[t]] = t;
    string_fields_.push_back(std::move(field));
  }

  const uint32_t n_ints = c.u32();
  if (!c.ok || n_ints > kMaxFields) {
    return Status::Error("segment column section malformed: " + path_);
  }
  int_fields_.reserve(n_ints);
  for (uint32_t f = 0; f < n_ints; ++f) {
    IntField field;
    field.name = c.str(kMaxStrLen);
    field.zone_min = c.i64();
    field.zone_max = c.i64();
    field.presence = c.bytes(doc_count_);
    field.values = c.bytes(8ull * doc_count_);
    if (!c.ok) {
      return Status::Error("segment column section malformed: " + path_);
    }
    int_fields_.push_back(std::move(field));
  }
  if (c.p != c.end) {
    return Status::Error("segment has trailing bytes: " + path_);
  }

  for (size_t i = 0; i < string_fields_.size(); ++i) {
    string_by_name_.emplace(string_fields_[i].name, i);
  }
  for (size_t i = 0; i < int_fields_.size(); ++i) {
    int_by_name_.emplace(int_fields_[i].name, i);
  }
  return Status::Ok();
}

Segment::~Segment() {
#if LOGLENS_SEGMENT_MMAP
  if (mapped_ && data_ != nullptr) {
    ::munmap(const_cast<char*>(data_), data_size_);
  }
#endif
}

std::string_view Segment::doc_bytes(uint32_t local_id) const {
  const uint64_t lo = load_u64(doc_offsets_ + 8ull * local_id);
  const uint64_t hi = load_u64(doc_offsets_ + 8ull * (local_id + 1));
  return std::string_view(blob_ + lo, hi - lo);
}

const Segment::StringField* Segment::string_field(
    std::string_view name) const {
  auto it = string_by_name_.find(name);
  return it == string_by_name_.end() ? nullptr : &string_fields_[it->second];
}

const Segment::IntField* Segment::int_field(std::string_view name) const {
  auto it = int_by_name_.find(name);
  return it == int_by_name_.end() ? nullptr : &int_fields_[it->second];
}

uint32_t Segment::code_at(const StringField& f, uint32_t local_id) {
  return load_u32(f.codes + 4ull * local_id);
}

uint32_t Segment::posting_at(const StringField& f, uint32_t term_id,
                             uint32_t index) {
  return load_u32(f.postings[term_id].first + 4ull * index);
}

bool Segment::int_present(const IntField& f, uint32_t local_id) {
  return f.presence[local_id] != 0;
}

int64_t Segment::int_value(const IntField& f, uint32_t local_id) {
  return load_i64(f.values + 8ull * local_id);
}

}  // namespace loglens
