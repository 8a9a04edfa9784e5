// Tiered storage engine benchmark: ingest rate, zone-map pruning payoff,
// and the heap high-water claim.
//
// Ingests ~1M documents (LOGLENS_SCALE scales the count) through a
// DocumentStore with a hot tier 1/16th the corpus, then times the same
// term+range query two ways: the indexed path (zone maps prune segments
// outside the time window, postings drive the survivors) and a
// sequential_scan store over the same segment files (parse every row —
// the seed engine's behaviour). Global operator new/delete are overridden
// to track live heap, which makes the tentpole's memory claim checkable:
// the high-water mark must track the hot segment, not the corpus.
//
// Stages (BENCH_storage.json, gated in CI by tools/bench_compare.py):
//   storage_ingest                docs/sec through insert+flush
//   storage_query_pruned          queries/sec, indexed + zone-pruned
//   storage_full_scan             queries/sec, sequential parse-everything
//   storage_prune_speedup_x       pruned / full-scan rate (floor: 5x)
//   storage_heap_highwater_ratio_x  estimated all-in-memory bytes / peak
//                                 live heap during ingest (floor: 2x)
//   storage_hot_heap_per_row_x    live heap per hot-tier document / mean
//                                 row (dump()) bytes, on an in-memory store
//                                 (ceiling: kMaxHotHeapPerRow; lower is
//                                 better)
//
// Exits 1 in-process when the speedup is under 5x, the heap ratio is under
// 2x, the hot-tier heap per row is over its ceiling, or the two query paths
// disagree on a single count.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <new>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "json/json.h"
#include "storage/document_store.h"

// ---------------------------------------------------------------------------
// Heap accounting. Every allocation carries a small header recording its
// size and the offset back to the malloc'd base, so unsized deletes and
// over-aligned news are both exact. mmap'd segment payloads are deliberately
// invisible here: the claim under test is that *heap* stays O(hot segment)
// while the corpus lives in mapped files.
namespace {

std::atomic<size_t> g_live{0};
std::atomic<size_t> g_peak{0};

void track(size_t n) {
  size_t live = g_live.fetch_add(n, std::memory_order_relaxed) + n;
  size_t peak = g_peak.load(std::memory_order_relaxed);
  while (live > peak &&
         !g_peak.compare_exchange_weak(peak, live, std::memory_order_relaxed)) {
  }
}

void* tracked_alloc(size_t n, size_t align) {
  if (align < alignof(std::max_align_t)) align = alignof(std::max_align_t);
  const size_t slack = align + 2 * sizeof(size_t);
  char* base = static_cast<char*>(std::malloc(n + slack));
  if (base == nullptr) return nullptr;
  uintptr_t raw = reinterpret_cast<uintptr_t>(base) + 2 * sizeof(size_t);
  uintptr_t user = (raw + align - 1) / align * align;
  reinterpret_cast<size_t*>(user)[-1] = n;
  reinterpret_cast<size_t*>(user)[-2] =
      user - reinterpret_cast<uintptr_t>(base);
  track(n);
  return reinterpret_cast<void*>(user);
}

void tracked_free(void* p) noexcept {
  if (p == nullptr) return;
  char* user = static_cast<char*>(p);
  const size_t n = reinterpret_cast<size_t*>(user)[-1];
  const size_t off = reinterpret_cast<size_t*>(user)[-2];
  g_live.fetch_sub(n, std::memory_order_relaxed);
  std::free(user - off);
}

}  // namespace

void* operator new(size_t n) {
  void* p = tracked_alloc(n, 0);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}
void* operator new[](size_t n) { return operator new(n); }
void* operator new(size_t n, std::align_val_t a) {
  void* p = tracked_alloc(n, static_cast<size_t>(a));
  if (p == nullptr) throw std::bad_alloc();
  return p;
}
void* operator new[](size_t n, std::align_val_t a) {
  return operator new(n, a);
}
void* operator new(size_t n, const std::nothrow_t&) noexcept {
  return tracked_alloc(n, 0);
}
void* operator new[](size_t n, const std::nothrow_t&) noexcept {
  return tracked_alloc(n, 0);
}
void operator delete(void* p) noexcept { tracked_free(p); }
void operator delete[](void* p) noexcept { tracked_free(p); }
void operator delete(void* p, size_t) noexcept { tracked_free(p); }
void operator delete[](void* p, size_t) noexcept { tracked_free(p); }
void operator delete(void* p, std::align_val_t) noexcept { tracked_free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { tracked_free(p); }
void operator delete(void* p, size_t, std::align_val_t) noexcept {
  tracked_free(p);
}
void operator delete[](void* p, size_t, std::align_val_t) noexcept {
  tracked_free(p);
}
void operator delete(void* p, const std::nothrow_t&) noexcept {
  tracked_free(p);
}
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  tracked_free(p);
}
// ---------------------------------------------------------------------------

namespace loglens {
namespace {

namespace fs = std::filesystem;

double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

// Parsed-log shape: categorical strings drawn from template pools (the
// paper's premise — log messages come from a bounded pattern set, so the
// per-segment term dictionaries stay small) and per-document uniqueness in
// integer columns, which need no dictionary.
Json make_doc(size_t i) {
  JsonObject o;
  o.emplace_back("source", Json("s" + std::to_string(i % 32)));
  o.emplace_back("ts", Json(static_cast<int64_t>(i)));
  o.emplace_back("level", Json(i % 7 == 0 ? "error" : "info"));
  o.emplace_back("msg", Json("request handled by worker w" +
                             std::to_string(i % 64)));
  o.emplace_back("span",
                 Json(static_cast<int64_t>((i * 2654435761u) % (1u << 30))));
  return Json(std::move(o));
}

// Ceiling on storage_hot_heap_per_row_x. A hot tier that keeps each
// document once, as its row, costs the row plus its std::string: 1.4x on
// this corpus (x86-64, GCC 12.2, Release). One that kept a Json tree and a
// term-index entry per document instead read 6.9x.
constexpr double kMaxHotHeapPerRow = 2.5;

struct StageResult {
  std::string stage;
  double msgs_per_sec = 0;
};

void write_bench_json(const std::vector<StageResult>& results) {
  JsonObject root;
  root.emplace_back("benchmark", Json("bench_storage"));
  JsonArray stages;
  for (const auto& r : results) {
    JsonObject obj;
    obj.emplace_back("stage", Json(r.stage));
    obj.emplace_back("msgs_per_sec", Json(r.msgs_per_sec));
    stages.push_back(Json(std::move(obj)));
  }
  root.emplace_back("stages", Json(std::move(stages)));
  std::ofstream out("BENCH_storage.json");
  out << Json(std::move(root)).dump() << "\n";
}

// Queries/sec for one store configuration; also returns the (stable) hit
// count so the two paths can be cross-checked.
double time_queries(const DocumentStore& store, const Query& q,
                    size_t min_iters, double min_secs, size_t* hits) {
  size_t iters = 0;
  const auto t0 = std::chrono::steady_clock::now();
  double secs = 0;
  do {
    *hits = store.count(q);
    ++iters;
    secs = seconds_since(t0);
  } while (iters < min_iters || secs < min_secs);
  return static_cast<double>(iters) / secs;
}

}  // namespace
}  // namespace loglens

int main() {
  using loglens::DocumentStore;
  using loglens::DocumentStoreOptions;
  using loglens::Json;
  using loglens::Query;
  using loglens::QueryClause;
  using loglens::QueryStats;
  using loglens::StageResult;
  namespace fs = std::filesystem;

  const double scale = loglens::bench::scale_or(1.0);
  const size_t n_docs =
      std::max<size_t>(20'000, static_cast<size_t>(1'000'000 * scale));
  const size_t hot_max = std::max<size_t>(1'024, n_docs / 16);

  loglens::bench::print_header("tiered storage engine benchmarks");
  std::printf("corpus: %zu docs, hot tier %zu docs\n", n_docs, hot_max);

  // What would the seed engine (everything in one vector<Json>) hold?
  // Sample 10k docs' live-heap delta and extrapolate; done before ingest so
  // the sample never pollutes the tracked high-water mark.
  const size_t sample_n = 10'000;
  size_t in_memory_estimate;
  {
    const size_t before = g_live.load();
    std::vector<Json> sample;
    sample.reserve(sample_n);
    for (size_t i = 0; i < sample_n; ++i) sample.push_back(loglens::make_doc(i));
    const size_t per_doc = (g_live.load() - before) / sample_n;
    in_memory_estimate = per_doc * n_docs;
    std::printf("in-memory estimate: %zu bytes/doc -> %.1f MB for the corpus\n",
                per_doc, static_cast<double>(in_memory_estimate) / 1e6);
  }

  // The hot tier's memory shape: an in-memory store (it never seals) of the
  // corpus's first hot_max docs. The heap it holds per document is divided
  // by the mean size of a document's row, the bytes a sealed segment keeps.
  double hot_heap_per_row;
  {
    size_t row_bytes = 0;
    for (size_t i = 0; i < hot_max; ++i) {
      row_bytes += loglens::make_doc(i).dump().size();
    }
    const size_t before = g_live.load();
    DocumentStoreOptions mem;
    mem.name = "bench_hot";
    DocumentStore hot(mem);
    for (size_t i = 0; i < hot_max; ++i) hot.insert(loglens::make_doc(i));
    const double heap_per_doc =
        static_cast<double>(g_live.load() - before) /
        static_cast<double>(hot_max);
    const double mean_row =
        static_cast<double>(row_bytes) / static_cast<double>(hot_max);
    hot_heap_per_row = heap_per_doc / mean_row;
    std::printf("storage_hot_heap_per_row_x: %.2fx (%.0f heap bytes per hot "
                "doc, %.1f-byte mean row, %zu docs)\n",
                hot_heap_per_row, heap_per_doc, mean_row, hot_max);
  }

  const std::string dir =
      (fs::temp_directory_path() / "loglens_bench_storage").string();
  fs::remove_all(dir);

  DocumentStoreOptions opts;
  opts.dir = dir;
  opts.hot_max_docs = hot_max;
  opts.auto_compact = true;
  opts.compact_min_segments = 4;
  opts.compact_max_docs = 2 * hot_max;  // merge spike stays O(hot)
  opts.name = "bench";

  std::vector<StageResult> results;
  size_t peak_heap;
  size_t segments;
  {
    DocumentStore store(opts);
    g_peak.store(g_live.load());  // high-water measured from here
    const auto t0 = std::chrono::steady_clock::now();
    for (size_t i = 0; i < n_docs; ++i) store.insert(loglens::make_doc(i));
    if (!store.flush().ok()) {
      std::printf("FAIL: final flush errored\n");
      return 1;
    }
    const double secs = loglens::seconds_since(t0);
    peak_heap = g_peak.load();
    segments = store.segment_count();
    StageResult ingest;
    ingest.stage = "storage_ingest";
    ingest.msgs_per_sec = static_cast<double>(n_docs) / secs;
    std::printf("storage_ingest: %zu docs in %.2fs = %.0f docs/sec "
                "(%zu segments, peak heap %.1f MB)\n",
                n_docs, secs, ingest.msgs_per_sec, segments,
                static_cast<double>(peak_heap) / 1e6);
    results.push_back(ingest);
  }

  // The probe query: one source over the most recent 1/64th of the time
  // range. Zone maps prune every segment outside the window; postings
  // drive the survivors.
  Query q;
  q.clauses.push_back(QueryClause::Term("source", "s3"));
  q.clauses.push_back(QueryClause::Range(
      "ts", static_cast<int64_t>(n_docs - n_docs / 64),
      static_cast<int64_t>(n_docs)));

  DocumentStore pruned_store(opts);
  DocumentStoreOptions seq = opts;
  seq.sequential_scan = true;
  DocumentStore scan_store(seq);

  QueryStats stats;
  pruned_store.count(q, &stats);
  std::printf("pruned plan: %zu/%zu segments pruned, %zu docs scanned\n",
              stats.segments_pruned, stats.segments_considered,
              stats.docs_scanned);

  size_t pruned_hits = 0, scan_hits = 0;
  StageResult pruned;
  pruned.stage = "storage_query_pruned";
  pruned.msgs_per_sec =
      loglens::time_queries(pruned_store, q, 20, 0.5, &pruned_hits);
  std::printf("storage_query_pruned: %.1f queries/sec (%zu hits)\n",
              pruned.msgs_per_sec, pruned_hits);
  results.push_back(pruned);

  StageResult full;
  full.stage = "storage_full_scan";
  full.msgs_per_sec = loglens::time_queries(scan_store, q, 3, 1.0, &scan_hits);
  std::printf("storage_full_scan: %.1f queries/sec (%zu hits)\n",
              full.msgs_per_sec, scan_hits);
  results.push_back(full);

  StageResult speedup;
  speedup.stage = "storage_prune_speedup_x";
  speedup.msgs_per_sec = pruned.msgs_per_sec / full.msgs_per_sec;
  std::printf("storage_prune_speedup_x: %.1fx\n", speedup.msgs_per_sec);
  results.push_back(speedup);

  StageResult heap;
  heap.stage = "storage_heap_highwater_ratio_x";
  heap.msgs_per_sec = static_cast<double>(in_memory_estimate) /
                      static_cast<double>(peak_heap == 0 ? 1 : peak_heap);
  std::printf("storage_heap_highwater_ratio_x: %.1fx (peak %.1f MB vs "
              "%.1f MB all-in-memory)\n",
              heap.msgs_per_sec, static_cast<double>(peak_heap) / 1e6,
              static_cast<double>(in_memory_estimate) / 1e6);
  results.push_back(heap);

  StageResult hot_shape;
  hot_shape.stage = "storage_hot_heap_per_row_x";
  hot_shape.msgs_per_sec = hot_heap_per_row;
  results.push_back(hot_shape);

  loglens::write_bench_json(results);
  fs::remove_all(dir);

  bool ok = true;
  if (pruned_hits != scan_hits) {
    std::printf("FAIL: pruned and sequential paths disagree "
                "(%zu vs %zu hits)\n",
                pruned_hits, scan_hits);
    ok = false;
  }
  if (speedup.msgs_per_sec < 5.0) {
    std::printf("FAIL: prune speedup %.1fx is under the 5x floor\n",
                speedup.msgs_per_sec);
    ok = false;
  }
  if (heap.msgs_per_sec < 2.0) {
    std::printf("FAIL: heap high-water ratio %.1fx is under the 2x floor "
                "(heap is not bounded by the hot segment)\n",
                heap.msgs_per_sec);
    ok = false;
  }
  if (hot_heap_per_row > loglens::kMaxHotHeapPerRow) {
    std::printf("FAIL: hot tier holds %.2fx its rows' bytes, over the %.1fx "
                "ceiling (a document kept more than once)\n",
                hot_heap_per_row, loglens::kMaxHotHeapPerRow);
    ok = false;
  }
  return ok ? 0 : 1;
}
