#pragma once
// Paged KV-cache store: pooled fixed-size pages + cross-request prefix
// sharing. It is the only KV storage: every decode stream — a serving
// replica's, the sequential Reference engine's, the serving calibration's
// — appends its K/V rows here and attention reads them in place
// (model/attention.cpp).
//
// Pages come from a pooled free-list allocator (the rt_pool idiom: O(1)
// alloc/free, zero steady-state heap traffic), so admission is priced in
// pages a stream can actually need instead of one worst-case region per
// slot, and a radix-tree prefix index on top lets requests with a common
// prompt prefix share immutable pages. With the prefix cache off every
// stream's pages are private (the reference engines run that way):
//
//   * A page holds `page_tokens` tokens of K and V for ONE attention layer
//     ("lane"), fp32 or fp16 per `kv_fp16` — one uniform page size per
//     store, so the free list is a plain stack. Page layout, with
//     pg = page_tokens and row = row_elems:
//
//       [ K half: row x pg, key-major ][ V half: pg x row, row-major ]
//
//     K element e of token r sits at k[e * pg + r], so one key dimension
//     of every token in the page is contiguous and the attention scores
//     are vector multiply-adds across tokens. V token r's row sits at
//     v[r * row], contiguous for probs x V.
//   * Each (lane, slot) owns a page table: the ordered page ids covering
//     that stream's cached positions, pre-sized when the slot first opens
//     so appends never reallocate it. Attention appends one token per
//     decoded position and reads [0, len) in place, page by page, through
//     read_page() — fp32 pages are never copied, fp16 pages dequantize one
//     page at a time into caller scratch. Incremental decode stays bitwise
//     identical to a full-prefix recompute.
//   * After a prefill, the prompt's pages are published into a radix tree
//     keyed by token ids (one node = one page). A later request walks the
//     tree at admission, adopts every matching page (full-page matches and
//     a partial match of the last node), and skips prefill for the shared
//     tokens. Shared pages are immutable: a write into a page referenced
//     by the tree or by another slot copies it first (copy-on-write on
//     divergence).
//   * Admission is priced in pages, not worst-case slots: open_slot()
//     reserves the worst-case page count for the request's final length
//     minus its fully shared prefix, so a stream admitted once can never
//     exhaust the pool mid-decode. When the pool runs dry the caller
//     evicts unreferenced cached pages and retries, or rejects/requeues
//     under its QueuePolicy.
//
// Threading contract (matches the serving runtime's phase structure): the
// pipeline thread calls open_slot/publish/drop_slot/evict between passes;
// worker threads call append/read_page for their own lanes during a pass.
// Page tables and page payloads are single-writer by construction (a lane
// belongs to one worker, tree mutations happen only between passes); the
// shared pool state — free list, refcounts, reservations, counters — is
// guarded by one leaf-rank mutex (sync::Rank::KvPool) so lanes on
// different workers can allocate concurrently. The mutex is never held
// across kernels or parallel_for.

#include <cstdint>
#include <memory>
#include <vector>

#include "core/sync.hpp"

namespace hanayo::runtime {

/// Construction-time shape of a KvStore. All fields are required;
/// `pool_pages` must already be resolved (runtime::kv_store_config derives
/// a default from an InferConfig: max_batch worst-case streams).
struct KvStoreConfig {
  int page_tokens = 16;    ///< token rows per page (per lane)
  int64_t pool_pages = 0;  ///< total pages in the pool, shared by all lanes
  int64_t row_elems = 0;   ///< floats per K (and per V) row: hidden
  int max_slots = 0;       ///< decode streams (page-table sets per lane)
  bool fp16 = false;       ///< half-precision page payloads (kv_fp16)
  bool prefix_cache = true;  ///< publish/lookup the radix prefix index
};

/// One cached page as attention reads it (layout in the file comment).
struct KvPage {
  const float* k = nullptr;  ///< key-major K half: [row_elems][page_tokens]
  const float* v = nullptr;  ///< row-major V half: [page_tokens][row_elems]
  int64_t rows = 0;          ///< tokens of this page inside the read length
};

/// Pooled paged KV storage with prefix sharing. One instance per pipeline
/// replica, shared by every attention layer of every stage worker.
class KvStore {
 public:
  /// Which halves read_page() must materialise (fp16 pages only).
  enum Halves : uint8_t { kKeys = 1, kValues = 2, kBoth = 3 };

  explicit KvStore(const KvStoreConfig& cfg);
  ~KvStore();

  KvStore(const KvStore&) = delete;
  KvStore& operator=(const KvStore&) = delete;

  /// Registers one attention layer; returns its lane id. Called once per
  /// layer at wiring time (before any slot is opened), in deterministic
  /// construction order.
  int register_lane();

  int lanes() const { return lanes_; }
  int page_tokens() const { return cfg_.page_tokens; }
  int64_t pool_pages() const { return cfg_.pool_pages; }
  int64_t page_bytes() const;

  /// Worst-case pages (across all lanes) a stream of `final_len` cached
  /// tokens needs when `shared_tokens` of its prompt arrive from the
  /// prefix cache. This is what open_slot() reserves.
  int64_t pages_needed(int64_t final_len, int64_t shared_tokens) const;

  /// Admits a stream into `slot`: looks up the longest cached prefix of
  /// `ids` (capped at ids.size() - 1 — a prefill must compute at least one
  /// token to produce logits), installs the shared pages into every lane's
  /// page table, and reserves worst-case pages for `final_len` total
  /// cached tokens. Returns false — with no state change — when the pool
  /// cannot cover the reservation; `*shared_out` gets the shared token
  /// count on success.
  bool open_slot(int slot, const std::vector<int64_t>& ids, int64_t final_len,
                 int64_t* shared_out);

  /// Publishes `slot`'s prompt pages into the prefix tree (no-op when the
  /// prefix cache is off). Call once, right after the stream's prefill
  /// pass. Existing nodes win on conflict, except that a cached partial
  /// page extended by this prompt is upgraded in place.
  void publish(int slot, const std::vector<int64_t>& ids);

  /// Releases every page reference and the remaining reservation of
  /// `slot`. Pages also referenced by the tree (or by other slots) stay
  /// resident; exclusively owned pages return to the free list.
  void drop_slot(int slot);

  /// Appends one token row (fp32 `krow` / `vrow`, row_elems each) to
  /// `lane`'s table for `slot`, converting to fp16 when configured and
  /// copying-on-write when the target page is shared. Worker-thread API.
  void append(int lane, int slot, const float* krow, const float* vrow);

  /// Page `pi` of `lane`'s cache for `slot`, clipped to the first `len`
  /// cached tokens: rows = min(page_tokens, len - pi * page_tokens). fp32
  /// pages are returned in place and `scratch` is unused; fp16 pages
  /// dequantize the `halves` asked for into `scratch` (page_elems()
  /// floats, laid out like a page). Throws std::logic_error past the
  /// cached length. Worker-thread API.
  KvPage read_page(int lane, int slot, int64_t pi, int64_t len,
                   float* scratch, Halves halves = kBoth) const;

  /// Elements (floats or halves) per page, both halves: 2 * pg * row.
  /// Also the read_page() scratch size, in floats.
  int64_t page_elems() const;
  bool fp16() const { return cfg_.fp16; }

  /// Cached tokens appended (or adopted from the prefix cache) for
  /// (lane, slot). Decode-order validation hook for attention.
  int64_t lane_len(int lane, int slot) const;

  /// Drops every prefix-tree entry whose pages no open slot references;
  /// returns the number of pages freed. This is the preemption valve the
  /// runtime pulls before rejecting an admission.
  int64_t evict_unreferenced();

  /// Drops the whole prefix tree (slot-held pages stay resident).
  void clear_prefix_cache();

  /// Pages currently allocated (slot- or tree-referenced).
  int64_t pages_in_use() const;
  /// High-water mark of pages_in_use() over the store's lifetime.
  int64_t peak_pages() const;
  /// Pages referenced by at least one open slot — the paged analogue of
  /// slot_bytes()'s leak probe: zero once every stream has dropped.
  int64_t slot_ref_pages() const;
  int64_t free_pages() const;
  /// Bytes behind pages_in_use() / slot_ref_pages().
  int64_t bytes_in_use() const;
  int64_t slot_ref_bytes() const;

  /// Admissions that adopted a non-empty cached prefix / prompt tokens
  /// those admissions skipped at prefill (== prefill tokens saved).
  int64_t prefix_hits() const;
  int64_t prefix_hit_tokens() const;

 private:
  struct Page {
    int32_t refs = 0;       ///< open-slot references
    int32_t tree_refs = 0;  ///< 0/1: referenced by a prefix-tree node
  };
  struct LaneSlot {
    std::vector<int32_t> table;  ///< page ids covering rows [0, len)
    int64_t len = 0;
  };
  struct SlotInfo {
    bool open = false;
    int64_t reserved = 0;  ///< pages still promised to this slot
    int64_t shared = 0;    ///< prefix tokens adopted at open
  };
  struct Node;  // radix-tree node: tokens chunk + one page per lane

  LaneSlot& lane_slot(int lane, int slot);
  const LaneSlot& lane_slot(int lane, int slot) const;
  // Pool primitives; all require mu_ held.
  int32_t alloc_page_locked(int slot);
  void ref_page_locked(int32_t p);
  void unref_page_locked(int32_t p);
  void tree_unref_locked(int32_t p);
  void free_if_unreferenced_locked(int32_t p);
  int64_t prune_nodes_locked(std::vector<std::unique_ptr<Node>>& nodes);
  void drop_nodes_locked(std::vector<std::unique_ptr<Node>>& nodes);
  bool page_shared(int32_t p) const;
  // Payload access (no lock: single-writer pages).
  /// Offset of `page`'s first element in data32_ / data16_.
  int64_t page_offset(int32_t page) const { return page * page_elems(); }
  /// Bound on one (lane, slot) table's length: admission keeps a slot's
  /// reserved plus adopted pages within the pool, and every lane holds
  /// the same number of them, so a lane's share is at most
  /// pool_pages / lanes (+1 for rounding).
  int64_t max_table_pages() const;

  KvStoreConfig cfg_;
  int lanes_ = 0;
  std::vector<float> data32_;     ///< fp32 payload: pool_pages * page_elems
  std::vector<uint16_t> data16_;  ///< fp16 payload (kv_fp16)

  mutable sync::Mutex<sync::Rank::KvPool> mu_;
  std::vector<Page> pages_;
  std::vector<int32_t> free_;         ///< free-list stack (pre-reserved)
  std::vector<LaneSlot> lane_slots_;  ///< [lane * max_slots + slot]
  std::vector<SlotInfo> slots_;
  std::vector<std::unique_ptr<Node>> roots_;
  int64_t reserved_total_ = 0;
  int64_t in_use_ = 0;
  int64_t peak_ = 0;
  int64_t slot_ref_pages_ = 0;
  int64_t hits_ = 0;
  int64_t hit_tokens_ = 0;
};

}  // namespace hanayo::runtime
