#include "runtime/kv_store.hpp"

#include <algorithm>
#include <cstring>
#include <mutex>
#include <stdexcept>

#include "tensor/half.hpp"

namespace hanayo::runtime {

// One radix-tree node covers one page worth of token ids (the tail node
// may cover fewer) and pins one page per lane while it lives. Children
// are keyed by their first token; every non-tail node spans exactly
// page_tokens ids, so a root-to-node path always lands on the page grid.
struct KvStore::Node {
  std::vector<int64_t> tokens;
  std::vector<int32_t> pages;  // [lanes]
  std::vector<std::unique_ptr<Node>> kids;

  static Node* find_child(const std::vector<std::unique_ptr<Node>>& kids,
                          int64_t first) {
    for (const auto& k : kids) {
      if (!k->tokens.empty() && k->tokens[0] == first) return k.get();
    }
    return nullptr;
  }
};

namespace {

/// Longest common prefix of `tokens` and `ids[pos, pos + limit)`.
int64_t match_len(const std::vector<int64_t>& tokens,
                  const std::vector<int64_t>& ids, int64_t pos,
                  int64_t limit) {
  const int64_t n = std::min<int64_t>(static_cast<int64_t>(tokens.size()),
                                      limit);
  int64_t m = 0;
  while (m < n && tokens[static_cast<size_t>(m)] ==
                      ids[static_cast<size_t>(pos + m)]) {
    ++m;
  }
  return m;
}

/// Writes token `off`'s K and V rows into `page` (layout in kv_store.hpp),
/// converting each element with `cvt`.
template <typename T, typename Cvt>
void put_token(T* page, int64_t pg, int64_t row, int64_t off,
               const float* krow, const float* vrow, Cvt cvt) {
  for (int64_t e = 0; e < row; ++e) page[e * pg + off] = cvt(krow[e]);
  T* v = page + pg * row + off * row;
  for (int64_t e = 0; e < row; ++e) v[e] = cvt(vrow[e]);
}

/// Copies tokens [0, off) of page `src` into page `dst`, both halves.
template <typename T>
void copy_tokens(T* dst, const T* src, int64_t pg, int64_t row,
                 int64_t off) {
  const size_t n = static_cast<size_t>(off) * sizeof(T);
  for (int64_t e = 0; e < row; ++e) {
    std::memcpy(dst + e * pg, src + e * pg, n);
  }
  std::memcpy(dst + pg * row, src + pg * row, n * static_cast<size_t>(row));
}

}  // namespace

KvStore::KvStore(const KvStoreConfig& cfg) : cfg_(cfg) {
  if (cfg_.page_tokens < 1) {
    throw std::invalid_argument("KvStore: page_tokens must be >= 1");
  }
  if (cfg_.pool_pages < 1) {
    throw std::invalid_argument("KvStore: pool_pages must be >= 1");
  }
  if (cfg_.row_elems < 1 || cfg_.max_slots < 1) {
    throw std::invalid_argument("KvStore: row_elems and max_slots required");
  }
  const int64_t elems = cfg_.pool_pages * page_elems();
  if (cfg_.fp16) {
    data16_.assign(static_cast<size_t>(elems), 0);
  } else {
    data32_.assign(static_cast<size_t>(elems), 0.0f);
  }
  pages_.assign(static_cast<size_t>(cfg_.pool_pages), Page{});
  free_.reserve(static_cast<size_t>(cfg_.pool_pages));
  for (int64_t p = cfg_.pool_pages - 1; p >= 0; --p) {
    free_.push_back(static_cast<int32_t>(p));
  }
  slots_.assign(static_cast<size_t>(cfg_.max_slots), SlotInfo{});
}

KvStore::~KvStore() = default;

int KvStore::register_lane() {
  std::lock_guard<sync::Mutex<sync::Rank::KvPool>> g(mu_);
  const int lane = lanes_++;
  lane_slots_.resize(static_cast<size_t>(lanes_) *
                     static_cast<size_t>(cfg_.max_slots));
  return lane;
}

int64_t KvStore::page_elems() const {
  return 2ll * cfg_.page_tokens * cfg_.row_elems;
}

int64_t KvStore::page_bytes() const {
  return page_elems() * static_cast<int64_t>(cfg_.fp16 ? sizeof(uint16_t)
                                                       : sizeof(float));
}

KvStore::LaneSlot& KvStore::lane_slot(int lane, int slot) {
  return lane_slots_[static_cast<size_t>(lane) *
                         static_cast<size_t>(cfg_.max_slots) +
                     static_cast<size_t>(slot)];
}

const KvStore::LaneSlot& KvStore::lane_slot(int lane, int slot) const {
  return lane_slots_[static_cast<size_t>(lane) *
                         static_cast<size_t>(cfg_.max_slots) +
                     static_cast<size_t>(slot)];
}

int64_t KvStore::max_table_pages() const {
  return (cfg_.pool_pages + lanes_ - 1) / lanes_ + 1;
}

int64_t KvStore::pages_needed(int64_t final_len, int64_t shared_tokens) const {
  const int64_t pg = cfg_.page_tokens;
  // Worst case per lane: every page from the first non-fully-shared one
  // through the final token, plus one copy-on-write spare when the prefix
  // cache may publish (and so share) this stream's own partial tail page.
  int64_t per_lane = (final_len + pg - 1) / pg - shared_tokens / pg;
  if (cfg_.prefix_cache) per_lane += 1;
  if (per_lane < 0) per_lane = 0;
  return per_lane * std::max(1, lanes_);
}

int32_t KvStore::alloc_page_locked(int slot) {
  SlotInfo& si = slots_[static_cast<size_t>(slot)];
  if (si.reserved <= 0 || free_.empty()) {
    throw std::logic_error("KvStore: page reservation exhausted");
  }
  const int32_t p = free_.back();
  free_.pop_back();
  pages_[static_cast<size_t>(p)] = Page{/*refs=*/1, /*tree_refs=*/0};
  ++slot_ref_pages_;
  ++in_use_;
  peak_ = std::max(peak_, in_use_);
  --si.reserved;
  --reserved_total_;
  return p;
}

void KvStore::ref_page_locked(int32_t p) {
  if (pages_[static_cast<size_t>(p)].refs++ == 0) ++slot_ref_pages_;
}

void KvStore::free_if_unreferenced_locked(int32_t p) {
  Page& pg = pages_[static_cast<size_t>(p)];
  if (pg.refs == 0 && pg.tree_refs == 0) {
    free_.push_back(p);
    --in_use_;
  }
}

void KvStore::unref_page_locked(int32_t p) {
  if (--pages_[static_cast<size_t>(p)].refs == 0) {
    --slot_ref_pages_;
    free_if_unreferenced_locked(p);
  }
}

void KvStore::tree_unref_locked(int32_t p) {
  --pages_[static_cast<size_t>(p)].tree_refs;
  free_if_unreferenced_locked(p);
}

bool KvStore::page_shared(int32_t p) const {
  const Page& pg = pages_[static_cast<size_t>(p)];
  return pg.refs + pg.tree_refs > 1;
}

bool KvStore::open_slot(int slot, const std::vector<int64_t>& ids,
                        int64_t final_len, int64_t* shared_out) {
  std::lock_guard<sync::Mutex<sync::Rank::KvPool>> g(mu_);
  if (lanes_ == 0) throw std::logic_error("KvStore: no lanes registered");
  if (slot < 0 || slot >= cfg_.max_slots) {
    throw std::invalid_argument("KvStore: slot out of range");
  }
  SlotInfo& si = slots_[static_cast<size_t>(slot)];
  if (si.open) throw std::logic_error("KvStore: slot already open");

  // Longest cached prefix, capped so the prefill computes >= 1 token.
  const int64_t cap =
      cfg_.prefix_cache ? static_cast<int64_t>(ids.size()) - 1 : 0;
  std::vector<const Node*> matched;
  int64_t shared = 0;
  const std::vector<std::unique_ptr<Node>>* level = &roots_;
  while (shared < cap) {
    const Node* c = Node::find_child(*level, ids[static_cast<size_t>(shared)]);
    if (c == nullptr) break;
    const int64_t m = match_len(c->tokens, ids, shared, cap - shared);
    if (m == 0) break;
    matched.push_back(c);
    shared += m;
    // Descending past a node is only sound when the node matched in full
    // (its page's rows beyond a partial match belong to someone else's
    // prompt) and spans a whole page (tail nodes have no children).
    if (m < static_cast<int64_t>(c->tokens.size()) ||
        static_cast<int64_t>(c->tokens.size()) < cfg_.page_tokens) {
      break;
    }
    level = &c->kids;
  }

  const int64_t need = pages_needed(final_len, shared);
  if (need > static_cast<int64_t>(free_.size()) - reserved_total_) {
    return false;  // pool dry: caller evicts and retries, or sheds load
  }

  for (int lane = 0; lane < lanes_; ++lane) {
    // Sized once, on the slot's first open (every lane is registered by
    // then); later opens and every append reuse the capacity.
    LaneSlot& ls = lane_slot(lane, slot);
    ls.table.reserve(static_cast<size_t>(max_table_pages()));
    ls.len = shared;
  }
  for (const Node* n : matched) {
    for (int lane = 0; lane < lanes_; ++lane) {
      ref_page_locked(n->pages[static_cast<size_t>(lane)]);
      lane_slot(lane, slot).table.push_back(
          n->pages[static_cast<size_t>(lane)]);
    }
  }
  si.open = true;
  si.reserved = need;
  si.shared = shared;
  reserved_total_ += need;
  if (shared > 0) {
    ++hits_;
    hit_tokens_ += shared;
  }
  if (shared_out != nullptr) *shared_out = shared;
  return true;
}

void KvStore::publish(int slot, const std::vector<int64_t>& ids) {
  if (!cfg_.prefix_cache) return;
  std::lock_guard<sync::Mutex<sync::Rank::KvPool>> g(mu_);
  const int64_t pg = cfg_.page_tokens;
  const int64_t n = static_cast<int64_t>(ids.size());
  std::vector<std::unique_ptr<Node>>* level = &roots_;
  int64_t pos = 0;
  int page_idx = 0;
  while (pos < n) {
    const int64_t chunk = std::min<int64_t>(pg, n - pos);
    Node* c = Node::find_child(*level, ids[static_cast<size_t>(pos)]);
    if (c != nullptr) {
      const int64_t m = match_len(c->tokens, ids, pos, chunk);
      const int64_t clen = static_cast<int64_t>(c->tokens.size());
      if (m == clen && m == chunk) {
        // Identical chunk already cached; our copy of the page stays
        // private (first writer wins) and we continue below it.
        pos += m;
        ++page_idx;
        if (chunk < pg) break;
        level = &c->kids;
        continue;
      }
      if (m == clen && m < chunk && c->kids.empty() && clen < pg) {
        // The cached tail is a strict prefix of our chunk: upgrade the
        // node in place to the longer page.
        for (int lane = 0; lane < lanes_; ++lane) {
          const int32_t ours =
              lane_slot(lane, slot).table[static_cast<size_t>(page_idx)];
          ++pages_[static_cast<size_t>(ours)].tree_refs;
          tree_unref_locked(c->pages[static_cast<size_t>(lane)]);
          c->pages[static_cast<size_t>(lane)] = ours;
        }
        c->tokens.assign(ids.begin() + pos, ids.begin() + pos + chunk);
        pos += chunk;
        ++page_idx;
        if (chunk < pg) break;
        level = &c->kids;
        continue;
      }
      break;  // diverges mid-node: first writer wins
    }
    auto node = std::make_unique<Node>();
    node->tokens.assign(ids.begin() + pos, ids.begin() + pos + chunk);
    node->pages.resize(static_cast<size_t>(lanes_));
    for (int lane = 0; lane < lanes_; ++lane) {
      const int32_t ours =
          lane_slot(lane, slot).table[static_cast<size_t>(page_idx)];
      ++pages_[static_cast<size_t>(ours)].tree_refs;
      node->pages[static_cast<size_t>(lane)] = ours;
    }
    Node* made = node.get();
    level->push_back(std::move(node));
    pos += chunk;
    ++page_idx;
    if (chunk < pg) break;
    level = &made->kids;
  }
}

void KvStore::drop_slot(int slot) {
  std::lock_guard<sync::Mutex<sync::Rank::KvPool>> g(mu_);
  SlotInfo& si = slots_[static_cast<size_t>(slot)];
  if (!si.open) return;
  for (int lane = 0; lane < lanes_; ++lane) {
    LaneSlot& ls = lane_slot(lane, slot);
    for (const int32_t p : ls.table) unref_page_locked(p);
    ls.table.clear();
    ls.len = 0;
  }
  reserved_total_ -= si.reserved;
  si = SlotInfo{};
}

void KvStore::append(int lane, int slot, const float* krow,
                     const float* vrow) {
  LaneSlot& ls = lane_slot(lane, slot);
  const int64_t pg = cfg_.page_tokens;
  const int64_t row = cfg_.row_elems;
  const int64_t pi = ls.len / pg;
  const int64_t off = ls.len % pg;
  if (pi == static_cast<int64_t>(ls.table.size())) {
    std::lock_guard<sync::Mutex<sync::Rank::KvPool>> g(mu_);
    ls.table.push_back(alloc_page_locked(slot));
  } else {
    int32_t fresh = -1;
    int32_t old = ls.table[static_cast<size_t>(pi)];
    {
      std::lock_guard<sync::Mutex<sync::Rank::KvPool>> g(mu_);
      if (page_shared(old)) fresh = alloc_page_locked(slot);
    }
    if (fresh >= 0) {
      // Copy-on-write: clone the rows this stream already owns, then
      // release the shared original. The source page cannot be freed
      // underneath us — this slot still holds a reference to it.
      if (cfg_.fp16) {
        copy_tokens(data16_.data() + page_offset(fresh),
                    data16_.data() + page_offset(old), pg, row, off);
      } else {
        copy_tokens(data32_.data() + page_offset(fresh),
                    data32_.data() + page_offset(old), pg, row, off);
      }
      ls.table[static_cast<size_t>(pi)] = fresh;
      std::lock_guard<sync::Mutex<sync::Rank::KvPool>> g(mu_);
      unref_page_locked(old);
    }
  }
  const int64_t base = page_offset(ls.table[static_cast<size_t>(pi)]);
  if (cfg_.fp16) {
    put_token(data16_.data() + base, pg, row, off, krow, vrow,
              tensor::float_to_half);
  } else {
    put_token(data32_.data() + base, pg, row, off, krow, vrow,
              [](float f) { return f; });
  }
  ls.len += 1;
}

KvPage KvStore::read_page(int lane, int slot, int64_t pi, int64_t len,
                          float* scratch, Halves halves) const {
  const LaneSlot& ls = lane_slot(lane, slot);
  const int64_t pg = cfg_.page_tokens;
  const int64_t row = cfg_.row_elems;
  if (len > ls.len || pi < 0 || pi * pg >= len) {
    throw std::logic_error("KvStore: read past cached len");
  }
  const int64_t rows = std::min(pg, len - pi * pg);
  const int64_t base = page_offset(ls.table[static_cast<size_t>(pi)]);
  if (!cfg_.fp16) {
    const float* p = data32_.data() + base;
    return {p, p + pg * row, rows};
  }
  const uint16_t* p = data16_.data() + base;
  if (halves & kKeys) {
    for (int64_t e = 0; e < row; ++e) {
      for (int64_t r = 0; r < rows; ++r) {
        scratch[e * pg + r] = tensor::half_to_float(p[e * pg + r]);
      }
    }
  }
  if (halves & kValues) {
    for (int64_t i = pg * row; i < pg * row + rows * row; ++i) {
      scratch[i] = tensor::half_to_float(p[i]);
    }
  }
  return {scratch, scratch + pg * row, rows};
}

int64_t KvStore::lane_len(int lane, int slot) const {
  return lane_slot(lane, slot).len;
}

int64_t KvStore::prune_nodes_locked(
    std::vector<std::unique_ptr<Node>>& nodes) {
  int64_t freed = 0;
  for (auto& n : nodes) freed += prune_nodes_locked(n->kids);
  auto removable = [this](const std::unique_ptr<Node>& n) {
    if (!n->kids.empty()) return false;
    for (const int32_t p : n->pages) {
      if (pages_[static_cast<size_t>(p)].refs != 0) return false;
    }
    return true;
  };
  for (auto it = nodes.begin(); it != nodes.end();) {
    if (removable(*it)) {
      for (const int32_t p : (*it)->pages) {
        tree_unref_locked(p);
        ++freed;
      }
      it = nodes.erase(it);
    } else {
      ++it;
    }
  }
  return freed;
}

int64_t KvStore::evict_unreferenced() {
  std::lock_guard<sync::Mutex<sync::Rank::KvPool>> g(mu_);
  return prune_nodes_locked(roots_);
}

void KvStore::drop_nodes_locked(std::vector<std::unique_ptr<Node>>& nodes) {
  for (auto& n : nodes) {
    drop_nodes_locked(n->kids);
    for (const int32_t p : n->pages) tree_unref_locked(p);
  }
  nodes.clear();
}

void KvStore::clear_prefix_cache() {
  std::lock_guard<sync::Mutex<sync::Rank::KvPool>> g(mu_);
  drop_nodes_locked(roots_);
}

int64_t KvStore::pages_in_use() const {
  std::lock_guard<sync::Mutex<sync::Rank::KvPool>> g(mu_);
  return in_use_;
}

int64_t KvStore::peak_pages() const {
  std::lock_guard<sync::Mutex<sync::Rank::KvPool>> g(mu_);
  return peak_;
}

int64_t KvStore::slot_ref_pages() const {
  std::lock_guard<sync::Mutex<sync::Rank::KvPool>> g(mu_);
  return slot_ref_pages_;
}

int64_t KvStore::free_pages() const {
  std::lock_guard<sync::Mutex<sync::Rank::KvPool>> g(mu_);
  return static_cast<int64_t>(free_.size());
}

int64_t KvStore::bytes_in_use() const { return pages_in_use() * page_bytes(); }

int64_t KvStore::slot_ref_bytes() const {
  return slot_ref_pages() * page_bytes();
}

int64_t KvStore::prefix_hits() const {
  std::lock_guard<sync::Mutex<sync::Rank::KvPool>> g(mu_);
  return hits_;
}

int64_t KvStore::prefix_hit_tokens() const {
  std::lock_guard<sync::Mutex<sync::Rank::KvPool>> g(mu_);
  return hit_tokens_;
}

}  // namespace hanayo::runtime
