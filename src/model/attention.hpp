#pragma once
// Multi-head self-attention with manual backward.

#include "model/layers.hpp"

namespace hanayo::model {

/// Standard transformer MHA: fused QKV projection, per-head scaled dot
/// product, optional causal masking (GPT-style), output projection.
/// Input/output shape: [b, t, h].
class MultiHeadAttention : public Layer {
 public:
  MultiHeadAttention(std::string name, int64_t hidden, int64_t heads,
                     bool causal, Rng& rng, float init_std);

  Tensor forward(const Tensor& x, int mb) override;
  Tensor backward(const Tensor& dy, int mb) override;
  /// Incremental-decode forward. Appends the K/V rows of `x`'s tokens to the
  /// slot's cache, then attends each new token over the whole cached prefix
  /// with the strided gemm_bt/gemm kernels. `pos0` must equal the cached
  /// length (tokens arrive in order). The last row is bit-identical to a
  /// full-prefix recompute: K/V rows are per-token ascending-k dots whichever
  /// call produced them, and the final row's score/context extents coincide
  /// with the row-blocked training path's.
  Tensor forward_infer(const Tensor& x, int64_t pos0, int slot) override;
  void drop_slot(int slot) override { kv_.erase(slot); }
  int64_t slot_bytes() const override;
  /// Half-precision KV-cache storage: new slots keep their K/V panels as
  /// fp16 words (tensor/half converters) and materialise fp32 panels for
  /// the attention kernels per decode call — half the resident bytes for
  /// one conversion pass. Throws if streams are already in flight.
  void set_kv_fp16(bool on) override;
  /// Paged KV mode: K/V rows are appended into `store`'s pooled pages (one
  /// registered lane per layer), whose K half is key-major and V half
  /// row-major (runtime/kv_store.hpp). Attention reads the pages in place,
  /// page by page, with no copy of the prefix: scores are multiply-adds of
  /// q across each page's keys, probs x V multiply-adds its V rows, in the
  /// contiguous kernels' per-element order, and fp16 pages dequantize one
  /// page at a time with the same quantise-once/dequantise pair — so
  /// incremental decode keeps its full-prefix-recompute identity and
  /// paged ≡ contiguous bitwise. Paged streams are batch-1 (serving
  /// micro-batches). Throws if streams are already in flight.
  void set_kv_store(runtime::KvStore* store) override;
  /// Worst-case tokens per decode stream: fresh contiguous slots
  /// pre-reserve to this capacity so steady-state decode never grows KV
  /// storage mid-pass (paged storage is sized by its pool). 0 = grow
  /// geometrically on demand.
  void set_kv_capacity(int64_t tokens) override;
  void collect_params(std::vector<Param*>& out) override;
  void drop_cache(int mb) override;
  std::string name() const override { return name_; }
  int64_t cached_bytes() const override;

 private:
  struct Saved {
    Tensor qkv;    // [b, t, 3h]
    Tensor probs;  // [b, heads, t, t] post-softmax attention
    Tensor ctx;    // [b, t, h] pre-output-projection context
  };

  /// Per-decode-stream KV cache, time-major so appending a token appends
  /// one contiguous row: k/v are [cap, b*heads*dk]; row j holds every
  /// (batch, head)'s key/value of token j, and the per-(b,head) panel at
  /// column (n*heads + hh)*dk has constant row stride b*heads*dk — exactly
  /// the strided layout gemm_bt/gemm consume. With kv_fp16_ the rows live
  /// in k16/v16 as binary16 words instead (same [len, row] layout, half
  /// the bytes) and k/v stay empty.
  struct KvSlot {
    Tensor k, v;
    std::vector<uint16_t> k16, v16;
    int64_t len = 0;
    int64_t batch = 0;
  };

  /// Paged forward_infer core: appends `qkv`'s K/V rows to the store and
  /// returns the pre-output-projection context [1, t, h].
  Tensor attend_paged(const Tensor& qkv, int64_t pos0, int slot);

  std::string name_;
  int64_t hidden_, heads_, dk_;
  bool causal_;
  bool kv_fp16_ = false;
  Linear qkv_proj_;
  Linear out_proj_;
  std::unordered_map<int, Saved> cache_;
  std::unordered_map<int, KvSlot> kv_;
  /// Paged mode (set_kv_store): non-owning store handle, this layer's lane.
  runtime::KvStore* store_ = nullptr;
  int lane_ = -1;
  /// Pre-reservation hint from set_kv_capacity (tokens per stream).
  int64_t kv_capacity_ = 0;
};

}  // namespace hanayo::model
