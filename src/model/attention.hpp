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
  /// Incremental-decode forward. Appends the K/V rows of `x`'s tokens to
  /// stream `slot` in the attached KV store (this layer's lane), then
  /// attends each new token over the whole cached prefix, reading the
  /// pages in place (layout in runtime/kv_store.hpp): scores multiply-add
  /// q across each key-major page, probs x V multiply-adds its V rows, and
  /// fp16 pages dequantize one page at a time. `x` is one stream ([1, t]);
  /// `pos0` must equal the cached length (tokens arrive in order), and the
  /// store must have opened `slot`. Throws std::logic_error without a
  /// store. The last row is bit-identical to a full-prefix recompute: K/V
  /// rows are per-token ascending-k dots (quantized once under fp16),
  /// whichever call produced them, and every row's extent is its absolute
  /// position + 1.
  Tensor forward_infer(const Tensor& x, int64_t pos0, int slot) override;
  /// Registers one lane in `store` (see Layer::set_kv_store).
  void set_kv_store(runtime::KvStore* store) override;
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

  /// forward_infer core: appends `qkv`'s K/V rows to the store and
  /// returns the pre-output-projection context [1, t, h].
  Tensor attend(const Tensor& qkv, int64_t pos0, int slot);

  std::string name_;
  int64_t hidden_, heads_, dk_;
  bool causal_;
  Linear qkv_proj_;
  Linear out_proj_;
  std::unordered_map<int, Saved> cache_;
  /// Decode KV (set_kv_store): non-owning store handle, this layer's lane.
  runtime::KvStore* store_ = nullptr;
  int lane_ = -1;
};

}  // namespace hanayo::model
