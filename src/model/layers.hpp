#pragma once
// Neural-network layers with explicit, per-micro-batch activation caches.
//
// Pipeline parallelism interleaves the forward passes of many micro-batches
// before their backwards run, so unlike a tape-based autograd, every layer
// here stores its saved-for-backward tensors keyed by micro-batch id. The
// cache footprint (`cached_bytes`) is exactly the `Ma` quantity the paper
// tracks in Figs. 3 and 8: it grows when a forward completes and shrinks
// when the matching backward consumes it.

#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "tensor/rng.hpp"
#include "tensor/tensor.hpp"

namespace hanayo::runtime {
class KvStore;  // paged KV storage (runtime/kv_store.hpp); layers hold a
                // non-owning pointer wired by the serving runtime
}  // namespace hanayo::runtime

namespace hanayo::model {

using tensor::Rng;
using tensor::Tensor;

/// A learnable parameter with its gradient accumulator.
struct Param {
  std::string name;
  Tensor value;
  Tensor grad;

  Param(std::string n, Tensor v)
      : name(std::move(n)), value(std::move(v)), grad(value.shape()) {}
  void zero_grad() { grad.zero(); }
};

/// Base class for all layers.
///
/// Contract: `forward(x, mb)` may be called for several micro-batches before
/// any `backward`; `backward(dy, mb)` consumes (and frees) the cache of
/// micro-batch `mb` and accumulates parameter gradients (+=).
class Layer {
 public:
  virtual ~Layer() = default;

  virtual Tensor forward(const Tensor& x, int mb) = 0;
  virtual Tensor backward(const Tensor& dy, int mb) = 0;

  /// Inference forward: computes exactly the same function as `forward` but
  /// saves nothing for backward. `pos0` is the absolute sequence position of
  /// the first row of `x` (tokens [pos0, pos0 + t) of the sequence); `slot`
  /// identifies the decode stream, so stateful layers (attention's KV cache)
  /// can keep one incremental context per in-flight sequence. Stateless
  /// layers ignore both. Numerics contract: for causal models, the *last
  /// row* of the result is bit-identical whether the prefix was processed in
  /// one call (pos0 = 0) or token-by-token through the same slot — the
  /// ascending-k kernels make KV-cache decode match full-prefix recompute.
  virtual Tensor forward_infer(const Tensor& x, int64_t pos0, int slot) = 0;

  /// Frees any per-stream inference state held for `slot` (KV caches).
  virtual void drop_slot(int slot) { (void)slot; }

  /// Bytes of per-stream inference state (KV caches) currently held.
  virtual int64_t slot_bytes() const { return 0; }

  /// Store per-stream inference state (KV caches) in half precision:
  /// halves slot_bytes at the cost of fp16 rounding on the cached panels.
  /// Stateless layers ignore it. Must be set before any slot is populated.
  virtual void set_kv_fp16(bool on) { (void)on; }

  /// Attach a paged KV store: stateful layers register a lane and keep
  /// their per-stream K/V rows in pooled pages (prefix sharing, COW)
  /// instead of contiguous per-slot slabs. nullptr restores the contiguous
  /// path. Stateless layers ignore it. Must be set before any slot is
  /// populated.
  virtual void set_kv_store(runtime::KvStore* store) { (void)store; }

  /// Worst-case tokens per decode stream. Stateful layers pre-reserve
  /// their contiguous per-stream KV storage to this capacity so
  /// steady-state decode performs zero heap allocations; the
  /// serving runtime wires the model's max sequence length through here.
  /// Stateless layers ignore it. 0 = grow geometrically on demand.
  virtual void set_kv_capacity(int64_t tokens) { (void)tokens; }

  /// Appends pointers to this layer's parameters (stable across calls).
  virtual void collect_params(std::vector<Param*>& out) = 0;

  /// Discards the saved-for-backward cache of micro-batch `mb` without
  /// running a backward — used by activation recomputation, which re-runs
  /// the forward later to rebuild it.
  virtual void drop_cache(int mb) = 0;

  virtual std::string name() const = 0;

  /// Bytes currently held in saved-for-backward caches.
  virtual int64_t cached_bytes() const = 0;
};

/// y = x W + b over the last dimension.
class Linear : public Layer {
 public:
  /// Weights ~ N(0, init_std^2), bias zero; deterministic given `rng`.
  Linear(std::string name, int64_t in, int64_t out, Rng& rng, float init_std);

  Tensor forward(const Tensor& x, int mb) override;
  Tensor backward(const Tensor& dy, int mb) override;
  Tensor forward_infer(const Tensor& x, int64_t pos0, int slot) override;
  void collect_params(std::vector<Param*>& out) override;
  std::string name() const override { return name_; }
  int64_t cached_bytes() const override;

  void drop_cache(int mb) override;

  Param& weight() { return w_; }
  Param& bias() { return b_; }

 private:
  std::string name_;
  int64_t in_, out_;
  Param w_, b_;
  std::unordered_map<int, Tensor> cache_x_;  // forward input (original shape)
};

/// LayerNorm over the last dimension with learned gain/bias.
class LayerNorm : public Layer {
 public:
  LayerNorm(std::string name, int64_t dim, float eps = 1e-5f);

  Tensor forward(const Tensor& x, int mb) override;
  Tensor backward(const Tensor& dy, int mb) override;
  Tensor forward_infer(const Tensor& x, int64_t pos0, int slot) override;
  void collect_params(std::vector<Param*>& out) override;
  void drop_cache(int mb) override;
  std::string name() const override { return name_; }
  int64_t cached_bytes() const override;

 private:
  std::string name_;
  int64_t dim_;
  float eps_;
  Param g_, b_;
  std::unordered_map<int, Tensor> cache_xhat_;     // normalised input
  std::unordered_map<int, Tensor> cache_inv_std_;  // per-row 1/sigma
};

/// Elementwise GELU.
class Gelu : public Layer {
 public:
  explicit Gelu(std::string name) : name_(std::move(name)) {}

  Tensor forward(const Tensor& x, int mb) override;
  Tensor backward(const Tensor& dy, int mb) override;
  Tensor forward_infer(const Tensor& x, int64_t pos0, int slot) override;
  void collect_params(std::vector<Param*>&) override {}
  void drop_cache(int mb) override { cache_x_.erase(mb); }
  std::string name() const override { return name_; }
  int64_t cached_bytes() const override;

 private:
  std::string name_;
  std::unordered_map<int, Tensor> cache_x_;
};

/// Token + learned positional embedding. Input: [b, t] of token ids (stored
/// as floats); output: [b, t, h]. backward() returns an empty tensor (there
/// is no gradient w.r.t. token ids).
class Embedding : public Layer {
 public:
  Embedding(std::string name, int64_t vocab, int64_t max_seq, int64_t hidden,
            Rng& rng, float init_std);

  Tensor forward(const Tensor& x, int mb) override;
  Tensor backward(const Tensor& dy, int mb) override;
  /// Positional rows are read at `pos0 + j`: decoding token `pos0` embeds
  /// with the same positional vector the full-prefix forward would use.
  Tensor forward_infer(const Tensor& x, int64_t pos0, int slot) override;
  void collect_params(std::vector<Param*>& out) override;
  void drop_cache(int mb) override { cache_ids_.erase(mb); }
  std::string name() const override { return name_; }
  int64_t cached_bytes() const override;

 private:
  std::string name_;
  int64_t vocab_, max_seq_, hidden_;
  Param tok_, pos_;
  std::unordered_map<int, Tensor> cache_ids_;
};

}  // namespace hanayo::model
