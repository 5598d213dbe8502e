#include "model/attention.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <stdexcept>
#include <vector>

#include "runtime/kv_store.hpp"
#include "tensor/arena.hpp"
#include "tensor/half.hpp"
#include "tensor/kernels.hpp"
#include "tensor/ops.hpp"
#include "tensor/parallel.hpp"

namespace hanayo::model {

using namespace hanayo::tensor;

MultiHeadAttention::MultiHeadAttention(std::string name, int64_t hidden,
                                       int64_t heads, bool causal, Rng& rng,
                                       float init_std)
    : name_(std::move(name)),
      hidden_(hidden),
      heads_(heads),
      dk_(hidden / heads),
      causal_(causal),
      qkv_proj_(name_ + ".qkv", hidden, 3 * hidden, rng, init_std),
      out_proj_(name_ + ".out", hidden, hidden, rng, init_std) {
  if (hidden % heads != 0) {
    throw std::invalid_argument(name_ + ": hidden must divide by heads");
  }
}

// The (batch, head) pairs are fully independent: each one reads its own
// Q/K/V panels (strided slices of the fused [b, t, 3h] projection) and
// writes disjoint slices of probs/ctx (forward) or dqkv (backward). The
// intra-op pool splits the pairs; inside a pair the blocked GEMM kernels
// run inline, so results are bit-identical for any thread count.
//
// Within a pair, the score-matrix rows are processed in fixed blocks of
// kRowBlock; a causal pair bounds every GEMM's column extent by the
// block's last row (jext), so the masked upper triangle costs no FLOPs —
// the same triangular saving the seed's scalar loops had. The extent
// depends only on the row index, never on the thread count.
namespace {
constexpr int64_t kRowBlock = 64;

}  // namespace

Tensor MultiHeadAttention::forward(const Tensor& x, int mb) {
  const int64_t b = x.size(0), t = x.size(1);
  Tensor qkv = qkv_proj_.forward(x, mb);  // [b, t, 3h]
  Tensor probs({b, heads_, t, t});
  Tensor ctx({b, t, hidden_});
  const float scale = 1.0f / std::sqrt(static_cast<float>(dk_));
  const int64_t h3 = 3 * hidden_;
  const float* qkvp = qkv.data();
  float* probsp = probs.data();
  float* ctxp = ctx.data();
  const bool causal = causal_;
  const int64_t heads = heads_, dk = dk_, hidden = hidden_;

  parallel_for(b * heads, 1, [&](int64_t p0, int64_t p1) {
    for (int64_t p = p0; p < p1; ++p) {
      const int64_t n = p / heads, hh = p % heads;
      const float* q = qkvp + n * t * h3 + hh * dk;
      const float* k = q + hidden;
      const float* v = k + hidden;
      float* prob = probsp + p * t * t;
      for (int64_t i0 = 0; i0 < t; i0 += kRowBlock) {
        const int64_t i1 = std::min(i0 + kRowBlock, t);
        const int64_t jext = causal ? i1 : t;  // columns rows < i1 can see
        // scores = Q K^T for this row block (blocked GEMM, triangular cut)
        kernels::gemm_bt(i1 - i0, jext, dk, q + i0 * h3, h3, k, h3,
                         prob + i0 * t, t, false);
        // scale + causal mask + row softmax
        for (int64_t i = i0; i < i1; ++i) {
          float* prow = prob + i * t;
          const int64_t jmax = causal ? i + 1 : t;
          kernels::softmax_row(prow, jmax, scale);
          for (int64_t j = jmax; j < t; ++j) prow[j] = 0.0f;
        }
        // context = probs @ V over the visible columns only
        kernels::gemm(i1 - i0, dk, jext, prob + i0 * t, t, v, h3,
                      ctxp + (n * t + i0) * hidden + hh * dk, hidden, false);
      }
    }
  });

  Tensor y = out_proj_.forward(ctx, mb);
  cache_[mb] = Saved{std::move(qkv), std::move(probs), std::move(ctx)};
  return y;
}

Tensor MultiHeadAttention::backward(const Tensor& dy, int mb) {
  auto it = cache_.find(mb);
  if (it == cache_.end()) throw std::logic_error(name_ + ": backward without forward");
  Saved& sv = it->second;
  const Tensor& qkv = sv.qkv;
  const Tensor& probs = sv.probs;

  Tensor dctx = out_proj_.backward(dy, mb);  // [b, t, h]
  const int64_t b = dctx.size(0), t = dctx.size(1);
  Tensor dqkv({b, t, 3 * hidden_});
  const float scale = 1.0f / std::sqrt(static_cast<float>(dk_));
  const int64_t h3 = 3 * hidden_;
  const float* qkvp = qkv.data();
  const float* probsp = probs.data();
  const float* dctxp = dctx.data();
  float* dqkvp = dqkv.data();
  const bool causal = causal_;
  const int64_t heads = heads_, dk = dk_, hidden = hidden_;

  parallel_for(b * heads, 1, [&](int64_t p0, int64_t p1) {
    // dP/dS scratch for this chunk. On the submitting worker it comes from
    // the iteration arena (mark/rewind, freed at chunk exit); pool threads
    // without an arena fall back to a bounded geometric thread_local
    // instead of the old unbounded exact-size one.
    thread_local std::vector<float> fallback;
    ScratchBuffer scratch(t * t, fallback);
    float* ds = scratch.data();
    for (int64_t p = p0; p < p1; ++p) {
      const int64_t n = p / heads, hh = p % heads;
      const float* q = qkvp + n * t * h3 + hh * dk;
      const float* k = q + hidden;
      const float* v = k + hidden;
      float* dq = dqkvp + n * t * h3 + hh * dk;
      float* dkp = dq + hidden;
      float* dv = dkp + hidden;
      const float* prob = probsp + p * t * t;
      const float* dc = dctxp + n * t * hidden + hh * dk;
      for (int64_t i0 = 0; i0 < t; i0 += kRowBlock) {
        const int64_t i1 = std::min(i0 + kRowBlock, t);
        const int64_t mbr = i1 - i0;
        const int64_t jext = causal ? i1 : t;
        const float* prob_b = prob + i0 * t;
        const float* dc_b = dc + i0 * hidden;
        float* ds_b = ds + i0 * t;
        // dV[0:jext] += P^T dctx over this row block (row blocks ascend,
        // so each dV element still accumulates in ascending-i order)
        kernels::gemm_at(jext, dk, mbr, prob_b, t, dc_b, hidden, dv, h3,
                         true);
        // dP = dctx V^T for the visible columns
        kernels::gemm_bt(mbr, jext, dk, dc_b, hidden, v, h3, ds_b, t, false);
        // dS = P * (dP - sum_j dP*P) * scale (softmax backward), masked
        for (int64_t i = i0; i < i1; ++i) {
          const int64_t jmax = causal ? i + 1 : t;
          const float* prow = prob + i * t;
          float* dsrow = ds + i * t;
          double dot_dp_p = 0.0;
          for (int64_t j = 0; j < jmax; ++j) {
            dot_dp_p += static_cast<double>(dsrow[j]) * prow[j];
          }
          const float dot = static_cast<float>(dot_dp_p);
          for (int64_t j = 0; j < jmax; ++j) {
            dsrow[j] = prow[j] * (dsrow[j] - dot) * scale;
          }
          for (int64_t j = jmax; j < t; ++j) dsrow[j] = 0.0f;
        }
        // dQ += dS K;  dK += dS^T Q — visible columns only
        kernels::gemm(mbr, dk, jext, ds_b, t, k, h3, dq + i0 * h3, h3, true);
        kernels::gemm_at(jext, dk, mbr, ds_b, t, q + i0 * h3, h3, dkp, h3,
                         true);
      }
    }
  });

  cache_.erase(it);
  return qkv_proj_.backward(dqkv, mb);
}

Tensor MultiHeadAttention::forward_infer(const Tensor& x, int64_t pos0,
                                         int slot) {
  Tensor qkv = qkv_proj_.forward_infer(x, pos0, slot);  // [b, t, 3h]
  if (store_ != nullptr) {
    return out_proj_.forward_infer(attend_paged(qkv, pos0, slot), pos0, slot);
  }

  const int64_t b = x.size(0), t = x.size(1);
  const int64_t row = b * hidden_;  // b * heads * dk
  const int64_t h3 = 3 * hidden_;
  const int64_t total = pos0 + t;
  const float* kcache = nullptr;
  const float* vcache = nullptr;
  Tensor kf, vf;  // fp16 contiguous mode: per-call fp32 panels

  KvSlot& kv = kv_[slot];
  if (kv.len == 0) kv.batch = b;
  if (kv.batch != b) {
    throw std::invalid_argument(name_ + ": slot batch changed mid-stream");
  }
  if (pos0 != kv.len) {
    throw std::logic_error(name_ + ": decode out of order (pos0 " +
                           std::to_string(pos0) + ", cached " +
                           std::to_string(kv.len) + ")");
  }

  // Append this call's K/V rows (time-major: one contiguous row per token).
  if (kv_fp16_) {
    // Half-precision storage: same [len, row] layout, binary16 words. Rows
    // quantize on append — once per token, whichever call produced it — so
    // incremental decode and full-prefix recompute still see identical
    // cached bits.
    const size_t need = static_cast<size_t>(total * row);
    if (kv.k16.capacity() < need) {
      // Fresh slots reserve the whole configured stream capacity up
      // front (a per-request cost), so no decode pass reallocates.
      const size_t floor = static_cast<size_t>(
          (kv_capacity_ > 0 ? kv_capacity_ : 16) * row);
      const size_t newcap = std::max({need, 2 * kv.k16.capacity(), floor});
      kv.k16.reserve(newcap);
      kv.v16.reserve(newcap);
    }
    kv.k16.resize(need);
    kv.v16.resize(need);
    for (int64_t j = 0; j < t; ++j) {
      for (int64_t n = 0; n < b; ++n) {
        const float* src = qkv.data() + (n * t + j) * h3;
        uint16_t* kdst = kv.k16.data() + (kv.len + j) * row + n * hidden_;
        uint16_t* vdst = kv.v16.data() + (kv.len + j) * row + n * hidden_;
        for (int64_t i = 0; i < hidden_; ++i) {
          kdst[i] = float_to_half(src[hidden_ + i]);
          vdst[i] = float_to_half(src[2 * hidden_ + i]);
        }
      }
    }
  } else {
    if (kv.k.numel() < total * row) {
      // KV panels outlive the pass, so they must not come from the pass
      // arena; fresh slots also jump straight to the configured stream
      // capacity so steady-state decode never re-allocates them.
      tensor::ArenaPause heap_kv;
      const int64_t cap = kv.k.numel() / std::max<int64_t>(row, 1);
      const int64_t newcap = std::max<int64_t>(
          {total, 2 * cap, kv_capacity_ > 0 ? kv_capacity_ : 16});
      Tensor nk({newcap, row}), nv({newcap, row});
      if (kv.len > 0) {
        std::memcpy(nk.data(), kv.k.data(),
                    static_cast<size_t>(kv.len * row) * sizeof(float));
        std::memcpy(nv.data(), kv.v.data(),
                    static_cast<size_t>(kv.len * row) * sizeof(float));
      }
      kv.k = std::move(nk);
      kv.v = std::move(nv);
    }
    for (int64_t j = 0; j < t; ++j) {
      for (int64_t n = 0; n < b; ++n) {
        const float* src = qkv.data() + (n * t + j) * h3;
        float* kdst = kv.k.data() + (kv.len + j) * row + n * hidden_;
        float* vdst = kv.v.data() + (kv.len + j) * row + n * hidden_;
        std::memcpy(kdst, src + hidden_,
                    static_cast<size_t>(hidden_) * sizeof(float));
        std::memcpy(vdst, src + 2 * hidden_,
                    static_cast<size_t>(hidden_) * sizeof(float));
      }
    }
  }
  kv.len = total;

  // fp16 storage: materialise fp32 panels for the kernels, one conversion
  // pass per decode call (the resident cache stays half precision).
  if (kv_fp16_) {
    kf = Tensor({total, row});
    vf = Tensor({total, row});
    float* kp = kf.data();
    float* vp = vf.data();
    for (int64_t i = 0; i < total * row; ++i) {
      kp[i] = half_to_float(kv.k16[static_cast<size_t>(i)]);
      vp[i] = half_to_float(kv.v16[static_cast<size_t>(i)]);
    }
    kcache = kf.data();
    vcache = vf.data();
  } else {
    kcache = kv.k.data();
    vcache = kv.v.data();
  }

  // Attend each new token over the cached prefix. Extents are per *row*
  // (jext = absolute position + 1), so every row's value is identical
  // whether the prefix arrived in one prefill call or token by token.
  Tensor probs({b * heads_, t, total});
  Tensor ctx({b, t, hidden_});
  const float scale = 1.0f / std::sqrt(static_cast<float>(dk_));
  const float* qkvp = qkv.data();
  float* probsp = probs.data();
  float* ctxp = ctx.data();
  const bool causal = causal_;
  const int64_t heads = heads_, dk = dk_, hidden = hidden_;

  parallel_for(b * heads, 1, [&](int64_t p0, int64_t p1) {
    for (int64_t p = p0; p < p1; ++p) {
      const int64_t n = p / heads, hh = p % heads;
      const float* q = qkvp + n * t * h3 + hh * dk;
      const float* kc = kcache + (n * heads + hh) * dk;
      const float* vc = vcache + (n * heads + hh) * dk;
      float* prob = probsp + p * t * total;
      for (int64_t r = 0; r < t; ++r) {
        const int64_t jmax = causal ? pos0 + r + 1 : total;
        float* prow = prob + r * total;
        // scores = q_r K^T over the visible prefix (strided cache panel)
        kernels::gemm_bt(1, jmax, dk, q + r * h3, h3, kc, row, prow, total,
                         false);
        kernels::softmax_row(prow, jmax, scale);
        // context = probs @ V over the visible prefix
        kernels::gemm(1, dk, jmax, prow, total, vc, row,
                      ctxp + (n * t + r) * hidden + hh * dk, hidden, false);
      }
    }
  });

  return out_proj_.forward_infer(ctx, pos0, slot);
}

// Paged attention reads K/V in place, one page at a time (page layout in
// runtime/kv_store.hpp). Pages are the outer loop, so every page is read
// once per pass for the scores and once for probs x V, for all query rows
// and heads at once — fp16 pages dequantize one half per read. Per
// element the arithmetic is the contiguous path's: scores are ascending-kk
// multiply-adds of q against a key-major page, probs x V multiply-adds V
// rows in ascending token order, carried across pages in ctx (vecmat's
// sequence is gemm's for m = 1), and the softmax is unchanged.
Tensor MultiHeadAttention::attend_paged(const Tensor& qkv, int64_t pos0,
                                        int slot) {
  const int64_t t = qkv.size(1);
  if (qkv.size(0) != 1) {
    throw std::invalid_argument(name_ + ": paged KV requires batch-1 streams");
  }
  const int64_t cached = store_->lane_len(lane_, slot);
  if (pos0 != cached) {
    throw std::logic_error(name_ + ": decode out of order (pos0 " +
                           std::to_string(pos0) + ", cached " +
                           std::to_string(cached) + ")");
  }
  const int64_t h3 = 3 * hidden_;
  for (int64_t j = 0; j < t; ++j) {
    const float* src = qkv.data() + j * h3;
    store_->append(lane_, slot, src + hidden_, src + 2 * hidden_);
  }

  const int64_t total = pos0 + t;
  const int64_t pg = store_->page_tokens();
  const int64_t pages = (total + pg - 1) / pg;
  Tensor probs({heads_, t, total});
  Tensor ctx({1, t, hidden_});
  const float scale = 1.0f / std::sqrt(static_cast<float>(dk_));
  const float* qkvp = qkv.data();
  float* probsp = probs.data();
  float* ctxp = ctx.data();
  const runtime::KvStore& store = *store_;
  const int lane = lane_;
  const bool causal = causal_;
  const int64_t dk = dk_, hidden = hidden_;
  // Visible prefix of query row r: absolute position + 1 when causal.
  const auto extent = [&](int64_t r) { return causal ? pos0 + r + 1 : total; };

  parallel_for(heads_, 1, [&](int64_t h0, int64_t h1) {
    thread_local std::vector<float> fallback;
    ScratchBuffer scratch(store.fp16() ? store.page_elems() : 0, fallback);
    // scores = q_r K^T, page by page, over each row's visible prefix
    for (int64_t pi = 0; pi < pages; ++pi) {
      const int64_t j0 = pi * pg;
      const runtime::KvPage page = store.read_page(
          lane, slot, pi, total, scratch.data(), runtime::KvStore::kKeys);
      for (int64_t r = 0; r < t; ++r) {
        const int64_t n = std::min(page.rows, extent(r) - j0);
        for (int64_t hh = h0; hh < h1 && n > 0; ++hh) {
          kernels::vecmat(n, dk, qkvp + r * h3 + hh * dk,
                          page.k + hh * dk * pg, pg,
                          probsp + (hh * t + r) * total + j0, false);
        }
      }
    }
    for (int64_t hh = h0; hh < h1; ++hh) {
      for (int64_t r = 0; r < t; ++r) {
        kernels::softmax_row(probsp + (hh * t + r) * total, extent(r), scale);
      }
    }
    // context = probs V, page by page; page 0 opens every row's sum
    for (int64_t pi = 0; pi < pages; ++pi) {
      const int64_t j0 = pi * pg;
      const runtime::KvPage page = store.read_page(
          lane, slot, pi, total, scratch.data(), runtime::KvStore::kValues);
      for (int64_t r = 0; r < t; ++r) {
        const int64_t n = std::min(page.rows, extent(r) - j0);
        for (int64_t hh = h0; hh < h1 && n > 0; ++hh) {
          kernels::vecmat(dk, n, probsp + (hh * t + r) * total + j0,
                          page.v + hh * dk, hidden,
                          ctxp + r * hidden + hh * dk, pi > 0);
        }
      }
    }
  });
  return ctx;
}

int64_t MultiHeadAttention::slot_bytes() const {
  int64_t bytes = 0;
  for (const auto& [s, kv] : kv_) {
    bytes += kv.k.bytes() + kv.v.bytes();
    bytes += static_cast<int64_t>((kv.k16.size() + kv.v16.size()) *
                                  sizeof(uint16_t));
  }
  return bytes;
}

void MultiHeadAttention::set_kv_fp16(bool on) {
  if (on != kv_fp16_ && !kv_.empty()) {
    throw std::logic_error(name_ +
                           ": set_kv_fp16 while decode streams are in flight");
  }
  kv_fp16_ = on;
}

void MultiHeadAttention::set_kv_capacity(int64_t tokens) {
  kv_capacity_ = tokens;
}

void MultiHeadAttention::set_kv_store(runtime::KvStore* store) {
  if (!kv_.empty()) {
    throw std::logic_error(
        name_ + ": set_kv_store while decode streams are in flight");
  }
  store_ = store;
  lane_ = store != nullptr ? store->register_lane() : -1;
}

void MultiHeadAttention::collect_params(std::vector<Param*>& out) {
  qkv_proj_.collect_params(out);
  out_proj_.collect_params(out);
}

void MultiHeadAttention::drop_cache(int mb) {
  qkv_proj_.drop_cache(mb);
  out_proj_.drop_cache(mb);
  cache_.erase(mb);
}

int64_t MultiHeadAttention::cached_bytes() const {
  int64_t bytes = qkv_proj_.cached_bytes() + out_proj_.cached_bytes();
  for (const auto& [k, sv] : cache_) {
    bytes += sv.qkv.bytes() + sv.probs.bytes() + sv.ctx.bytes();
  }
  return bytes;
}

}  // namespace hanayo::model
