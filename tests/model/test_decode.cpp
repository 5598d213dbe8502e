// KV-cache incremental decode vs full-prefix recompute.
//
// The deterministic ascending-k kernels make the strong claim testable:
// decoding token-by-token through a KV cache produces *bit-identical*
// logits to recomputing the whole prefix from scratch each step. These are
// the model-layer guarantees the serving runtime's cross-backend token
// equality rests on.

#include <gtest/gtest.h>

#include <cmath>
#include <stdexcept>
#include <vector>

#include "model/partition.hpp"
#include "model/transformer.hpp"
#include "runtime/kv_store.hpp"
#include "tensor/rng.hpp"

using namespace hanayo;
using model::ModelConfig;
using model::StageModule;
using tensor::Rng;
using tensor::Tensor;

namespace {

const ModelConfig kTiny = ModelConfig::tiny(/*layers=*/4, /*hidden=*/32,
                                            /*heads=*/2, /*vocab=*/53,
                                            /*seq=*/24);

/// The serving benchmark's attention shape: head dim 16 (hidden 64 over 4
/// heads), decoded through 16-token pages.
const ModelConfig kBenchShape = ModelConfig::tiny(/*layers=*/2, /*hidden=*/64,
                                                  /*heads=*/4, /*vocab=*/53,
                                                  /*seq=*/48);

StageModule full_module(const ModelConfig& cfg, uint64_t seed = 99) {
  const auto descs = cfg.layer_descs();
  return StageModule(descs, 0, static_cast<int>(descs.size()), seed,
                     cfg.init_std);
}

Tensor ids_tensor(const std::vector<int64_t>& ids) {
  Tensor t({1, static_cast<int64_t>(ids.size())});
  for (size_t i = 0; i < ids.size(); ++i) {
    t[static_cast<int64_t>(i)] = static_cast<float>(ids[i]);
  }
  return t;
}

/// Page sizes every bitwise decode test runs: 4 and 5 sit below the SIMD
/// width (5 is no multiple of it either), so the scores run the scalar
/// tail; 16 is the benchmark's page.
struct PagedCase {
  const ModelConfig* cfg;
  int page_tokens;
};
const PagedCase kPagedCases[] = {{&kTiny, 4}, {&kTiny, 5}, {&kBenchShape, 16}};

runtime::KvStoreConfig store_cfg(const ModelConfig& cfg, bool fp16,
                                 int page_tokens, bool prefix_cache) {
  runtime::KvStoreConfig kc;
  kc.page_tokens = page_tokens;
  kc.pool_pages = 64;
  kc.row_elems = cfg.hidden;
  kc.max_slots = 8;
  kc.fp16 = fp16;
  kc.prefix_cache = prefix_cache;
  return kc;
}

/// A full-model module decoding through its own KV store. With the prefix
/// cache off (the default) every slot's pages are private — the KV the
/// sequential reference engines decode through.
struct Decoder {
  explicit Decoder(const ModelConfig& cfg, bool fp16 = false,
                   int page_tokens = 4, bool prefix_cache = false)
      : seq(cfg.seq),
        module(full_module(cfg)),
        store(store_cfg(cfg, fp16, page_tokens, prefix_cache)) {
    module.set_kv_store(&store);
  }

  /// Starts a fresh stream on `slot` (dropping whatever it held), with
  /// room for the model's full context.
  void open(int slot = 0) {
    store.drop_slot(slot);
    ASSERT_TRUE(store.open_slot(slot, {}, seq, nullptr));
  }

  Tensor decode(const Tensor& x, int64_t pos0, int slot = 0) {
    return module.decode(x, pos0, slot);
  }

  /// Full-prefix recompute: `ids` in one call on a fresh slot-0 stream.
  Tensor recompute(const std::vector<int64_t>& ids) {
    open();
    return decode(ids_tensor(ids), 0);
  }

  int64_t seq;
  StageModule module;
  runtime::KvStore store;
};

}  // namespace

TEST(Decode, KvCacheMatchesFullPrefixRecomputeBitwise) {
  Decoder inc(kTiny);  // decodes incrementally, slot 0
  Decoder ref(kTiny);  // recomputes the prefix each step

  Rng rng(5);
  std::vector<int64_t> seq;
  for (int i = 0; i < 6; ++i) seq.push_back(rng.index(kTiny.vocab));

  // Prefill the incremental module with the prompt.
  inc.open();
  Tensor y_inc = inc.decode(ids_tensor(seq), /*pos0=*/0, /*slot=*/0);

  for (int step = 0; step < 8; ++step) {
    // Ground truth: fresh slot, whole prefix in one call.
    Tensor y_ref = ref.recompute(seq);

    const int64_t t = y_ref.size(1), V = y_ref.size(2);
    const float* row_ref = y_ref.data() + (t - 1) * V;
    const float* row_inc = y_inc.data() + (y_inc.size(1) - 1) * V;
    for (int64_t v = 0; v < V; ++v) {
      ASSERT_EQ(row_ref[v], row_inc[v])
          << "step " << step << " logit " << v << " diverged";
    }

    // Greedy-extend both with the agreed argmax.
    int64_t best = 0;
    for (int64_t v = 1; v < V; ++v) {
      if (row_ref[v] > row_ref[best]) best = v;
    }
    seq.push_back(best);
    Tensor one({1, 1});
    one[0] = static_cast<float>(best);
    y_inc = inc.decode(one, static_cast<int64_t>(seq.size()) - 1, 0);
  }
}

TEST(Decode, ForwardInferMatchesTrainingForward) {
  // The inference path computes the same function as the training forward
  // on every row (floats compare equal; only saved-for-backward state
  // differs): a prefill through private pages of any size, for a one-token
  // prompt, a mid-page one and the full positional table.
  for (const PagedCase& c : kPagedCases) {
    const ModelConfig& cfg = *c.cfg;
    for (const int64_t len : {int64_t{1}, int64_t{7}, cfg.seq}) {
      SCOPED_TRACE("page_tokens " + std::to_string(c.page_tokens) +
                   ", hidden " + std::to_string(cfg.hidden) + ", prompt " +
                   std::to_string(len));
      StageModule train = full_module(cfg);
      Decoder infer(cfg, /*fp16=*/false, c.page_tokens);

      Rng rng(11);
      std::vector<int64_t> seq;
      for (int64_t i = 0; i < len; ++i) seq.push_back(rng.index(cfg.vocab));
      Tensor x = ids_tensor(seq);

      Tensor y_train = train.forward(x, /*mb=*/0);
      Tensor y_infer = infer.recompute(seq);
      ASSERT_EQ(y_train.shape(), y_infer.shape());
      for (int64_t i = 0; i < y_train.numel(); ++i) {
        ASSERT_EQ(y_train[i], y_infer[i]) << "element " << i;
      }
      // Training cached activations; inference cached only KV rows.
      EXPECT_GT(train.cached_bytes(), 0);
      EXPECT_EQ(infer.module.cached_bytes(), 0);
      EXPECT_GT(infer.store.slot_ref_bytes(), 0);
    }
  }
}

TEST(Decode, SlotsAreIndependentStreams) {
  Decoder m(kTiny);
  Rng rng(7);
  std::vector<int64_t> a, b;
  for (int i = 0; i < 5; ++i) a.push_back(rng.index(kTiny.vocab));
  for (int i = 0; i < 3; ++i) b.push_back(rng.index(kTiny.vocab));

  // Interleave two streams through different slots.
  m.open(3);
  m.open(5);
  Tensor ya = m.decode(ids_tensor(a), 0, /*slot=*/3);
  Tensor yb = m.decode(ids_tensor(b), 0, /*slot=*/5);

  // A fresh module decoding only stream b agrees bitwise.
  Decoder solo(kTiny);
  Tensor yb_solo = solo.recompute(b);
  for (int64_t i = 0; i < yb.numel(); ++i) ASSERT_EQ(yb[i], yb_solo[i]);

  // Dropping one slot frees its KV bytes but not the other's.
  const int64_t both = m.store.slot_ref_bytes();
  m.store.drop_slot(3);
  const int64_t only_b = m.store.slot_ref_bytes();
  EXPECT_LT(only_b, both);
  EXPECT_GT(only_b, 0);
  m.store.drop_slot(5);
  EXPECT_EQ(m.store.slot_ref_bytes(), 0);
}

TEST(Decode, OutOfOrderDecodeThrows) {
  Decoder m(kTiny);
  (void)m.recompute({1, 2, 3});
  Tensor one({1, 1});
  one[0] = 4.0f;
  // Cached length is 3; feeding pos0=5 would skip positions.
  EXPECT_THROW(m.decode(one, 5, 0), std::logic_error);
}

TEST(Decode, PastPositionalTableThrows) {
  Decoder m(kTiny);
  m.open();
  std::vector<int64_t> seq(static_cast<size_t>(kTiny.seq) + 1, 1);
  EXPECT_THROW(m.decode(ids_tensor(seq), 0, 0), std::invalid_argument);
}

TEST(Decode, DecodeWithoutKvStoreThrows) {
  // The store is the only KV storage: an attention stage with none
  // attached refuses to decode instead of caching somewhere else.
  StageModule m = full_module(kTiny);
  EXPECT_THROW(m.decode(ids_tensor({1, 2, 3}), 0, 0), std::logic_error);
}

TEST(Decode, WorksAcrossPartitionedStages) {
  // Chaining stage modules (as pipeline workers do) equals the monolithic
  // module bitwise, prefill and decode alike.
  // The chained stages share one store, each layer its own lane, as a
  // replica's pipeline workers do.
  const auto descs = kTiny.layer_descs();
  const auto ranges = model::partition_layers(descs, 3, kTiny.seq);
  runtime::KvStore store(store_cfg(kTiny, /*fp16=*/false, /*page_tokens=*/4,
                                   /*prefix_cache=*/false));
  std::vector<StageModule> stages;
  for (const auto& r : ranges) {
    stages.emplace_back(descs, r.begin, r.end, /*seed=*/99, kTiny.init_std);
    stages.back().set_kv_store(&store);
  }
  ASSERT_TRUE(store.open_slot(0, {}, kTiny.seq, nullptr));
  Decoder mono(kTiny);

  Rng rng(3);
  std::vector<int64_t> seq;
  for (int i = 0; i < 4; ++i) seq.push_back(rng.index(kTiny.vocab));

  Tensor h = ids_tensor(seq);
  for (auto& st : stages) h = st.decode(h, 0, 0);
  Tensor h_mono = mono.recompute(seq);
  for (int64_t i = 0; i < h.numel(); ++i) ASSERT_EQ(h[i], h_mono[i]);

  // One decode step through the chain.
  const int64_t V = h.size(2);
  const float* row = h.data() + (h.size(1) - 1) * V;
  int64_t best = 0;
  for (int64_t v = 1; v < V; ++v) {
    if (row[v] > row[best]) best = v;
  }
  Tensor one({1, 1});
  one[0] = static_cast<float>(best);
  Tensor d = one;
  for (auto& st : stages) d = st.decode(d, 4, 0);

  seq.push_back(best);
  Tensor full = mono.recompute(seq);
  const float* last_full = full.data() + (full.size(1) - 1) * V;
  const float* last_inc = d.data();
  for (int64_t v = 0; v < V; ++v) ASSERT_EQ(last_full[v], last_inc[v]);
}

// ---- Half-precision KV pages (InferConfig::kv_fp16) ----------------------

TEST(Decode, Fp16KvHalvesSlotBytes) {
  Decoder f32(kTiny);
  Decoder f16(kTiny, /*fp16=*/true);

  Rng rng(5);
  std::vector<int64_t> seq;
  for (int i = 0; i < 16; ++i) seq.push_back(rng.index(kTiny.vocab));
  (void)f32.recompute(seq);
  (void)f16.recompute(seq);

  // 16 rows fill four 4-token pages exactly, so the page bytes are the
  // exact row bytes: 2 bytes per cached element instead of 4.
  const auto descs = kTiny.layer_descs();
  int64_t exact16 = 0;
  for (const auto& d : descs) {
    if (d.type == model::LayerDesc::Type::Block) {
      exact16 += 2 * 16 * kTiny.hidden * 2;  // K and V, 16 rows, 2 bytes
    }
  }
  EXPECT_EQ(f16.store.slot_ref_bytes(), exact16);
  EXPECT_GE(f32.store.slot_ref_bytes(), 2 * exact16);

  f16.store.drop_slot(0);
  EXPECT_EQ(f16.store.slot_ref_bytes(), 0);
}

TEST(Decode, Fp16KvDecodeWithinHalfPrecisionOfFp32) {
  Decoder f32(kTiny);
  Decoder f16(kTiny, /*fp16=*/true);

  Rng rng(5);
  std::vector<int64_t> seq;
  for (int i = 0; i < 6; ++i) seq.push_back(rng.index(kTiny.vocab));

  Tensor ya = f32.recompute(seq);
  Tensor yb = f16.recompute(seq);
  ASSERT_EQ(ya.shape(), yb.shape());

  // Greedy-extend the fp32 stream for a few steps and compare logits at a
  // tolerance: quantizing K/V rows perturbs each attention score by
  // O(kHalfEps), so the final-row logits must track within a loose relative
  // band of the logit scale — not bitwise.
  for (int step = 0; step < 6; ++step) {
    const int64_t t = ya.size(1), V = ya.size(2);
    const float* ra = ya.data() + (t - 1) * V;
    const float* rb = yb.data() + (yb.size(1) - 1) * V;
    float scale = 1e-3f;
    for (int64_t v = 0; v < V; ++v) scale = std::max(scale, std::abs(ra[v]));
    for (int64_t v = 0; v < V; ++v) {
      EXPECT_NEAR(ra[v], rb[v], 0.02f * scale)
          << "step " << step << " logit " << v;
    }
    int64_t best = 0;
    for (int64_t v = 1; v < V; ++v) {
      if (ra[v] > ra[best]) best = v;
    }
    seq.push_back(best);
    Tensor one({1, 1});
    one[0] = static_cast<float>(best);
    const int64_t pos = static_cast<int64_t>(seq.size()) - 1;
    ya = f32.decode(one, pos);
    yb = f16.decode(one, pos);
  }
}

TEST(Decode, Fp16KvIncrementalMatchesFp16FullPrefixBitwise) {
  // The exactness guarantee survives quantization: K/V rows quantize once,
  // whichever call produced them, so fp16 incremental decode still equals
  // fp16 full-prefix recompute bit-for-bit (this is what keeps Threads and
  // Reference token-identical under kv_fp16).
  Decoder inc(kTiny, /*fp16=*/true);
  Decoder ref(kTiny, /*fp16=*/true);

  Rng rng(5);
  std::vector<int64_t> seq;
  for (int i = 0; i < 5; ++i) seq.push_back(rng.index(kTiny.vocab));
  Tensor y_inc = inc.recompute(seq);

  for (int step = 0; step < 5; ++step) {
    Tensor y_ref = ref.recompute(seq);
    const int64_t t = y_ref.size(1), V = y_ref.size(2);
    const float* rr = y_ref.data() + (t - 1) * V;
    const float* ri = y_inc.data() + (y_inc.size(1) - 1) * V;
    for (int64_t v = 0; v < V; ++v) {
      ASSERT_EQ(rr[v], ri[v]) << "step " << step << " logit " << v;
    }
    int64_t best = 0;
    for (int64_t v = 1; v < V; ++v) {
      if (rr[v] > rr[best]) best = v;
    }
    seq.push_back(best);
    Tensor one({1, 1});
    one[0] = static_cast<float>(best);
    y_inc = inc.decode(one, static_cast<int64_t>(seq.size()) - 1);
  }
}

// ---- Incremental ≡ full-prefix recompute, every page size ----------------

namespace {

/// The correctness anchor: incremental decode through pooled pages (prefix
/// cache on, as a serving replica runs) must stay bitwise identical to a
/// full-prefix recompute through private pages. Attention reads the pages
/// in place with per-row extents, and fp16 rows quantize once, whichever
/// call produced them — so fp16 incremental decode still equals fp16
/// recompute bit-for-bit (what keeps Threads and Reference token-identical
/// under kv_fp16).
void expect_paged_matches_recompute(const ModelConfig& cfg, int page_tokens,
                                    bool fp16) {
  SCOPED_TRACE("page_tokens " + std::to_string(page_tokens) + ", hidden " +
               std::to_string(cfg.hidden));
  // Decodes incrementally, through a store with the prefix cache on.
  Decoder inc(cfg, fp16, page_tokens, /*prefix_cache=*/true);
  Decoder ref(cfg, fp16, page_tokens);  // recomputes each step

  Rng rng(5);
  std::vector<int64_t> seq;
  for (int i = 0; i < 6; ++i) seq.push_back(rng.index(cfg.vocab));

  // Decode to one short of the positional table: several pages deep.
  const int kSteps = static_cast<int>(cfg.seq) - 7;
  int64_t shared = -1;
  ASSERT_TRUE(inc.store.open_slot(/*slot=*/0, seq,
                                  static_cast<int64_t>(seq.size()) + kSteps,
                                  &shared));
  EXPECT_EQ(shared, 0);  // cold cache: the full prompt prefills
  Tensor y_inc = inc.decode(ids_tensor(seq), /*pos0=*/0, /*slot=*/0);

  for (int step = 0; step < kSteps; ++step) {
    Tensor y_ref = ref.recompute(seq);
    const int64_t t = y_ref.size(1), V = y_ref.size(2);
    const float* row_ref = y_ref.data() + (t - 1) * V;
    const float* row_inc = y_inc.data() + (y_inc.size(1) - 1) * V;
    for (int64_t v = 0; v < V; ++v) {
      ASSERT_EQ(row_ref[v], row_inc[v])
          << (fp16 ? "fp16" : "fp32") << " step " << step << " logit " << v;
    }
    int64_t best = 0;
    for (int64_t v = 1; v < V; ++v) {
      if (row_ref[v] > row_ref[best]) best = v;
    }
    seq.push_back(best);
    Tensor one({1, 1});
    one[0] = static_cast<float>(best);
    y_inc = inc.decode(one, static_cast<int64_t>(seq.size()) - 1, 0);
  }
  EXPECT_EQ(inc.store.lane_len(0, 0), static_cast<int64_t>(seq.size()));
  inc.store.drop_slot(0);
  EXPECT_EQ(inc.store.pages_in_use(), 0);  // nothing published, no leak
}

}  // namespace

TEST(Decode, PagedKvMatchesFullPrefixRecomputeBitwise) {
  for (const PagedCase& c : kPagedCases) {
    expect_paged_matches_recompute(*c.cfg, c.page_tokens, /*fp16=*/false);
  }
}

TEST(Decode, PagedFp16KvMatchesFp16FullPrefixRecomputeBitwise) {
  for (const PagedCase& c : kPagedCases) {
    expect_paged_matches_recompute(*c.cfg, c.page_tokens, /*fp16=*/true);
  }
}

namespace {

/// Two prompts with a common head through one store: the second adopts
/// the first's published pages and skips their prefill, yet its logits
/// equal an unshared full prefill through private pages bit-for-bit — K/V
/// rows at a position depend only on the token prefix, so adopted rows ARE
/// the rows the skipped prefill would have produced. The adopted tail page
/// is shared, so the first append copies it (copy-on-write); decode then
/// continues token by token, each step checked against a full-prefix
/// recompute.
void expect_shared_prefix_decode(int page_tokens, bool fp16,
                                 const std::vector<int64_t>& b_suffix) {
  SCOPED_TRACE("page_tokens " + std::to_string(page_tokens) +
               (fp16 ? ", fp16" : ", fp32") + ", suffix " +
               std::to_string(b_suffix.size()));
  Decoder paged(kTiny, fp16, page_tokens, /*prefix_cache=*/true);
  Decoder plain(kTiny, fp16, page_tokens);
  runtime::KvStore& store = paged.store;

  const std::vector<int64_t> head = {7, 3, 11, 5, 2, 9};  // shared system head
  std::vector<int64_t> a = head, b = head;
  a.insert(a.end(), {13, 4});
  b.insert(b.end(), b_suffix.begin(), b_suffix.end());
  const int kSteps = 6;

  ASSERT_TRUE(store.open_slot(0, a, static_cast<int64_t>(a.size()) + 1,
                              nullptr));
  (void)paged.decode(ids_tensor(a), 0, 0);
  store.publish(0, a);
  store.drop_slot(0);

  int64_t shared = -1;
  ASSERT_TRUE(store.open_slot(1, b,
                              static_cast<int64_t>(b.size()) + kSteps,
                              &shared));
  EXPECT_EQ(shared, static_cast<int64_t>(head.size()));
  EXPECT_EQ(store.prefix_hit_tokens(), static_cast<int64_t>(head.size()));
  // Prefill only the unshared suffix, positions [shared, b.size()).
  std::vector<int64_t> tail(b.begin() + shared, b.end());
  Tensor y_shared = paged.decode(ids_tensor(tail), shared, 1);

  for (int step = 0; step <= kSteps; ++step) {
    Tensor y_plain = plain.recompute(b);
    const int64_t V = y_plain.size(2);
    const float* row_s = y_shared.data() + (y_shared.size(1) - 1) * V;
    const float* row_p = y_plain.data() + (y_plain.size(1) - 1) * V;
    for (int64_t v = 0; v < V; ++v) {
      ASSERT_EQ(row_s[v], row_p[v]) << "step " << step << " logit " << v;
    }
    if (step == kSteps) break;
    int64_t best = 0;
    for (int64_t v = 1; v < V; ++v) {
      if (row_p[v] > row_p[best]) best = v;
    }
    b.push_back(best);
    y_shared = paged.decode(ids_tensor({best}),
                            static_cast<int64_t>(b.size()) - 1, 1);
  }
  store.drop_slot(1);
  store.clear_prefix_cache();
  EXPECT_EQ(store.pages_in_use(), 0);
}

}  // namespace

TEST(Decode, PagedSharedPrefixDecodesBitwiseIdenticalToUnshared) {
  expect_shared_prefix_decode(4, /*fp16=*/false, {1, 8});
  // A one-token suffix: the adopted tail page is copied by a decode-shaped
  // (t = 1) call at a mid-page offset, then decode continues in the copy.
  expect_shared_prefix_decode(4, /*fp16=*/false, {1});
  expect_shared_prefix_decode(5, /*fp16=*/false, {1});
  expect_shared_prefix_decode(16, /*fp16=*/false, {1});
  expect_shared_prefix_decode(5, /*fp16=*/true, {1});
}

TEST(Decode, PagedDecodeRejectsBatchesAndOutOfOrderPositions) {
  Decoder m(kTiny);
  m.open();
  Tensor two({2, 3});  // decode streams are batch-1 by contract
  EXPECT_THROW(m.decode(two, 0, 0), std::invalid_argument);
  (void)m.decode(ids_tensor({1, 2, 3}), 0, 0);
  Tensor one({1, 1});
  one[0] = 4.0f;
  EXPECT_THROW(m.decode(one, 5, 0), std::logic_error);  // skips position 3
  m.store.drop_slot(0);
}
