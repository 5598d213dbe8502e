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

}  // namespace

TEST(Decode, KvCacheMatchesFullPrefixRecomputeBitwise) {
  StageModule inc = full_module(kTiny);    // decodes incrementally, slot 0
  StageModule ref = full_module(kTiny);    // recomputes the prefix each step

  Rng rng(5);
  std::vector<int64_t> seq;
  for (int i = 0; i < 6; ++i) seq.push_back(rng.index(kTiny.vocab));

  // Prefill the incremental module with the prompt.
  Tensor prompt = ids_tensor(seq);
  Tensor y_inc = inc.decode(prompt, /*pos0=*/0, /*slot=*/0);

  for (int step = 0; step < 8; ++step) {
    // Ground truth: fresh slot, whole prefix in one call.
    ref.drop_slot(0);
    Tensor y_ref = ref.decode(ids_tensor(seq), 0, 0);

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
  // (floats compare equal; only saved-for-backward state differs).
  StageModule train = full_module(kTiny);
  StageModule infer = full_module(kTiny);

  Rng rng(11);
  std::vector<int64_t> seq;
  for (int i = 0; i < 10; ++i) seq.push_back(rng.index(kTiny.vocab));
  Tensor x = ids_tensor(seq);

  Tensor y_train = train.forward(x, /*mb=*/0);
  Tensor y_infer = infer.decode(x, 0, 0);
  ASSERT_EQ(y_train.shape(), y_infer.shape());
  for (int64_t i = 0; i < y_train.numel(); ++i) {
    ASSERT_EQ(y_train[i], y_infer[i]) << "element " << i;
  }
  // Training cached activations; inference cached only KV rows.
  EXPECT_GT(train.cached_bytes(), 0);
  EXPECT_EQ(infer.cached_bytes(), 0);
  EXPECT_GT(infer.slot_bytes(), 0);
}

TEST(Decode, SlotsAreIndependentStreams) {
  StageModule m = full_module(kTiny);
  Rng rng(7);
  std::vector<int64_t> a, b;
  for (int i = 0; i < 5; ++i) a.push_back(rng.index(kTiny.vocab));
  for (int i = 0; i < 3; ++i) b.push_back(rng.index(kTiny.vocab));

  // Interleave two streams through different slots.
  Tensor ya = m.decode(ids_tensor(a), 0, /*slot=*/3);
  Tensor yb = m.decode(ids_tensor(b), 0, /*slot=*/5);

  // A fresh module decoding only stream b agrees bitwise.
  StageModule solo = full_module(kTiny);
  Tensor yb_solo = solo.decode(ids_tensor(b), 0, 0);
  for (int64_t i = 0; i < yb.numel(); ++i) ASSERT_EQ(yb[i], yb_solo[i]);

  // Dropping one slot frees its KV bytes but not the other's.
  const int64_t both = m.slot_bytes();
  m.drop_slot(3);
  const int64_t only_b = m.slot_bytes();
  EXPECT_LT(only_b, both);
  EXPECT_GT(only_b, 0);
  m.drop_slot(5);
  EXPECT_EQ(m.slot_bytes(), 0);
}

TEST(Decode, OutOfOrderDecodeThrows) {
  StageModule m = full_module(kTiny);
  Tensor prompt = ids_tensor({1, 2, 3});
  m.decode(prompt, 0, 0);
  Tensor one({1, 1});
  one[0] = 4.0f;
  // Cached length is 3; feeding pos0=5 would skip positions.
  EXPECT_THROW(m.decode(one, 5, 0), std::logic_error);
}

TEST(Decode, PastPositionalTableThrows) {
  StageModule m = full_module(kTiny);
  std::vector<int64_t> seq(static_cast<size_t>(kTiny.seq) + 1, 1);
  EXPECT_THROW(m.decode(ids_tensor(seq), 0, 0), std::invalid_argument);
}

TEST(Decode, WorksAcrossPartitionedStages) {
  // Chaining stage modules (as pipeline workers do) equals the monolithic
  // module bitwise, prefill and decode alike.
  const auto descs = kTiny.layer_descs();
  const auto ranges = model::partition_layers(descs, 3, kTiny.seq);
  std::vector<StageModule> stages;
  for (const auto& r : ranges) {
    stages.emplace_back(descs, r.begin, r.end, /*seed=*/99, kTiny.init_std);
  }
  StageModule mono = full_module(kTiny);

  Rng rng(3);
  std::vector<int64_t> seq;
  for (int i = 0; i < 4; ++i) seq.push_back(rng.index(kTiny.vocab));

  Tensor h = ids_tensor(seq);
  for (auto& st : stages) h = st.decode(h, 0, 0);
  Tensor h_mono = mono.decode(ids_tensor(seq), 0, 0);
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
  mono.drop_slot(0);
  Tensor full = mono.decode(ids_tensor(seq), 0, 0);
  const float* last_full = full.data() + (full.size(1) - 1) * V;
  const float* last_inc = d.data();
  for (int64_t v = 0; v < V; ++v) ASSERT_EQ(last_full[v], last_inc[v]);
}

// ---- Half-precision KV-cache storage (InferConfig::kv_fp16) --------------

TEST(Decode, Fp16KvHalvesSlotBytes) {
  StageModule f32 = full_module(kTiny);
  StageModule f16 = full_module(kTiny);
  f16.set_kv_fp16(true);

  Rng rng(5);
  std::vector<int64_t> seq;
  for (int i = 0; i < 16; ++i) seq.push_back(rng.index(kTiny.vocab));
  (void)f32.decode(ids_tensor(seq), 0, 0);
  (void)f16.decode(ids_tensor(seq), 0, 0);

  // fp32 slots grow capacity in powers of two, fp16 slots resize exactly,
  // so compare against the exact row count, not the fp32 capacity: 2 bytes
  // per cached element instead of 4.
  const auto descs = kTiny.layer_descs();
  int64_t exact16 = 0;
  for (const auto& d : descs) {
    if (d.type == model::LayerDesc::Type::Block) {
      exact16 += 2 * 16 * kTiny.hidden * 2;  // K and V, 16 rows, 2 bytes
    }
  }
  EXPECT_EQ(f16.slot_bytes(), exact16);
  EXPECT_GE(f32.slot_bytes(), 2 * exact16);

  f16.drop_slot(0);
  EXPECT_EQ(f16.slot_bytes(), 0);
}

TEST(Decode, Fp16KvDecodeWithinHalfPrecisionOfFp32) {
  StageModule f32 = full_module(kTiny);
  StageModule f16 = full_module(kTiny);
  f16.set_kv_fp16(true);

  Rng rng(5);
  std::vector<int64_t> seq;
  for (int i = 0; i < 6; ++i) seq.push_back(rng.index(kTiny.vocab));

  Tensor ya = f32.decode(ids_tensor(seq), 0, 0);
  Tensor yb = f16.decode(ids_tensor(seq), 0, 0);
  ASSERT_EQ(ya.shape(), yb.shape());

  // Greedy-extend the fp32 stream for a few steps and compare logits at a
  // tolerance: quantizing K/V panels perturbs each attention score by
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
    ya = f32.decode(one, pos, 0);
    yb = f16.decode(one, pos, 0);
  }
}

TEST(Decode, Fp16KvIncrementalMatchesFp16FullPrefixBitwise) {
  // The exactness guarantee survives quantization: K/V rows quantize once,
  // whichever call produced them, so fp16 incremental decode still equals
  // fp16 full-prefix recompute bit-for-bit (this is what keeps Threads and
  // Reference token-identical under kv_fp16).
  StageModule inc = full_module(kTiny);
  StageModule ref = full_module(kTiny);
  inc.set_kv_fp16(true);
  ref.set_kv_fp16(true);

  Rng rng(5);
  std::vector<int64_t> seq;
  for (int i = 0; i < 5; ++i) seq.push_back(rng.index(kTiny.vocab));
  Tensor y_inc = inc.decode(ids_tensor(seq), 0, 0);

  for (int step = 0; step < 5; ++step) {
    ref.drop_slot(0);
    Tensor y_ref = ref.decode(ids_tensor(seq), 0, 0);
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
    y_inc = inc.decode(one, static_cast<int64_t>(seq.size()) - 1, 0);
  }
}

TEST(Decode, Fp16KvToggleWithStreamsInFlightThrows) {
  StageModule m = full_module(kTiny);
  Rng rng(5);
  std::vector<int64_t> seq = {1, 2, 3};
  (void)m.decode(ids_tensor(seq), 0, 0);
  EXPECT_THROW(m.set_kv_fp16(true), std::logic_error);
  m.drop_slot(0);
  EXPECT_NO_THROW(m.set_kv_fp16(true));
}

// ---- Paged KV storage (runtime::KvStore through model/attention) ---------

namespace {

/// The serving benchmark's attention shape: head dim 16 (hidden 64 over 4
/// heads), decoded through 16-token pages.
const ModelConfig kBenchShape = ModelConfig::tiny(/*layers=*/2, /*hidden=*/64,
                                                  /*heads=*/4, /*vocab=*/53,
                                                  /*seq=*/48);

runtime::KvStoreConfig paged_cfg(const ModelConfig& cfg, bool fp16,
                                 int page_tokens = 4) {
  runtime::KvStoreConfig kc;
  kc.page_tokens = page_tokens;  // small pages: every stream spans several
  kc.pool_pages = 64;
  kc.row_elems = cfg.hidden;
  kc.max_slots = 4;
  kc.fp16 = fp16;
  kc.prefix_cache = true;
  return kc;
}

/// Page sizes every paged bitwise test runs: 4 and 5 sit below the SIMD
/// width (5 is no multiple of it either), so the scores run the scalar
/// tail; 16 is the benchmark's page.
struct PagedCase {
  const ModelConfig* cfg;
  int page_tokens;
};
const PagedCase kPagedCases[] = {{&kTiny, 4}, {&kTiny, 5}, {&kBenchShape, 16}};

/// The correctness anchor, paged: incremental decode through pooled pages
/// must stay bitwise identical to a full-prefix recompute on a plain
/// contiguous-cache module. Attention reads the pages in place in the
/// contiguous kernels' per-element order, and fp16 pages go through the
/// same quantize-once/dequantize pair as the contiguous fp16 cache.
void expect_paged_matches_recompute(const ModelConfig& cfg, int page_tokens,
                                    bool fp16) {
  SCOPED_TRACE("page_tokens " + std::to_string(page_tokens) + ", hidden " +
               std::to_string(cfg.hidden));
  StageModule inc = full_module(cfg);  // paged, decodes incrementally
  StageModule ref = full_module(cfg);  // contiguous, recomputes each step
  runtime::KvStore store(paged_cfg(cfg, fp16, page_tokens));
  inc.set_kv_store(&store);
  ref.set_kv_fp16(fp16);

  Rng rng(5);
  std::vector<int64_t> seq;
  for (int i = 0; i < 6; ++i) seq.push_back(rng.index(cfg.vocab));

  // Decode to one short of the positional table: several pages deep.
  const int kSteps = static_cast<int>(cfg.seq) - 7;
  int64_t shared = -1;
  ASSERT_TRUE(store.open_slot(/*slot=*/0, seq,
                              static_cast<int64_t>(seq.size()) + kSteps,
                              &shared));
  EXPECT_EQ(shared, 0);  // cold cache: the full prompt prefills
  Tensor y_inc = inc.decode(ids_tensor(seq), /*pos0=*/0, /*slot=*/0);

  for (int step = 0; step < kSteps; ++step) {
    ref.drop_slot(0);
    Tensor y_ref = ref.decode(ids_tensor(seq), 0, 0);
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
  EXPECT_EQ(store.lane_len(0, 0), static_cast<int64_t>(seq.size()));
  store.drop_slot(0);
  EXPECT_EQ(store.pages_in_use(), 0);  // nothing published, nothing leaks
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
/// equal an unshared full prefill bit-for-bit — K/V rows at a position
/// depend only on the token prefix, so adopted rows ARE the rows the
/// skipped prefill would have produced. The adopted tail page is shared,
/// so the first append copies it (copy-on-write); decode then continues
/// token by token, each step checked against a full-prefix recompute.
void expect_shared_prefix_decode(int page_tokens, bool fp16,
                                 const std::vector<int64_t>& b_suffix) {
  SCOPED_TRACE("page_tokens " + std::to_string(page_tokens) +
               (fp16 ? ", fp16" : ", fp32") + ", suffix " +
               std::to_string(b_suffix.size()));
  StageModule paged = full_module(kTiny);
  runtime::KvStore store(paged_cfg(kTiny, fp16, page_tokens));
  paged.set_kv_store(&store);
  StageModule plain = full_module(kTiny);
  plain.set_kv_fp16(fp16);

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
    plain.drop_slot(0);
    Tensor y_plain = plain.decode(ids_tensor(b), 0, 0);
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
  StageModule m = full_module(kTiny);
  runtime::KvStore store(paged_cfg(kTiny, false));
  m.set_kv_store(&store);
  ASSERT_TRUE(store.open_slot(0, {}, 8, nullptr));
  Tensor two({2, 3});  // paged streams are batch-1 by contract
  EXPECT_THROW(m.decode(two, 0, 0), std::invalid_argument);
  (void)m.decode(ids_tensor({1, 2, 3}), 0, 0);
  Tensor one({1, 1});
  one[0] = 4.0f;
  EXPECT_THROW(m.decode(one, 5, 0), std::logic_error);  // skips position 3
  store.drop_slot(0);
}
