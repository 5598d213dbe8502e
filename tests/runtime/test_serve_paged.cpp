// Paged KV serving: the KvStore subsystem wired through admission, prefill
// and decode (runtime/infer.cpp). The contract stacked on top of the
// model-layer guarantees (tests/model/test_decode.cpp):
//
//   * token identity — a server with the prefix cache on decodes exactly
//     the tokens a private-pages server decodes, fp32 and fp16, whatever
//     the batch composition, prefix sharing or replica assignment;
//   * page-priced admission — streams admit on available pages, not
//     worst-case slots: a pool sized for one stream serializes instead of
//     deadlocking, a pool too small for any stream rejects cleanly under
//     QueuePolicy, and the queue cap derives from pool capacity;
//   * shared prompts skip prefill — the second request with a common
//     system prompt adopts the published pages, the saved tokens land in
//     ServeStats, and its tokens are still bitwise-identical;
//   * zero leak — after any drain (cancel storms included), slot-held
//     pages are all released, and clearing the prefix cache returns the
//     pool to pages_in_use() == 0.

#include <gtest/gtest.h>

#include <chrono>
#include <thread>
#include <vector>

#include "common/scale.hpp"
#include "model/transformer.hpp"
#include "runtime/infer.hpp"
#include "tensor/rng.hpp"

using namespace hanayo;
using runtime::Completion;
using runtime::InferConfig;
using runtime::InferenceServer;
using runtime::QueuePolicy;
using runtime::ServeStats;
using runtime::StopReason;
using tensor::Rng;
using tensor::Tensor;

namespace {

const model::ModelConfig kTiny = model::ModelConfig::tiny(
    /*layers=*/6, /*hidden=*/32, /*heads=*/2, /*vocab=*/67, /*seq=*/24);

InferConfig serve_config(int dp, bool prefix_cache, bool fp16 = false) {
  InferConfig cfg;
  cfg.model = kTiny;
  cfg.sched.algo = schedule::Algo::Hanayo;
  cfg.sched.P = 2;
  cfg.sched.waves = 1;
  cfg.dp = dp;
  cfg.max_batch = 3;
  cfg.max_new_tokens = 6;
  cfg.sampling = runtime::Sampling::TopK(8, 0.9f);
  cfg.stop_tokens = {3, 5};
  cfg.seed = 17;
  cfg.kv_fp16 = fp16;
  cfg.prefix_cache = prefix_cache;
  cfg.kv_page_tokens = 8;
  return cfg;
}

std::vector<Tensor> make_prompts(int n, uint64_t seed) {
  Rng rng(seed);
  std::vector<Tensor> prompts;
  for (int r = 0; r < n; ++r) {
    const int64_t plen = 2 + rng.index(7);
    Tensor p({1, plen});
    for (int64_t i = 0; i < plen; ++i) {
      p[i] = static_cast<float>(rng.index(kTiny.vocab));
    }
    prompts.push_back(std::move(p));
  }
  return prompts;
}

std::vector<Completion> serve_all(const InferConfig& cfg,
                                  const std::vector<Tensor>& prompts) {
  InferenceServer server(cfg);
  for (const Tensor& p : prompts) server.enqueue(p);
  auto done = server.drain();
  EXPECT_EQ(server.slot_bytes(), 0);
  const ServeStats st = server.stats();
  EXPECT_EQ(st.terminal(), st.submitted);
  server.clear_prefix_cache();
  EXPECT_EQ(server.pages_in_use(), 0);
  return done;
}

void expect_same_tokens(const std::vector<Completion>& a,
                        const std::vector<Completion>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].id, b[i].id);
    EXPECT_EQ(a[i].tokens, b[i].tokens) << "id " << a[i].id;
    EXPECT_EQ(a[i].stop_reason, b[i].stop_reason);
  }
}

}  // namespace

TEST(ServePaged, TokensMatchPrivatePagesBitwise) {
  // The whole-stack identity check: servers with the prefix cache on and
  // off decode the same tokens for every request, fp32 and fp16, with dp
  // replicas racing over the shared queue.
  const auto prompts = make_prompts(std::max(4, hanayo_test::scaled(10)), 3);
  for (bool fp16 : {false, true}) {
    const auto plain = serve_all(serve_config(2, /*prefix_cache=*/false, fp16),
                                 prompts);
    const auto paged = serve_all(serve_config(2, /*prefix_cache=*/true, fp16),
                                 prompts);
    for (const Completion& c : paged) EXPECT_TRUE(c.served());
    expect_same_tokens(plain, paged);
  }
}

TEST(ServePaged, SharedPrefixSkipsPrefillAndMatchesBitwise) {
  // Chat workload: a 12-token system prompt shared by two requests. The
  // second adopts the first's published pages (12 tokens: one full page
  // plus a 4-token partial match) and skips their prefill — and still
  // decodes exactly what an unshared server decodes.
  const std::vector<int64_t> head = {7, 3, 11, 5, 2, 9, 14, 6, 21, 4, 17, 8};
  auto chat_prompt = [&](std::vector<int64_t> tail) {
    std::vector<int64_t> full = head;
    full.insert(full.end(), tail.begin(), tail.end());
    Tensor p({1, static_cast<int64_t>(full.size())});
    for (size_t i = 0; i < full.size(); ++i) {
      p[static_cast<int64_t>(i)] = static_cast<float>(full[i]);
    }
    return p;
  };
  std::vector<Tensor> prompts;
  prompts.push_back(chat_prompt({13, 4, 22, 10}));
  prompts.push_back(chat_prompt({1, 8, 30, 12}));

  InferConfig plain_cfg = serve_config(1, /*prefix_cache=*/false);
  plain_cfg.max_batch = 1;
  const auto plain = serve_all(plain_cfg, prompts);

  InferConfig cfg = serve_config(1, /*prefix_cache=*/true);
  cfg.max_batch = 1;  // serializes the two streams: publish precedes reuse
  // Roomy pool: a default (one-stream) pool would preempt the cached head
  // to fit the second stream's worst case — here sharing is under test,
  // not pool pressure.
  cfg.kv_pool_pages = 64;
  InferenceServer server(cfg);
  for (const Tensor& p : prompts) server.enqueue(p);
  const auto done = server.drain();
  expect_same_tokens(plain, done);

  const ServeStats st = server.stats();
  EXPECT_EQ(st.prefix_hits, 1);
  EXPECT_EQ(st.prefix_hit_tokens, static_cast<int64_t>(head.size()));
  EXPECT_EQ(st.prompt_tokens, 32);  // the full prompts still count
  EXPECT_GT(st.kv_pages_peak, 0);
  EXPECT_EQ(server.slot_bytes(), 0);
  EXPECT_GT(server.pages_in_use(), 0);  // published pages stay resident
  EXPECT_EQ(st.kv_pages_in_use, server.pages_in_use());
  server.clear_prefix_cache();
  EXPECT_EQ(server.pages_in_use(), 0);
}

TEST(ServePaged, CancelStormLeaksNoPages) {
  // The fault-suite cancel storm, paged: targeted requests abort at pass
  // boundaries while replicas drain; the books balance, survivors decode
  // token-identically to the storm-free paged run, and — the paged leak
  // probe — slot pages all release and the cleared pool reads zero.
  const int n = std::max(6, hanayo_test::scaled(12));
  const auto prompts = make_prompts(n, 23);
  const auto clean = serve_all(serve_config(2, /*prefix_cache=*/true), prompts);

  InferenceServer server(serve_config(2, /*prefix_cache=*/true));
  std::vector<int64_t> ids;
  for (const Tensor& p : prompts) ids.push_back(server.enqueue(p));
  std::thread storm([&] {
    for (size_t i = 0; i < ids.size(); i += 2) {
      server.cancel(ids[i]);
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
  });
  const auto done = server.drain();
  storm.join();

  ASSERT_EQ(done.size(), prompts.size());
  for (size_t i = 0; i < done.size(); ++i) {
    const Completion& c = done[i];
    const Completion& ref = clean[i];
    if (c.stop_reason == StopReason::Cancelled) {
      EXPECT_EQ(i % 2, 0u) << "only targeted ids may cancel";
      ASSERT_LE(c.tokens.size(), ref.tokens.size());
      for (size_t k = 0; k < c.tokens.size(); ++k) {
        EXPECT_EQ(c.tokens[k], ref.tokens[k]);
      }
    } else {
      EXPECT_TRUE(c.served());
      EXPECT_EQ(c.tokens, ref.tokens) << "id " << c.id;
    }
  }
  const ServeStats st = server.stats();
  EXPECT_EQ(st.submitted, n);
  EXPECT_EQ(st.completed + st.cancelled, st.submitted);
  EXPECT_EQ(st.terminal(), st.submitted);
  EXPECT_EQ(server.slot_bytes(), 0);
  server.clear_prefix_cache();
  EXPECT_EQ(server.pages_in_use(), 0);
}

TEST(ServePaged, TinyPoolSerializesStreamsInsteadOfDeadlocking) {
  // A pool sized for exactly one worst-case stream (need = (ceil(13/8)+1)
  // * 6 lanes = 18 pages): admission holds excess requests back and admits
  // them as pages free, so the drain completes with every request served —
  // and the tokens are unchanged (batch composition never shifts sampling
  // streams).
  InferConfig roomy = serve_config(1, /*prefix_cache=*/true);
  InferConfig tiny_pool = roomy;
  tiny_pool.kv_pool_pages = 20;

  const auto prompts = make_prompts(6, 31);
  const auto want = serve_all(roomy, prompts);
  const auto got = serve_all(tiny_pool, prompts);
  for (const Completion& c : got) EXPECT_TRUE(c.served());
  expect_same_tokens(want, got);

  InferenceServer server(tiny_pool);
  for (const Tensor& p : prompts) server.enqueue(p);
  (void)server.drain();
  EXPECT_LE(server.stats().kv_pages_peak, 20);
}

TEST(ServePaged, PoolTooSmallForAnyStreamRejectsCleanly) {
  // No stream can ever be covered: admission evicts, retries, finds the
  // queue head still unservable with nothing active, and sheds it as
  // Rejected — bounded-pool backpressure instead of a livelock.
  InferConfig cfg = serve_config(1, /*prefix_cache=*/true);
  cfg.kv_pool_pages = 6;
  InferenceServer server(cfg);
  const auto prompts = make_prompts(4, 53);
  for (const Tensor& p : prompts) server.enqueue(p);
  const auto done = server.drain();
  ASSERT_EQ(done.size(), prompts.size());
  for (const Completion& c : done) {
    EXPECT_EQ(c.stop_reason, StopReason::Rejected);
    EXPECT_TRUE(c.tokens.empty());
  }
  const ServeStats st = server.stats();
  EXPECT_EQ(st.rejected, 4);
  EXPECT_EQ(st.completed, 0);
  EXPECT_EQ(st.terminal(), st.submitted);
  EXPECT_EQ(server.pages_in_use(), 0);
}

TEST(ServePaged, QueueCapDerivesFromPoolCapacity) {
  // The admission/memory satellite: the derived queue cap prices the page
  // pool's capacity.
  InferConfig cfg = serve_config(2, /*prefix_cache=*/false);
  EXPECT_EQ(runtime::kv_lanes(cfg.model), 6);
  EXPECT_EQ(runtime::derived_queue_cap(cfg), 2 * 3);  // dp * max_batch

  // Default pool: max_batch worst-case streams, each priced at
  // (ceil(24/8) KV pages + 1 COW spare) per lane — so the derived cap
  // is dp * max_batch with the prefix cache on too.
  cfg.prefix_cache = true;
  EXPECT_EQ(runtime::derived_pool_pages(cfg), 3ll * (3 + 1) * 6);
  EXPECT_EQ(runtime::derived_queue_cap(cfg), 2 * 3);

  // A pool covering a single worst-case stream drops the cap to one
  // stream per replica: fit = 20 / ((3 + 1) * 6) = 0, clamped to 1.
  cfg.kv_pool_pages = 20;
  EXPECT_EQ(runtime::derived_queue_cap(cfg), 2 * 1);
  // And the cap never hits zero, however small the pool.
  cfg.kv_pool_pages = 1;
  EXPECT_EQ(runtime::derived_queue_cap(cfg), 2 * 1);
}
