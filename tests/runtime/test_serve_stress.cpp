// Property-style stress of the serving runtime: random request arrival
// order, mixed continuation caps, stop tokens mid-stream, and dp ∈ {1, 2}
// replicas draining one shared queue. The invariants under test:
//
//   * no slot leak — every KV byte is freed once the queue drains;
//   * per-sequence token order is preserved (dp=2 returns exactly the dp=1
//     tokens for every request id, which also proves replica-independence);
//   * ServeStats counters add up — generated_tokens equals the sum of
//     completion lengths, per-replica stats merge into the totals;
//   * stop tokens end sequences at the pass boundary, free the slot for the
//     next queued request, and are recorded with their StopReason.

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <numeric>
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
using runtime::ServeStats;
using runtime::StopReason;
using tensor::Rng;
using tensor::Tensor;

namespace {

const model::ModelConfig kTiny = model::ModelConfig::tiny(
    /*layers=*/6, /*hidden=*/32, /*heads=*/2, /*vocab=*/67, /*seq=*/24);

InferConfig stress_config(int dp) {
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
  return cfg;
}

struct Traffic {
  int64_t plen = 0;
  int want = 0;
  Tensor prompt;
};

/// A deterministic batch of mixed requests in a shuffled arrival order.
std::vector<Traffic> make_traffic(int n, uint64_t seed) {
  Rng rng(seed);
  std::vector<Traffic> reqs;
  for (int r = 0; r < n; ++r) {
    Traffic t;
    t.plen = 2 + rng.index(7);  // 2..8 prompt tokens
    t.want = 1 + static_cast<int>(rng.index(6));  // 1..6 new tokens
    t.prompt = Tensor({1, t.plen});
    for (int64_t i = 0; i < t.plen; ++i) {
      t.prompt[i] = static_cast<float>(rng.index(kTiny.vocab));
    }
    reqs.push_back(std::move(t));
  }
  // Shuffle the arrival order (Fisher-Yates on the deterministic Rng).
  for (int i = n - 1; i > 0; --i) {
    std::swap(reqs[static_cast<size_t>(i)],
              reqs[static_cast<size_t>(rng.index(i + 1))]);
  }
  return reqs;
}

}  // namespace

TEST(ServeStress, RandomTrafficInvariantsAcrossDp) {
  // Sized down under sanitizers (tests/common/scale.hpp): the dp identity
  // holds for any request count, so a shorter run checks the same laws.
  const std::vector<Traffic> reqs =
      make_traffic(std::max(4, hanayo_test::scaled(12)), 99);
  std::vector<std::vector<int64_t>> tokens_by_dp;

  for (int dp : {1, 2}) {
    InferenceServer server(stress_config(dp));
    for (const Traffic& t : reqs) server.enqueue(t.prompt, t.want);
    const std::vector<Completion> done = server.drain();

    // Every request completes, in request-id (enqueue) order.
    ASSERT_EQ(done.size(), reqs.size()) << "dp=" << dp;
    std::vector<int64_t> flat;
    int64_t total_tokens = 0;
    for (size_t i = 0; i < done.size(); ++i) {
      const Completion& c = done[i];
      const Traffic& t = reqs[i];
      EXPECT_EQ(c.id, static_cast<int64_t>(i));
      EXPECT_EQ(c.prompt_tokens, t.plen);
      ASSERT_GE(c.tokens.size(), 1u);
      ASSERT_LE(c.tokens.size(), static_cast<size_t>(t.want));
      // Stop accounting: a short completion can only mean a stop token, the
      // stop reason agrees with the decoded text, and no stop token ever
      // appears mid-sequence (generation would have ended there).
      const bool last_is_stop =
          runtime::is_stop_token(server.config().stop_tokens,
                                 c.tokens.back());
      EXPECT_EQ(c.stop_reason == StopReason::StopToken, last_is_stop);
      if (c.tokens.size() < static_cast<size_t>(t.want)) {
        EXPECT_EQ(c.stop_reason, StopReason::StopToken);
      }
      for (size_t k = 0; k + 1 < c.tokens.size(); ++k) {
        EXPECT_FALSE(runtime::is_stop_token(server.config().stop_tokens,
                                            c.tokens[k]));
      }
      total_tokens += static_cast<int64_t>(c.tokens.size());
      flat.insert(flat.end(), c.tokens.begin(), c.tokens.end());
      flat.push_back(-1);  // per-request separator
    }
    tokens_by_dp.push_back(std::move(flat));

    // No slot leak: all KV bytes freed once the queue drains.
    EXPECT_EQ(server.slot_bytes(), 0) << "dp=" << dp;

    // Counters add up, and per-replica stats merge into the totals.
    const ServeStats st = server.stats();
    EXPECT_EQ(st.requests, static_cast<int64_t>(reqs.size()));
    EXPECT_EQ(st.generated_tokens, total_tokens);
    int64_t plen_sum = 0;
    for (const Traffic& t : reqs) plen_sum += t.plen;
    EXPECT_EQ(st.prompt_tokens, plen_sum);
    EXPECT_GT(st.peak_kv_bytes, 0);
    EXPECT_GT(st.prefill_passes, 0);
    const std::vector<ServeStats> per = server.replica_stats();
    ASSERT_EQ(per.size(), static_cast<size_t>(dp));
    int64_t req_sum = 0, gen_sum = 0;
    for (const ServeStats& r : per) {
      req_sum += r.requests;
      gen_sum += r.generated_tokens;
    }
    EXPECT_EQ(req_sum, st.requests);
    EXPECT_EQ(gen_sum, st.generated_tokens);
  }

  // Replica assignment is invisible in the decoded text: dp=2 reproduces
  // dp=1 token for token, request for request.
  EXPECT_EQ(tokens_by_dp[0], tokens_by_dp[1]);
}

TEST(ServeStress, OverloadConservationAcrossDp) {
  // Every outcome class at once, decided deterministically before the
  // drain starts: a bounded RejectNew queue of 4 refuses 6 of 10 arrivals,
  // one queued request is cancelled, one carries an already-expired
  // deadline, and the remaining two are served. The conservation identity
  //   submitted == completed + rejected + cancelled + timed_out
  // must hold on the merged totals for dp ∈ {1, 2}, and the survivors must
  // decode token-identically across dp (aborts never shift another
  // request's sampling stream).
  std::vector<std::vector<int64_t>> survivor_tokens_by_dp;
  for (int dp : {1, 2}) {
    InferConfig cfg = stress_config(dp);
    cfg.queue_policy = runtime::QueuePolicy::RejectNew;
    cfg.max_queue = 4;
    InferenceServer server(cfg);

    const std::vector<Traffic> reqs = make_traffic(10, 42);
    std::vector<int64_t> ids;
    for (size_t i = 0; i < reqs.size(); ++i) {
      // Request 1 gets a deadline that expires before the drain below.
      const double deadline = i == 1 ? 1e-4 : 0.0;
      ids.push_back(server.enqueue(reqs[i].prompt, reqs[i].want, {},
                                   deadline));
    }
    server.cancel(ids[2]);  // still queued: consumed at pop time
    std::this_thread::sleep_for(std::chrono::milliseconds(5));

    const std::vector<Completion> done = server.drain();
    ASSERT_EQ(done.size(), reqs.size()) << "dp=" << dp;
    std::vector<int64_t> survivors;
    for (const Completion& c : done) {
      if (c.id == ids[1]) {
        EXPECT_EQ(c.stop_reason, StopReason::DeadlineExceeded);
        EXPECT_TRUE(c.tokens.empty());
        EXPECT_LT(c.admit_s, 0.0);  // expired while queued, never admitted
      } else if (c.id == ids[2]) {
        EXPECT_EQ(c.stop_reason, StopReason::Cancelled);
      } else if (c.id <= ids[3]) {
        EXPECT_TRUE(c.served()) << "id " << c.id;
        survivors.insert(survivors.end(), c.tokens.begin(), c.tokens.end());
        survivors.push_back(-1);
      } else {
        // Arrivals 4..9 found the 4-deep queue full.
        EXPECT_EQ(c.stop_reason, StopReason::Rejected);
        EXPECT_TRUE(c.tokens.empty());
        EXPECT_LT(c.admit_s, 0.0);
      }
    }
    survivor_tokens_by_dp.push_back(std::move(survivors));

    const ServeStats st = server.stats();
    EXPECT_EQ(st.submitted, 10);
    EXPECT_EQ(st.completed, 2);
    EXPECT_EQ(st.rejected, 6);
    EXPECT_EQ(st.cancelled, 1);
    EXPECT_EQ(st.timed_out, 1);
    EXPECT_EQ(st.terminal(), st.submitted) << "dp=" << dp;
    // SLA quantiles describe survivors only: one TTFT sample per served
    // request, never one for an aborted one.
    EXPECT_EQ(st.ttft_samples_s.size(), static_cast<size_t>(st.completed));
    EXPECT_EQ(server.slot_bytes(), 0) << "dp=" << dp;
  }
  EXPECT_EQ(survivor_tokens_by_dp[0], survivor_tokens_by_dp[1]);
}

TEST(ServeStress, CompletionTimestampsAreOrdered) {
  // Served completions carry the full enqueue -> admit -> first token ->
  // finish trajectory on one clock; the derived TTFT / per-token numbers
  // are what ServeReport's p50/p99 accessors aggregate.
  InferenceServer server(stress_config(1));
  const std::vector<Traffic> reqs = make_traffic(5, 7);
  for (const Traffic& t : reqs) server.enqueue(t.prompt, t.want);
  const auto done = server.drain();
  ASSERT_EQ(done.size(), reqs.size());
  for (const Completion& c : done) {
    ASSERT_TRUE(c.served());
    EXPECT_GT(c.enqueue_s, 0.0);
    EXPECT_GE(c.admit_s, c.enqueue_s);
    EXPECT_GE(c.first_token_s, c.admit_s);
    EXPECT_GE(c.finish_s, c.first_token_s);
    EXPECT_GE(c.ttft_s(), 0.0);
    if (c.tokens.size() >= 2) {
      EXPECT_GE(c.per_token_s(), 0.0);
    } else {
      EXPECT_EQ(c.per_token_s(), -1.0);
    }
  }
}

TEST(ServeStress, StopTokensFreeSlotsForQueuedRequests) {
  // Every vocabulary id is a stop token: each sequence ends after its very
  // first generated token, so max_batch=2 slots must turn over three times
  // to serve six requests — continuous batching driven purely by stops.
  InferConfig cfg = stress_config(1);
  cfg.max_batch = 2;
  cfg.max_new_tokens = 5;
  cfg.stop_tokens.resize(static_cast<size_t>(kTiny.vocab));
  std::iota(cfg.stop_tokens.begin(), cfg.stop_tokens.end(), int64_t{0});

  InferenceServer server(cfg);
  Rng rng(7);
  for (int r = 0; r < 6; ++r) {
    Tensor prompt({1, 4});
    for (int64_t i = 0; i < 4; ++i) {
      prompt[i] = static_cast<float>(rng.index(kTiny.vocab));
    }
    server.enqueue(prompt);
  }
  const auto done = server.drain();
  ASSERT_EQ(done.size(), 6u);
  for (const Completion& c : done) {
    EXPECT_EQ(c.tokens.size(), 1u);
    EXPECT_EQ(c.stop_reason, StopReason::StopToken);
  }
  const ServeStats st = server.stats();
  EXPECT_EQ(st.generated_tokens, 6);
  EXPECT_EQ(st.decode_passes, 0);   // nothing ever survives into decode
  EXPECT_GE(st.prefill_passes, 3);  // 6 requests through 2 slots
  EXPECT_EQ(server.slot_bytes(), 0);
}

TEST(ServeStress, RepeatedDrainCyclesDoNotLeak) {
  InferenceServer server(stress_config(2));
  Rng rng(31);
  int64_t expect_requests = 0;
  int64_t last_id = -1;
  const int cycles = std::max(2, hanayo_test::scaled(3));
  for (int cycle = 0; cycle < cycles; ++cycle) {
    for (int r = 0; r < 4; ++r) {
      Tensor prompt({1, 5});
      for (int64_t i = 0; i < 5; ++i) {
        prompt[i] = static_cast<float>(rng.index(kTiny.vocab));
      }
      server.enqueue(prompt, 3);
    }
    expect_requests += 4;
    const auto done = server.drain();
    ASSERT_EQ(done.size(), 4u) << "cycle " << cycle;
    // Request ids keep increasing across drains (never recycled).
    for (const Completion& c : done) {
      EXPECT_GT(c.id, last_id);
      last_id = c.id;
    }
    EXPECT_EQ(server.slot_bytes(), 0) << "cycle " << cycle;
    EXPECT_EQ(server.stats().requests, expect_requests);
  }
}
