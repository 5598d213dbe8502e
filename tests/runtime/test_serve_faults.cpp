// Graceful degradation under injected faults and hostile clients. The
// fault hook (runtime::FaultInjection, seeded and replayable) only ever
// adds latency, so every correctness invariant must survive any injection:
//
//   * conservation — submitted == completed + rejected + cancelled +
//     timed_out after every drain, faults or not;
//   * no slot leak — slot_bytes() == 0 after the queue drains, including
//     after cancel storms and mid-decode deadline aborts;
//   * token identity — faults and aborts never shift a surviving request's
//     sampling stream: a degraded run decodes the same tokens as a clean
//     one for every request it serves;
//   * liveness — a wedged replica slows the cluster, it does not stop it.
//
// Timing-sensitive cases are constructed to be outcome-deterministic (a
// deadline either generously covers the run or is mathematically
// unreachable), so the suite passes under the ~10x sanitizer slowdown
// without tolerance tuning — see tests/common/scale.hpp.

#include <gtest/gtest.h>

#include <chrono>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "common/bounded.hpp"
#include "common/scale.hpp"
#include "model/transformer.hpp"
#include "runtime/infer.hpp"
#include "tensor/rng.hpp"

using namespace hanayo;
using runtime::Completion;
using runtime::FaultInjection;
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

InferConfig fault_config(int dp) {
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

/// Serves `prompts` on a fresh server and returns completions (id order).
std::vector<Completion> serve_all(const InferConfig& cfg,
                                  const std::vector<Tensor>& prompts) {
  InferenceServer server(cfg);
  for (const Tensor& p : prompts) server.enqueue(p);
  auto done = server.drain();
  EXPECT_EQ(server.slot_bytes(), 0);
  const ServeStats st = server.stats();
  EXPECT_EQ(st.terminal(), st.submitted);
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

TEST(ServeFaults, SlowPassesOnlyAddLatency) {
  // Seeded slow passes on half the pass boundaries: every request is still
  // served, with exactly the tokens the clean run decodes — the fault hook
  // may stall the clock but never touch the data path.
  const auto prompts = make_prompts(std::max(4, hanayo_test::scaled(8)), 3);
  const auto clean = serve_all(fault_config(1), prompts);

  InferConfig cfg = fault_config(1);
  cfg.fault.seed = 5;
  cfg.fault.slow_pass_prob = 0.5;
  cfg.fault.slow_pass_us = 500;
  const auto degraded = serve_all(cfg, prompts);
  for (const Completion& c : degraded) EXPECT_TRUE(c.served());
  expect_same_tokens(clean, degraded);
}

TEST(ServeFaults, StuckReplicaDoesNotWedgeTheCluster) {
  // Replica 0 stalls on each of its first passes; the other replica keeps
  // draining the shared queue, so the cluster slows but stays live and
  // token-identical to the unfaulted dp=2 run.
  const auto prompts = make_prompts(std::max(4, hanayo_test::scaled(8)), 11);
  const auto clean = serve_all(fault_config(2), prompts);

  InferConfig cfg = fault_config(2);
  cfg.fault.seed = 7;
  cfg.fault.stuck_replica = 0;
  cfg.fault.stuck_passes = 4;
  cfg.fault.stuck_us = 2000;
  const auto degraded = serve_all(cfg, prompts);
  for (const Completion& c : degraded) EXPECT_TRUE(c.served());
  expect_same_tokens(clean, degraded);
}

TEST(ServeFaults, CancelStormLeaksNothing) {
  // A client thread cancels every even-id request while two replicas are
  // mid-drain. A targeted request either aborts (Cancelled, a prefix of
  // the clean decode) or wins the race and completes normally; either way
  // the books balance, no KV byte leaks, and untargeted survivors decode
  // token-identically to the storm-free run.
  const int n = std::max(6, hanayo_test::scaled(12));
  const auto prompts = make_prompts(n, 23);
  const auto clean = serve_all(fault_config(2), prompts);

  InferenceServer server(fault_config(2));
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
      // Partial tokens are a prefix of the clean decode (per-request RNG
      // streams make the abort invisible to what was already sampled).
      ASSERT_LE(c.tokens.size(), ref.tokens.size());
      for (size_t k = 0; k < c.tokens.size(); ++k) {
        EXPECT_EQ(c.tokens[k], ref.tokens[k]);
      }
    } else {
      EXPECT_TRUE(c.served());
      EXPECT_EQ(c.tokens, ref.tokens) << "id " << c.id;
    }
  }
  EXPECT_EQ(server.slot_bytes(), 0);
  const ServeStats st = server.stats();
  EXPECT_EQ(st.submitted, n);
  EXPECT_EQ(st.completed + st.cancelled, st.submitted);
  EXPECT_EQ(st.terminal(), st.submitted);
}

TEST(ServeFaults, ExpiredWhileQueuedTimesOutWithoutAdmission) {
  // Deadlines already past when the drain starts: every request times out
  // from the queue — no admission, no tokens, no KV allocation, and the
  // timed_out counter carries the whole batch.
  InferConfig cfg = fault_config(1);
  cfg.deadline_s = 1e-4;
  InferenceServer server(cfg);
  const auto prompts = make_prompts(5, 31);
  for (const Tensor& p : prompts) server.enqueue(p);
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  const auto done = server.drain();
  ASSERT_EQ(done.size(), prompts.size());
  for (const Completion& c : done) {
    EXPECT_EQ(c.stop_reason, StopReason::DeadlineExceeded);
    EXPECT_TRUE(c.tokens.empty());
    EXPECT_LT(c.admit_s, 0.0);
    EXPECT_EQ(c.ttft_s(), -1.0);
    EXPECT_GE(c.finish_s, c.enqueue_s);
  }
  const ServeStats st = server.stats();
  EXPECT_EQ(st.timed_out, 5);
  EXPECT_EQ(st.requests, 0);  // nothing was ever admitted
  EXPECT_EQ(st.terminal(), st.submitted);
  EXPECT_TRUE(st.ttft_samples_s.empty());
  EXPECT_EQ(server.slot_bytes(), 0);
}

TEST(ServeFaults, MidDecodeDeadlineAbortFreesSlots) {
  // Admitted, then unreachable: every pass stalls 10ms against a 30ms
  // deadline with a 16-token continuation, so each sequence must abort
  // mid-decode (or mid-prefill) regardless of host speed — the KV slot
  // frees at the pass boundary and the partial tokens are kept. (The
  // deadline is wide enough that admission beats it even under sanitizer
  // slowdowns; 16 stalled passes — 160ms minimum — can never fit inside.)
  InferConfig cfg = fault_config(1);
  cfg.max_new_tokens = 16;
  cfg.stop_tokens.clear();  // only the deadline can end these
  cfg.deadline_s = 0.030;
  cfg.fault.seed = 13;
  cfg.fault.slow_pass_prob = 1.0;
  cfg.fault.slow_pass_us = 10000;
  InferenceServer server(cfg);
  const auto prompts = make_prompts(3, 41);
  for (const Tensor& p : prompts) server.enqueue(p);
  const auto done = server.drain();
  ASSERT_EQ(done.size(), prompts.size());
  for (const Completion& c : done) {
    EXPECT_EQ(c.stop_reason, StopReason::DeadlineExceeded);
    EXPECT_GE(c.admit_s, c.enqueue_s);  // admitted before expiring
    EXPECT_LT(c.tokens.size(), 16u);
    EXPECT_GE(c.finish_s, c.enqueue_s + cfg.deadline_s);
  }
  const ServeStats st = server.stats();
  EXPECT_EQ(st.timed_out, 3);
  EXPECT_EQ(st.requests, 3);
  EXPECT_EQ(st.terminal(), st.submitted);
  EXPECT_EQ(server.slot_bytes(), 0);
}

TEST(ServeFaults, RejectNewRefusesExcessArrivals) {
  // Bounded queue, nobody draining: arrivals 3..4 find it full and complete
  // as Rejected on the next drain — backpressure the client can see.
  InferConfig cfg = fault_config(1);
  cfg.queue_policy = QueuePolicy::RejectNew;
  cfg.max_queue = 3;
  InferenceServer server(cfg);
  const auto prompts = make_prompts(5, 53);
  for (const Tensor& p : prompts) server.enqueue(p);
  const auto done = server.drain();
  ASSERT_EQ(done.size(), 5u);
  for (const Completion& c : done) {
    if (c.id < 3) {
      EXPECT_TRUE(c.served());
    } else {
      EXPECT_EQ(c.stop_reason, StopReason::Rejected);
      EXPECT_TRUE(c.tokens.empty());
    }
  }
  const ServeStats st = server.stats();
  EXPECT_EQ(st.rejected, 2);
  EXPECT_EQ(st.completed, 3);
  EXPECT_EQ(st.terminal(), st.submitted);
  EXPECT_EQ(server.slot_bytes(), 0);
}

TEST(ServeFaults, ShedOldestEvictsTheQueueHead) {
  // Same overflow, opposite policy: the OLDEST queued request is evicted
  // to make room, so ids 0..1 are shed and the newest three are served.
  InferConfig cfg = fault_config(1);
  cfg.queue_policy = QueuePolicy::ShedOldest;
  cfg.max_queue = 3;
  InferenceServer server(cfg);
  const auto prompts = make_prompts(5, 61);
  for (const Tensor& p : prompts) server.enqueue(p);
  const auto done = server.drain();
  ASSERT_EQ(done.size(), 5u);
  for (const Completion& c : done) {
    if (c.id < 2) {
      EXPECT_EQ(c.stop_reason, StopReason::Rejected);
      EXPECT_TRUE(c.tokens.empty());
    } else {
      EXPECT_TRUE(c.served());
    }
  }
  const ServeStats st = server.stats();
  EXPECT_EQ(st.rejected, 2);
  EXPECT_EQ(st.completed, 3);
  EXPECT_EQ(st.terminal(), st.submitted);
  EXPECT_EQ(server.slot_bytes(), 0);
}

TEST(ServeFaults, OutOfVocabPromptIsRefusedAtEnqueue) {
  // An id the embedding cannot index would throw inside one pipeline
  // worker while its peer blocks in an untimed receive, wedging the drain.
  // Admission refuses it instead, naming the id and its position, and
  // queues nothing; the other prompts drain and decode exactly as they
  // would without it.
  const auto prompts = make_prompts(3, 71);
  const auto clean = serve_all(fault_config(1), prompts);

  InferenceServer server(fault_config(1));
  server.enqueue(prompts[0]);
  Tensor bad = prompts[1];
  bad[1] = 999.0f;
  try {
    server.enqueue(bad);
    ADD_FAILURE() << "out-of-vocab prompt accepted";
  } catch (const std::invalid_argument& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("999"), std::string::npos) << msg;
    EXPECT_NE(msg.find("position 1"), std::string::npos) << msg;
  }
  server.enqueue(prompts[1]);
  server.enqueue(prompts[2]);

  const auto done = hanayo_test::within_limit([&] { return server.drain(); });
  ASSERT_EQ(done.size(), prompts.size());
  for (size_t i = 0; i < done.size(); ++i) {
    EXPECT_TRUE(done[i].served());
    EXPECT_EQ(done[i].tokens, clean[i].tokens) << "request " << i;
  }
  const ServeStats st = server.stats();
  EXPECT_EQ(st.submitted, 3);
  EXPECT_EQ(st.terminal(), st.submitted);
}

TEST(ServeFaults, EnvSeedEnablesInjection) {
  // The HANAYO_FAULT_SEED hook: stress binaries opt into fault injection
  // without a rebuild. Parsed here directly (no setenv — the suite runs
  // threaded).
  EXPECT_FALSE(FaultInjection{}.enabled());
  FaultInjection f;
  f.seed = 99;
  EXPECT_TRUE(f.enabled());
}

TEST(ServeFaults, CancelMarksOnlyLiveRequests) {
  // A cancel mark exists only while the request can still be cancelled:
  // unknown and finished ids leave none (a stale mark would keep every
  // later pass boundary on the abort sweep's slow path, and repeated
  // stale cancels would grow the registry without bound).
  runtime::RequestQueue q;
  q.cancel(7);  // never enqueued
  EXPECT_FALSE(q.any_cancelled());

  runtime::InferRequest r;
  r.id = 3;
  (void)q.push(std::move(r));
  q.cancel(3);  // queued
  EXPECT_TRUE(q.any_cancelled());
  runtime::InferRequest popped;
  ASSERT_TRUE(q.pop(popped));
  EXPECT_TRUE(q.consume_cancelled(3));
  q.cancel(3);  // popped, not yet finished: still cancellable
  EXPECT_TRUE(q.any_cancelled());
  q.retire(3);  // the replica finished it; the late mark goes with it
  EXPECT_FALSE(q.any_cancelled());
  q.cancel(3);  // finished
  EXPECT_FALSE(q.any_cancelled());
}
