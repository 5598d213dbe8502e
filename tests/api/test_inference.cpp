// The InferenceSession façade: serving engines behind one API must agree —
// Threads (pipelined KV-cache decode) with Reference (sequential full-prefix
// recompute) token-for-token, predict() with the Sim backend number-for-
// number — and the request queue must batch without reordering.

#include <gtest/gtest.h>

#include <chrono>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "common/bounded.hpp"
#include "core/hanayo.hpp"

using namespace hanayo;

namespace {

// 6 blocks + embedding/norm/head = 9 partitionable layers: enough for the
// 2*W*P = 8 stages of the wave configuration below.
const ModelConfig kTiny = ModelConfig::tiny(/*layers=*/6, /*hidden=*/32,
                                            /*heads=*/2, /*vocab=*/67,
                                            /*seq=*/24);

InferenceSession::Builder tiny_server(Algo algo, int P, int W) {
  return InferenceSession::builder()
      .model(kTiny)
      .algo(algo)
      .pipeline(P)
      .waves(W)
      .seed(42)
      .max_batch(3)
      .max_new_tokens(5);
}

Tensor random_prompt(Rng& rng, int64_t len) {
  Tensor p({1, len});
  for (int64_t i = 0; i < len; ++i) {
    p[i] = static_cast<float>(rng.index(kTiny.vocab));
  }
  return p;
}

}  // namespace

// ---- (a) Threads == Reference, token for token --------------------------

TEST(InferenceSession, ThreadsMatchReferenceGreedyTokens) {
  for (Algo algo : {Algo::Hanayo, Algo::GPipe, Algo::Dapple}) {
    const int W = algo == Algo::Hanayo ? 2 : 1;
    InferenceSession threads =
        tiny_server(algo, 2, W).backend(BackendKind::Threads).build();
    InferenceSession reference =
        tiny_server(algo, 2, W).backend(BackendKind::Reference).build();

    Rng rng(9);
    for (int r = 0; r < 5; ++r) {
      Tensor prompt = random_prompt(rng, 4 + r);
      threads.enqueue(prompt);
      reference.enqueue(prompt);
    }
    const auto a = threads.run();
    const auto b = reference.run();
    ASSERT_EQ(a.size(), 5u);
    ASSERT_EQ(b.size(), 5u);
    for (size_t i = 0; i < a.size(); ++i) {
      EXPECT_EQ(a[i].id, b[i].id);
      ASSERT_EQ(a[i].tokens.size(), b[i].tokens.size());
      for (size_t t = 0; t < a[i].tokens.size(); ++t) {
        EXPECT_EQ(a[i].tokens[t], b[i].tokens[t])
            << schedule::algo_name(algo) << " req " << i << " token " << t;
      }
    }
  }
}

TEST(InferenceSession, WaveCountDoesNotChangeTokens) {
  // Different wave partitions of the same model decode the same text —
  // the serving analogue of the cross-(P, W) training equivalence.
  std::vector<std::vector<int64_t>> decoded;
  for (auto [P, W] : {std::pair{2, 1}, {2, 2}, {4, 1}}) {
    InferenceSession s = tiny_server(Algo::Hanayo, P, W).build();
    Rng rng(21);
    s.enqueue(random_prompt(rng, 6));
    const auto done = s.run();
    ASSERT_EQ(done.size(), 1u);
    decoded.push_back(done[0].tokens);
  }
  EXPECT_EQ(decoded[0], decoded[1]);
  EXPECT_EQ(decoded[0], decoded[2]);
}

// ---- (b) request queue: continuous batching without reordering ----------

TEST(InferenceSession, QueueBatchesBeyondMaxBatchInOrder) {
  InferenceSession s = tiny_server(Algo::Hanayo, 2, 1).build();
  InferenceSession ref =
      tiny_server(Algo::Hanayo, 2, 1).backend(BackendKind::Reference).build();

  // 8 requests through a max_batch of 3, with staggered lengths so slots
  // free at different passes (continuous batching re-fills mid-stream).
  Rng rng(33);
  std::vector<int64_t> ids;
  for (int r = 0; r < 8; ++r) {
    Tensor prompt = random_prompt(rng, 3 + (r % 4));
    const int want = 2 + (r % 3);
    ids.push_back(s.enqueue(prompt, want));
    ref.enqueue(prompt, want);
  }
  const auto done = s.run();
  const auto expect = ref.run();

  ASSERT_EQ(done.size(), 8u);
  for (size_t i = 0; i < done.size(); ++i) {
    // Completions come back in enqueue order with the caller's ids...
    EXPECT_EQ(done[i].id, ids[i]);
    // ...each sequence's tokens in generation order (never reordered):
    // greedy equality with the sequential reference proves both.
    EXPECT_EQ(done[i].tokens, expect[i].tokens) << "request " << i;
  }
  const auto rep = s.report();
  EXPECT_EQ(rep.requests, 8);
  EXPECT_GT(rep.decode_passes, 0);
  EXPECT_GT(rep.generated_tokens, 0);
  EXPECT_GT(rep.peak_kv_bytes, 0);
  EXPECT_FALSE(rep.predicted);
}

TEST(InferenceSession, RunDrainsIncrementally) {
  InferenceSession s = tiny_server(Algo::Dapple, 2, 1).build();
  Rng rng(4);
  const int64_t id0 = s.enqueue(random_prompt(rng, 4), 2);
  ASSERT_EQ(s.run().size(), 1u);
  const int64_t id1 = s.enqueue(random_prompt(rng, 4), 2);
  const auto second = s.run();
  ASSERT_EQ(second.size(), 1u);
  EXPECT_EQ(second[0].id, id1);
  EXPECT_NE(id0, id1);
}

TEST(InferenceSession, RejectsOverlongPrompts) {
  InferenceSession s = tiny_server(Algo::Dapple, 2, 1).build();
  Tensor too_long({1, kTiny.seq + 1});
  EXPECT_THROW(s.enqueue(too_long), std::invalid_argument);
  // Fits only if prompt + continuation - 1 <= seq.
  Tensor tight({1, kTiny.seq});
  tight.fill(1.0f);
  EXPECT_THROW(s.enqueue(tight, 4), std::invalid_argument);
  EXPECT_NO_THROW(s.enqueue(tight, 1));
}

// ---- (c) predict() == Sim backend ----------------------------------------

TEST(InferenceSession, PredictAgreesWithSimBackend) {
  const Cluster cluster = Cluster::fc();
  auto b = tiny_server(Algo::Hanayo, 2, 2).cluster(cluster);
  InferenceSession live = b.backend(BackendKind::Threads).build();
  InferenceSession sim = b.backend(BackendKind::Sim).build();

  const ServeReport from_live = live.predict();
  sim.enqueue(Tensor({1, 4}, std::vector<float>(4, 1.0f)));
  const auto completions = sim.run();
  ASSERT_EQ(completions.size(), 1u);
  EXPECT_TRUE(completions[0].tokens.empty());  // predicted: nothing executed
  const ServeReport from_sim = sim.report();

  EXPECT_TRUE(from_live.predicted);
  EXPECT_TRUE(from_sim.predicted);
  EXPECT_EQ(from_live.prefill_s, from_sim.prefill_s);
  EXPECT_EQ(from_live.decode_s, from_sim.decode_s);
  EXPECT_EQ(from_live.tokens_per_s(), from_sim.tokens_per_s());
  EXPECT_EQ(from_live.per_token_latency_s(), from_sim.per_token_latency_s());
  EXPECT_EQ(from_live.peak_kv_bytes, from_sim.peak_kv_bytes);
  EXPECT_GT(from_sim.prefill_s, 0.0);
  EXPECT_GT(from_sim.decode_s, 0.0);
}

TEST(InferenceSession, PredictReportsInfeasibleStageCounts) {
  // 9 partitionable layers cannot host 2*W*P = 16 stages; like the training
  // dry run, prediction reports infeasibility instead of throwing.
  const ServeReport rep = tiny_server(Algo::Hanayo, 4, 2)
                              .backend(BackendKind::Sim)
                              .build()
                              .report();
  EXPECT_FALSE(rep.feasible);
  EXPECT_NE(rep.to_string().find("infeasible"), std::string::npos);
}

// ---- (d) schedules and misfits -------------------------------------------

TEST(InferenceSession, SchedulesAreForwardOnly) {
  InferenceSession s = tiny_server(Algo::Hanayo, 2, 2).build();
  ASSERT_NE(s.schedule(), nullptr);
  EXPECT_TRUE(s.schedule()->forward_only);
  EXPECT_EQ(s.schedule()->count(schedule::Op::Backward), 0);

  InferenceSession ref =
      tiny_server(Algo::Hanayo, 2, 2).backend(BackendKind::Reference).build();
  EXPECT_EQ(ref.schedule(), nullptr);
}

TEST(InferenceSession, RejectsUnservableConfigurations) {
  EXPECT_THROW(tiny_server(Algo::Chimera, 2, 1).build(),
               std::invalid_argument);
  EXPECT_THROW(tiny_server(Algo::Hanayo, 2, 1)
                   .backend(BackendKind::Async)
                   .build(),
               std::invalid_argument);
  // Bidirectional (BERT-style) models cannot greedily extend a prefix.
  ModelConfig bert = kTiny;
  bert.causal = false;
  EXPECT_THROW(
      InferenceSession::builder().model(bert).algo(Algo::Dapple).pipeline(2).build(),
      std::invalid_argument);
}

// ---- The doc-comment serving quickstart from core/hanayo.hpp compiles ----

TEST(InferenceSession, DocCommentServingQuickstartCompilesAndRuns) {
  auto server = hanayo::InferenceSession::builder()
                    .model(hanayo::ModelConfig::tiny(/*layers=*/14))
                    .algo(hanayo::Algo::Hanayo)
                    .pipeline(4)
                    .waves(2)
                    .backend(hanayo::BackendKind::Threads)
                    .max_batch(4)
                    .max_new_tokens(4)
                    .sampling(hanayo::Sampling::TopK(8, 0.8f))
                    .eos(2)
                    .data_parallel(2)
                    .seed(7)
                    .build();
  hanayo::Tensor prompt({1, 5});  // token ids (0 is a valid id)
  server.enqueue(prompt);
  const auto completions = server.run();
  ASSERT_EQ(completions.size(), 1u);
  ASSERT_GE(completions[0].tokens.size(), 1u);
  ASSERT_LE(completions[0].tokens.size(), 4u);
  // The stop reason and the decoded text agree: ended early (or exactly on
  // the stop id) <=> the last token is the configured EOS.
  if (completions[0].stop_reason == hanayo::StopReason::StopToken) {
    EXPECT_EQ(completions[0].tokens.back(), 2);
  } else {
    EXPECT_EQ(completions[0].tokens.size(), 4u);
  }
  const auto serve_report = server.report();
  EXPECT_EQ(serve_report.dp, 2);
  EXPECT_EQ(serve_report.generated_tokens,
            static_cast<int64_t>(completions[0].tokens.size()));
  EXPECT_EQ(serve_report.replicas.size(), 2u);
  const auto sla = server.predict();
  EXPECT_TRUE(sla.predicted);
  EXPECT_TRUE(sla.feasible);
  EXPECT_EQ(sla.dp, 2);
}

// ---- The "Serving under load" doc example from core/hanayo.hpp -----------

TEST(InferenceSession, DocCommentServingUnderLoadCompilesAndRuns) {
  auto sla_server = hanayo::InferenceSession::builder()
                        .model(hanayo::ModelConfig::tiny(/*layers=*/6))
                        .backend(hanayo::BackendKind::Threads)
                        .pipeline(2)
                        .max_batch(2)
                        .max_new_tokens(4)
                        .deadline_s(0.5)  // default per-request SLA
                        .queue(hanayo::QueuePolicy::RejectNew, 4)
                        .build();
  hanayo::Tensor p({1, 5});
  auto id = sla_server.enqueue(p);    // config deadline applies
  sla_server.enqueue(p, 0, {}, 2.0);  // per-request override
  sla_server.cancel(id);              // -> StopReason::Cancelled
  auto outcome = sla_server.run();
  auto load_rep = sla_server.report();

  ASSERT_EQ(outcome.size(), 2u);
  EXPECT_EQ(outcome[0].id, id);
  EXPECT_EQ(outcome[0].stop_reason, hanayo::StopReason::Cancelled);
  EXPECT_TRUE(outcome[1].served());
  // The served completion carries the full timestamp trajectory...
  EXPECT_GE(outcome[1].admit_s, outcome[1].enqueue_s);
  EXPECT_GE(outcome[1].first_token_s, outcome[1].admit_s);
  EXPECT_GE(outcome[1].finish_s, outcome[1].first_token_s);
  // ...and the report conserves and aggregates survivors' quantiles.
  EXPECT_EQ(load_rep.submitted, 2);
  EXPECT_EQ(load_rep.completed, 1);
  EXPECT_EQ(load_rep.cancelled, 1);
  EXPECT_EQ(load_rep.submitted, load_rep.completed + load_rep.rejected +
                                    load_rep.cancelled + load_rep.timed_out);
  EXPECT_EQ(load_rep.ttft_samples_s.size(), 1u);
  EXPECT_GT(load_rep.p50_ttft_s(), 0.0);
  EXPECT_GE(load_rep.p99_ttft_s(), load_rep.p50_ttft_s());
}

// ---- The "Paged KV & prefix caching" doc example from core/hanayo.hpp ----

TEST(InferenceSession, DocCommentPagedKvCompilesAndRuns) {
  auto paged = hanayo::InferenceSession::builder()
                   .model(hanayo::ModelConfig::tiny(6, 32, 2, 67, /*seq=*/24))
                   .backend(hanayo::BackendKind::Threads)
                   .pipeline(2)
                   .max_batch(1)
                   .max_new_tokens(4)
                   .paged_kv()
                   .kv_page_tokens(8)
                   .build();
  // Two chat turns over the same 8-token system head, different tails.
  const auto turn = [](std::initializer_list<int64_t> tail) {
    std::vector<int64_t> ids = {7, 3, 11, 5, 2, 9, 14, 6};
    ids.insert(ids.end(), tail);
    hanayo::Tensor p({1, static_cast<int64_t>(ids.size())});
    for (size_t i = 0; i < ids.size(); ++i) {
      p[static_cast<int64_t>(i)] = static_cast<float>(ids[i]);
    }
    return p;
  };
  paged.enqueue(turn({13, 4, 22, 10}));
  const auto first = paged.run();  // prefills all 12 tokens, publishes
  paged.enqueue(turn({1, 8, 30, 12}));
  const auto second = paged.run();  // prefills the 4-token tail only
  ASSERT_EQ(first.size(), 1u);
  ASSERT_EQ(second.size(), 1u);
  EXPECT_TRUE(first[0].served());
  EXPECT_TRUE(second[0].served());

  const auto page_rep = paged.report();
  EXPECT_EQ(page_rep.prefix_hits, 1);
  EXPECT_EQ(page_rep.prefill_tokens_saved(), 8);  // the shared head
  EXPECT_GT(page_rep.prefix_hit_rate(), 0.0);
  EXPECT_LT(page_rep.prefix_hit_rate(), 1.0);
  EXPECT_GT(page_rep.kv_pages_peak, 0);
  EXPECT_GE(page_rep.kv_pages_peak, page_rep.kv_pages_in_use);
  EXPECT_NE(page_rep.to_string().find("prefix cache"), std::string::npos);
}

// ---- SLA semantics agree across live backends ----------------------------

TEST(InferenceSession, DeadlineAndRejectionSemanticsMatchAcrossBackends) {
  // Reference is the serving ground truth for outcomes too: pre-expired
  // deadlines time out, cancels cancel, and the books balance — exactly as
  // on Threads. (Backpressure is a live-queue property: Reference admits
  // everything, so the bounded-queue case is Threads-only and covered by
  // tests/runtime/test_serve_faults.cpp.)
  for (BackendKind kind : {BackendKind::Threads, BackendKind::Reference}) {
    InferenceSession s = tiny_server(Algo::Hanayo, 2, 2).backend(kind).build();
    Rng rng(11);
    const auto id_expired = s.enqueue(random_prompt(rng, 4), 0, {}, 1e-6);
    const auto id_cancel = s.enqueue(random_prompt(rng, 5));
    const auto id_ok = s.enqueue(random_prompt(rng, 6));
    s.cancel(id_cancel);
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
    const auto done = s.run();
    ASSERT_EQ(done.size(), 3u) << backend_name(kind);
    EXPECT_EQ(done[0].id, id_expired);
    EXPECT_EQ(done[0].stop_reason, StopReason::DeadlineExceeded);
    EXPECT_TRUE(done[0].tokens.empty());
    EXPECT_EQ(done[1].id, id_cancel);
    EXPECT_EQ(done[1].stop_reason, StopReason::Cancelled);
    EXPECT_EQ(done[2].id, id_ok);
    EXPECT_TRUE(done[2].served());
    const ServeReport rep = s.report();
    EXPECT_EQ(rep.submitted, 3) << backend_name(kind);
    EXPECT_EQ(rep.completed, 1);
    EXPECT_EQ(rep.cancelled, 1);
    EXPECT_EQ(rep.timed_out, 1);
    EXPECT_EQ(rep.ttft_samples_s.size(), 1u);
  }
}

// ---- Streaming completions (per-request on_token callbacks) --------------

TEST(InferenceSession, StreamingDeliversEveryTokenInOrder) {
  for (BackendKind kind : {BackendKind::Threads, BackendKind::Reference}) {
    InferenceSession s =
        tiny_server(Algo::Hanayo, 2, 2).backend(kind).build();
    std::vector<TokenEvent> events;
    Rng rng(9);
    for (int r = 0; r < 4; ++r) {
      s.enqueue(random_prompt(rng, 4 + r), 0,
                [&events](const TokenEvent& e) { events.push_back(e); });
    }
    const auto done = s.run();
    int64_t total = 0;
    for (const Completion& c : done) {
      total += static_cast<int64_t>(c.tokens.size());
      // The stream of one request reproduces its completion exactly, with
      // ascending indices and the last event flagged.
      std::vector<int64_t> streamed;
      int expect_index = 0;
      for (const TokenEvent& e : events) {
        if (e.request_id != c.id) continue;
        EXPECT_EQ(e.index, expect_index++);
        EXPECT_EQ(e.last, streamed.size() + 1 == c.tokens.size());
        streamed.push_back(e.token);
      }
      EXPECT_EQ(streamed, c.tokens) << "request " << c.id;
    }
    EXPECT_EQ(static_cast<int64_t>(events.size()), total);
  }
}

TEST(InferenceSession, StreamingWithStopTokensFlagsTheLastEvent) {
  // Stop-token completions end mid-cap: the stop id itself must arrive
  // through the stream, flagged last.
  InferenceSession s = tiny_server(Algo::Hanayo, 2, 1)
                           .backend(BackendKind::Threads)
                           .max_new_tokens(8)
                           .eos(2)
                           .build();
  std::vector<TokenEvent> events;
  Rng rng(9);
  s.enqueue(random_prompt(rng, 5), 0,
            [&events](const TokenEvent& e) { events.push_back(e); });
  const auto done = s.run();
  ASSERT_EQ(done.size(), 1u);
  ASSERT_FALSE(events.empty());
  EXPECT_TRUE(events.back().last);
  EXPECT_EQ(events.back().token, done[0].tokens.back());
  for (size_t i = 0; i + 1 < events.size(); ++i) {
    EXPECT_FALSE(events[i].last);
  }
}

TEST(InferenceSession, StreamingOnDpReplicasKeepsPerRequestOrder) {
  InferenceSession s = tiny_server(Algo::Hanayo, 2, 1)
                           .backend(BackendKind::Threads)
                           .data_parallel(2)
                           .build();
  // One vector per request: a request's events come from one replica
  // thread, so per-request vectors need no locking; touching them from two
  // requests' callbacks concurrently is fine because they're distinct.
  std::vector<std::vector<int64_t>> streams(6);
  Rng rng(9);
  for (int r = 0; r < 6; ++r) {
    s.enqueue(random_prompt(rng, 5), 0, [&streams, r](const TokenEvent& e) {
      EXPECT_EQ(e.request_id, r);
      streams[static_cast<size_t>(r)].push_back(e.token);
    });
  }
  const auto done = s.run();
  for (const Completion& c : done) {
    EXPECT_EQ(streams[static_cast<size_t>(c.id)], c.tokens);
  }
}

// ---- Out-of-vocabulary prompts fail at enqueue ---------------------------

TEST(InferenceSession, OutOfVocabPromptIsRejectedAndTheRestComplete) {
  // A prompt id the embedding cannot index used to throw inside one
  // pipeline worker and hang the whole drain. enqueue now rejects it,
  // naming the id and its position, and queues nothing; the other prompts
  // decode exactly as they would without it.
  for (const BackendKind kind : {BackendKind::Threads, BackendKind::Reference}) {
    InferenceSession s = tiny_server(Algo::Hanayo, 2, 2).backend(kind).build();
    InferenceSession clean =
        tiny_server(Algo::Hanayo, 2, 2).backend(kind).build();
    Rng rng(13);
    const Tensor first = random_prompt(rng, 5);
    Tensor bad = random_prompt(rng, 4);
    bad[2] = 999.0f;
    const Tensor last = random_prompt(rng, 6);

    s.enqueue(first);
    try {
      s.enqueue(bad);
      ADD_FAILURE() << "out-of-vocab prompt accepted";
    } catch (const std::invalid_argument& e) {
      const std::string msg = e.what();
      EXPECT_NE(msg.find("999"), std::string::npos) << msg;
      EXPECT_NE(msg.find("position 2"), std::string::npos) << msg;
    }
    s.enqueue(last);
    clean.enqueue(first);
    clean.enqueue(last);

    const auto done = hanayo_test::within_limit([&] { return s.run(); });
    const auto want = clean.run();
    ASSERT_EQ(done.size(), 2u);
    ASSERT_EQ(want.size(), 2u);
    for (size_t i = 0; i < done.size(); ++i) {
      EXPECT_EQ(done[i].tokens, want[i].tokens) << backend_name(kind);
      EXPECT_FALSE(done[i].tokens.empty());
    }
  }
}

// ---- fp16 KV-cache storage at the session level --------------------------

TEST(InferenceSession, KvFp16KeepsThreadsReferenceTokenIdentity) {
  // Both engines quantize the cached panels identically (rows quantize on
  // append, whichever call produced them), so the token-identity guarantee
  // survives kv_fp16 — including under stochastic sampling.
  for (Sampling policy : {Sampling::Greedy(), Sampling::TopK(8, 0.9f)}) {
    InferenceSession threads = tiny_server(Algo::Hanayo, 2, 2)
                                   .backend(BackendKind::Threads)
                                   .sampling(policy)
                                   .kv_fp16()
                                   .build();
    InferenceSession reference = tiny_server(Algo::Hanayo, 2, 2)
                                     .backend(BackendKind::Reference)
                                     .sampling(policy)
                                     .kv_fp16()
                                     .build();
    Rng rng(9);
    for (int r = 0; r < 4; ++r) {
      Tensor prompt = random_prompt(rng, 4 + r);
      threads.enqueue(prompt);
      reference.enqueue(prompt);
    }
    const auto a = threads.run();
    const auto b = reference.run();
    ASSERT_EQ(a.size(), b.size());
    for (size_t i = 0; i < a.size(); ++i) {
      EXPECT_EQ(a[i].tokens, b[i].tokens) << "request " << i;
    }
  }
}

TEST(InferenceSession, KvFp16HalvesPredictedKvFootprint) {
  const ServeReport f32 = tiny_server(Algo::Hanayo, 2, 1)
                              .backend(BackendKind::Sim)
                              .build()
                              .predict();
  const ServeReport f16 = tiny_server(Algo::Hanayo, 2, 1)
                              .backend(BackendKind::Sim)
                              .kv_fp16()
                              .build()
                              .predict();
  EXPECT_EQ(f32.peak_kv_bytes, 2 * f16.peak_kv_bytes);
}

// ---- The doc-comment planning quickstart from core/hanayo.hpp ------------

TEST(InferenceSession, DocCommentPlanningQuickstartCompilesAndRuns) {
  hanayo::ServeTarget target;
  target.total_devices = 8;
  target.prompt_tokens = 12;
  target.max_new_tokens = 8;
  auto rows = hanayo::plan_serving(hanayo::Cluster::fc(),
                                   hanayo::ModelConfig::tiny(14), target);
  ASSERT_FALSE(rows.empty());
  EXPECT_FALSE(rows.front().to_string().empty());

  auto planned = hanayo::InferenceSession::builder()
                     .model(hanayo::ModelConfig::tiny(14))
                     .backend(hanayo::BackendKind::Sim)
                     .cluster(hanayo::Cluster::fc())
                     .auto_plan(target)
                     .build();
  auto picked_sla = planned.predict();
  EXPECT_TRUE(picked_sla.feasible);
  EXPECT_GT(picked_sla.generated_tokens, 0);
  // With the same cluster on both sides (the doc example pins .cluster()),
  // predict() reproduces the planner's winning row bit-for-bit.
  const auto picked = hanayo::best_serving(rows);
  ASSERT_TRUE(picked.has_value());
  EXPECT_EQ(picked->token_latency_s, picked_sla.per_token_latency_s());
  EXPECT_EQ(picked->tokens_per_s, picked_sla.tokens_per_s());

  bool streamed = false;
  auto server = hanayo::InferenceSession::builder()
                    .model(hanayo::ModelConfig::tiny(6))
                    .algo(hanayo::Algo::Hanayo)
                    .pipeline(2)
                    .max_batch(2)
                    .max_new_tokens(3)
                    .build();
  hanayo::Tensor prompt({1, 5});
  server.enqueue(prompt, 0, [&streamed](const hanayo::TokenEvent& e) {
    (void)e;
    streamed = true;
  });
  (void)server.run();
  EXPECT_TRUE(streamed);
}
