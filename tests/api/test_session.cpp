// The Session façade: every backend behind one API must agree with the
// engine it wraps — Threads with the sequential reference (losses), Sim
// with the planner's evaluator (candidate numbers), and checkpoints must
// round-trip across different (P, W) session configurations.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <filesystem>
#include <string>

#include "common/bounded.hpp"
#include "core/hanayo.hpp"

using namespace hanayo;

namespace {

const ModelConfig kTiny = ModelConfig::tiny(/*layers=*/14, /*hidden=*/16,
                                            /*heads=*/2, /*vocab=*/37,
                                            /*seq=*/6);
constexpr float kTol = 3e-4f;

Session::Builder tiny_builder(Algo algo, int P, int B, int W) {
  return Session::builder()
      .model(kTiny)
      .algo(algo)
      .pipeline(P)
      .micro_batches(B)
      .waves(W)
      .seed(77)
      .learning_rate(0.05f)
      .momentum(0.9f);
}

std::string temp_ckpt(const char* name) {
  return (std::filesystem::temp_directory_path() / name).string();
}

}  // namespace

// ---- (a) Threads == Reference ------------------------------------------

TEST(Session, ThreadBackendMatchesReferenceLosses) {
  Session threads =
      tiny_builder(Algo::Hanayo, 2, 4, 2).backend(BackendKind::Threads).build();
  Session reference =
      tiny_builder(Algo::Hanayo, 2, 4, 2).backend(BackendKind::Reference).build();
  ASSERT_EQ(threads.batch_rows(), reference.batch_rows());

  Rng rng(5);
  for (int step = 0; step < 5; ++step) {
    const Batch batch = synthetic_batch(kTiny, threads.batch_rows(), rng);
    const StepReport a = threads.step(batch);
    const StepReport b = reference.step(batch);
    EXPECT_NEAR(a.loss, b.loss, kTol) << "step " << step;
    EXPECT_FALSE(a.predicted);
    EXPECT_FALSE(b.predicted);
  }

  // Parameters agree too (accumulation-order noise only).
  const auto pa = threads.snapshot_params();
  const auto pb = reference.snapshot_params();
  ASSERT_EQ(pa.size(), pb.size());
  for (const auto& [name, value] : pa) {
    const auto it = pb.find(name);
    ASSERT_NE(it, pb.end()) << name;
    const auto& fa = value.flat();
    const auto& fb = it->second.flat();
    ASSERT_EQ(fa.size(), fb.size()) << name;
    for (size_t i = 0; i < fa.size(); ++i) {
      ASSERT_NEAR(fa[i], fb[i], kTol) << name << "[" << i << "]";
    }
  }
}

TEST(Session, RunAccumulatesReport) {
  Session s = tiny_builder(Algo::Dapple, 2, 4, 1).build();
  Rng rng(11);
  const Batch batch = synthetic_batch(kTiny, s.batch_rows(), rng);
  const RunReport rep = s.run(batch, 3);
  ASSERT_EQ(rep.steps.size(), 3u);
  EXPECT_EQ(rep.backend, BackendKind::Threads);
  EXPECT_EQ(rep.steps[2].step, 2);
  EXPECT_GT(rep.candidate.throughput_seq_s, 0.0);
  EXPECT_FALSE(rep.memory.peak_cache_bytes.empty());
  EXPECT_EQ(rep.final_loss(), rep.steps.back().loss);
  // The report renders through the same formatter as planner rows.
  EXPECT_NE(rep.to_string().find("DAPPLE"), std::string::npos);
}

// ---- (b) Sim == perf::evaluate -----------------------------------------

TEST(Session, SimBackendMatchesPlannerEvaluate) {
  const Cluster cluster = Cluster::tacc(8);
  Session s = tiny_builder(Algo::Hanayo, 4, 8, 2)
                  .backend(BackendKind::Sim)
                  .cluster(cluster)
                  .build();
  Batch none;  // Sim executes nothing; the batch is ignored
  const RunReport rep = s.run(none, 1);
  const perf::Candidate direct =
      perf::evaluate(kTiny, cluster, Algo::Hanayo, 1, 4, 2, 8, 1);

  EXPECT_EQ(rep.candidate.throughput_seq_s, direct.throughput_seq_s);
  EXPECT_EQ(rep.candidate.bubble_ratio, direct.bubble_ratio);
  EXPECT_EQ(rep.candidate.peak_mem_gb, direct.peak_mem_gb);
  EXPECT_EQ(rep.candidate.oom, direct.oom);
  EXPECT_TRUE(rep.steps[0].predicted);
  EXPECT_TRUE(std::isnan(rep.steps[0].loss));
  ASSERT_TRUE(rep.sim.has_value());
  EXPECT_DOUBLE_EQ(rep.steps[0].wall_s, rep.sim->makespan);
}

TEST(Session, PredictAgreesWithSimBackend) {
  const Cluster cluster = Cluster::fc();
  auto b = tiny_builder(Algo::Dapple, 4, 8, 1).cluster(cluster);
  Session live = b.backend(BackendKind::Threads).build();
  Session sim = b.backend(BackendKind::Sim).build();
  const perf::Candidate from_live = live.predict();
  Batch none;
  const RunReport from_sim = sim.run(none, 1);
  EXPECT_EQ(from_live.throughput_seq_s, from_sim.candidate.throughput_seq_s);
  EXPECT_EQ(from_live.peak_mem_gb, from_sim.candidate.peak_mem_gb);
}

TEST(Session, SimBackendReportsInfeasibleStageCounts) {
  // 17 partitionable layers cannot host 2*W*P = 32 stages. Like the
  // planner, the dry run reports infeasibility instead of throwing.
  Session s =
      tiny_builder(Algo::Hanayo, 4, 8, 4).backend(BackendKind::Sim).build();
  Batch none;
  const RunReport rep = s.run(none, 1);
  EXPECT_FALSE(rep.candidate.feasible);
  EXPECT_NE(rep.to_string().find("infeasible"), std::string::npos);
  // ...and matches the planner's verdict exactly.
  const perf::Candidate direct = perf::evaluate(
      kTiny, s.config().effective_cluster(), Algo::Hanayo, 1, 4, 4, 8, 1);
  EXPECT_FALSE(direct.feasible);
  EXPECT_EQ(rep.candidate.note, direct.note);
}

TEST(Session, SimBackendMatchesEvaluateForInterleaved) {
  // perf::evaluate feeds its W into vchunks for Interleaved; the Session's
  // dry run must agree with the planner for the same chunk count.
  const Cluster cluster = Cluster::fc();
  Session s = Session::builder()
                  .model(kTiny)
                  .algo(Algo::Interleaved)
                  .pipeline(4)
                  .micro_batches(8)
                  .vchunks(2)
                  .cluster(cluster)
                  .backend(BackendKind::Sim)
                  .build();
  Batch none;
  const RunReport rep = s.run(none, 1);
  const perf::Candidate direct =
      perf::evaluate(kTiny, cluster, Algo::Interleaved, 1, 4, 2, 8, 1);
  ASSERT_TRUE(direct.feasible);
  EXPECT_TRUE(rep.candidate.feasible);
  EXPECT_EQ(rep.candidate.W, direct.W);
  EXPECT_EQ(rep.candidate.throughput_seq_s, direct.throughput_seq_s);
  EXPECT_EQ(rep.candidate.bubble_ratio, direct.bubble_ratio);
  EXPECT_EQ(rep.candidate.peak_mem_gb, direct.peak_mem_gb);
}

// ---- schedule() is a pointer: nullptr exactly when no schedule exists ---

TEST(Session, InfeasibleSimSessionHasNoSchedule) {
  Session s =
      tiny_builder(Algo::Hanayo, 4, 8, 4).backend(BackendKind::Sim).build();
  EXPECT_EQ(s.schedule(), nullptr);
}

TEST(Session, ReferenceBackendHasNoSchedule) {
  Session s =
      tiny_builder(Algo::Hanayo, 2, 4, 1).backend(BackendKind::Reference).build();
  EXPECT_EQ(s.schedule(), nullptr);
}

TEST(Session, ThreadAndSimBackendsExposeTheirSchedule) {
  Session live = tiny_builder(Algo::Hanayo, 2, 4, 2).build();
  ASSERT_NE(live.schedule(), nullptr);
  EXPECT_EQ(live.schedule()->P, 2);
  EXPECT_FALSE(live.schedule()->forward_only);
  Session sim =
      tiny_builder(Algo::Hanayo, 2, 4, 2).backend(BackendKind::Sim).build();
  ASSERT_NE(sim.schedule(), nullptr);
  EXPECT_EQ(sim.schedule()->B, 4);
}

TEST(Session, SimBackendHasNoParameters) {
  Session s = tiny_builder(Algo::Hanayo, 2, 4, 1).backend(BackendKind::Sim).build();
  EXPECT_THROW(s.snapshot_params(), std::logic_error);
  EXPECT_THROW(s.save_checkpoint("/tmp/never.bin"), std::logic_error);
}

// ---- (c) checkpoint round-trip across (P, W) ---------------------------

TEST(Session, CheckpointRoundTripsAcrossConfigurations) {
  const std::string path = temp_ckpt("hanayo_api_ckpt_pw.bin");
  Rng rng(9);

  // Train under (P=2, W=2), save.
  Session a = tiny_builder(Algo::Hanayo, 2, 4, 2).build();
  const Batch batch_a = synthetic_batch(kTiny, a.batch_rows(), rng);
  a.run(batch_a, 3);
  a.save_checkpoint(path);

  // Restore under (P=4, W=1): different depth, wave count and partition.
  Session b = tiny_builder(Algo::Hanayo, 4, 8, 1).seed(123).build();
  b.load_checkpoint(path);

  const auto pa = a.snapshot_params();
  const auto pb = b.snapshot_params();
  ASSERT_EQ(pa.size(), pb.size());
  for (const auto& [name, value] : pa) {
    const auto it = pb.find(name);
    ASSERT_NE(it, pb.end()) << name;
    const auto& fa = value.flat();
    const auto& fb = it->second.flat();
    ASSERT_EQ(fa.size(), fb.size()) << name;
    for (size_t i = 0; i < fa.size(); ++i) {
      ASSERT_EQ(fa[i], fb[i]) << name << "[" << i << "]";
    }
  }
  std::filesystem::remove(path);
}

TEST(Session, FullStateCheckpointResumesTraining) {
  const std::string path = temp_ckpt("hanayo_api_ckpt_full.bin");
  Rng rng(13);
  const Batch batch = [&] {
    Session probe = tiny_builder(Algo::Dapple, 2, 4, 1).build();
    return synthetic_batch(kTiny, probe.batch_rows(), rng);
  }();

  Session a = tiny_builder(Algo::Dapple, 2, 4, 1).build();
  a.run(batch, 2);
  a.save_checkpoint(path, /*include_optimizer=*/true);
  const float continued = a.step(batch).loss;

  Session b = tiny_builder(Algo::Dapple, 2, 4, 1).seed(555).build();
  b.load_checkpoint(path);
  const float resumed = b.step(batch).loss;
  EXPECT_NEAR(continued, resumed, kTol);
  std::filesystem::remove(path);
}

// ---- Reference backend checkpoints interoperate ------------------------

TEST(Session, ReferenceAndThreadCheckpointsInteroperate) {
  const std::string path = temp_ckpt("hanayo_api_ckpt_ref.bin");
  Rng rng(21);

  Session threads = tiny_builder(Algo::Hanayo, 2, 4, 1).build();
  const Batch batch = synthetic_batch(kTiny, threads.batch_rows(), rng);
  threads.run(batch, 2);
  threads.save_checkpoint(path);

  Session ref =
      tiny_builder(Algo::Hanayo, 2, 4, 1).backend(BackendKind::Reference).seed(99).build();
  ref.load_checkpoint(path);
  const auto pa = threads.snapshot_params();
  const auto pb = ref.snapshot_params();
  ASSERT_EQ(pa.size(), pb.size());
  for (const auto& [name, value] : pa) {
    const auto& fa = value.flat();
    const auto& fb = pb.at(name).flat();
    ASSERT_EQ(fa.size(), fb.size()) << name;
    for (size_t i = 0; i < fa.size(); ++i) {
      ASSERT_EQ(fa[i], fb[i]) << name << "[" << i << "]";
    }
  }
  std::filesystem::remove(path);
}

// ---- Async backend -----------------------------------------------------

TEST(Session, AsyncBackendReportsPerStepLossesAndStash) {
  Session s = tiny_builder(Algo::Hanayo, 4, 8, 1)
                  .backend(BackendKind::Async)
                  .learning_rate(0.02f)
                  .build();
  Rng rng(3);
  const Batch batch = synthetic_batch(kTiny, s.batch_rows(), rng);
  const RunReport rep = s.run(batch, 6);
  ASSERT_EQ(rep.steps.size(), 6u);
  EXPECT_EQ(rep.backend, BackendKind::Async);
  // Losses fall over the stream (same fixed batch).
  EXPECT_LT(rep.steps.back().loss, rep.steps.front().loss);
  // The stash ledger is populated for all P devices.
  ASSERT_EQ(rep.memory.stash_bytes.size(), 4u);
  ASSERT_EQ(rep.memory.stash_entries.size(), 4u);
  EXPECT_NE(rep.to_string().find("PipeDream"), std::string::npos);
}

// ---- Out-of-vocabulary ids fail at the API boundary ---------------------

TEST(Session, OutOfVocabIdsAreRejectedBeforeAnyWorkerRuns) {
  // An id the embedding (inputs) or the loss (targets) cannot index used to
  // throw inside one pipeline worker while its peers blocked forever. The
  // session now rejects the batch up front, naming the id and its
  // position, and the rejected call leaves no trace: the next valid step
  // matches, bit for bit, a session that never saw the bad batch.
  for (const BackendKind kind : {BackendKind::Threads, BackendKind::Reference,
                                 BackendKind::Async}) {
    const int W = kind == BackendKind::Async ? 1 : 2;
    Session s = tiny_builder(Algo::Hanayo, 2, 4, W).backend(kind).build();
    Session clean = tiny_builder(Algo::Hanayo, 2, 4, W).backend(kind).build();
    Rng rng(8);
    const Batch good = synthetic_batch(kTiny, s.batch_rows(), rng);
    Batch bad_input = good;  // value copies
    bad_input.inputs[5] = 999.0f;
    Batch bad_target = good;
    bad_target.targets[3] = static_cast<float>(kTiny.vocab);

    try {
      hanayo_test::within_limit([&] { return s.step(bad_input); });
      ADD_FAILURE() << "out-of-vocab input accepted";
    } catch (const std::invalid_argument& e) {
      const std::string msg = e.what();
      EXPECT_NE(msg.find("inputs"), std::string::npos) << msg;
      EXPECT_NE(msg.find("999"), std::string::npos) << msg;
      EXPECT_NE(msg.find("position 5"), std::string::npos) << msg;
    }
    try {
      hanayo_test::within_limit([&] { return s.run(bad_target, 2); });
      ADD_FAILURE() << "out-of-vocab target accepted";
    } catch (const std::invalid_argument& e) {
      const std::string msg = e.what();
      EXPECT_NE(msg.find("targets"), std::string::npos) << msg;
      EXPECT_NE(msg.find("37"), std::string::npos) << msg;
      EXPECT_NE(msg.find("position 3"), std::string::npos) << msg;
    }
    EXPECT_TRUE(s.report().steps.empty());

    const float loss =
        hanayo_test::within_limit([&] { return s.step(good); }).loss;
    EXPECT_EQ(loss, clean.step(good).loss) << backend_name(kind);
  }
}

// ---- The doc-comment quickstart from core/hanayo.hpp compiles ----------

TEST(Session, DocCommentQuickstartCompilesAndRuns) {
  auto session = hanayo::Session::builder()
                     .model(hanayo::ModelConfig::tiny(/*layers=*/14))
                     .algo(hanayo::Algo::Hanayo)
                     .pipeline(4)
                     .micro_batches(8)
                     .waves(2)
                     .backend(hanayo::BackendKind::Threads)
                     .build();
  hanayo::Rng rng(7);
  const auto batch = hanayo::synthetic_batch(session.config().model,
                                             session.batch_rows(), rng);
  const float loss = session.step(batch).loss;
  EXPECT_TRUE(std::isfinite(loss));

  hanayo::PlanRequest req;
  req.model = hanayo::ModelConfig::tiny(14);
  req.cluster = hanayo::Cluster::tacc(4);
  req.total_devices = 4;
  req.batch_sequences = 8;
  const auto plans = hanayo::plan(req);
  EXPECT_FALSE(plans.empty());
}
