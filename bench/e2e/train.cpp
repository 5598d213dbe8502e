// Training workloads: the Hanayo wave schedule on live worker threads.
//
//   train_wave  P=4, W=2, B=8, dp=1, tiny(16, 64, 4, 512, 32). The paper's
//               wave schedule at its deepest local shape: per-action compute
//               is small, so pipeline idle time, P2P hand-offs and per-step
//               orchestration carry a large share of the step.
//   train_dp    P=2, W=2, B=4, dp=2, tiny(12, 192, 6, 1024, 64). The same
//               layers with 9x the matmul FLOPs per token and a
//               cross-replica gradient allreduce ending every step: kernel
//               and collective changes show here, not on train_wave.

#include <algorithm>
#include <cmath>
#include <optional>

#include "core/hanayo.hpp"
#include "harness.hpp"
#include "tensor/alloc_stats.hpp"

namespace bench {

namespace {

using namespace hanayo;
using runtime::serve_clock_s;

struct TrainShape {
  int P, B, W, dp;
  ModelConfig model;
};

TrainShape shape_for(const std::string& workload) {
  if (workload == "train_wave") {
    return {4, 8, 2, 1, ModelConfig::tiny(16, 64, 4, 512, 32)};
  }
  return {2, 4, 2, 2, ModelConfig::tiny(12, 192, 6, 1024, 64)};
}

constexpr uint64_t kWeightSeed = 1;  // weights are fixed; --seed drives data
constexpr int kBatches = 8;          // distinct seeded batches, cycled
constexpr int kWarmupSteps = 3;
constexpr int kMinSteps = 4;  // at least two per session in a traced run
constexpr float kLossTol = 3e-4f;    // tests/runtime/test_equivalence.cpp
constexpr double kMiB = 1024.0 * 1024.0;

Session::Builder builder(const TrainShape& s) {
  Session::Builder b = Session::builder();
  b.model(s.model)
      .algo(Algo::Hanayo)
      .pipeline(s.P)
      .micro_batches(s.B)
      .waves(s.W)
      .data_parallel(s.dp)
      .mb_sequences(1)
      .optimizer(OptKind::Sgd)
      .learning_rate(0.05f)
      .seed(kWeightSeed);
  return b;
}

/// One traced step taken apart from RunReport::timeline (replica 0's P
/// ranks; span times are relative to the step's start).
struct Anatomy {
  double launch = 0, flush = 0, window = 0;  ///< seconds
  double fwd = 0, bwd = 0;                   ///< summed span seconds
  double idle_share = 0;
  double mb_wait = 0;     ///< median micro-batch: step start -> first forward
  double mb_latency = 0;  ///< median micro-batch: first -> last forward end
};

Anatomy dissect(const RunReport& rep, double wall, int B, int step_span,
                double t_step, Tracer& tr) {
  Anatomy a;
  double first = wall, last = 0.0;
  std::vector<double> enter(static_cast<size_t>(B), wall);
  std::vector<double> leave(static_cast<size_t>(B), 0.0);
  for (size_t d = 0; d < rep.timeline.size(); ++d) {
    for (const runtime::ComputeSpan& s : rep.timeline[d]) {
      first = std::min(first, s.start);
      last = std::max(last, s.end);
      (s.backward ? a.bwd : a.fwd) += s.end - s.start;
      if (!s.backward && s.mb >= 0 && s.mb < B) {
        auto m = static_cast<size_t>(s.mb);
        enter[m] = std::min(enter[m], s.start);
        leave[m] = std::max(leave[m], s.end);
      }
      tr.add(s.backward ? "B" : "F", "compute", static_cast<int>(d), s.mb,
             step_span, t_step + s.start, t_step + s.end);
    }
  }
  a.launch = first;
  a.flush = std::max(0.0, wall - last);
  a.window = last - first;
  a.idle_share = 1.0 - (a.fwd + a.bwd) /
                           (static_cast<double>(rep.timeline.size()) * wall);
  std::vector<double> lat(static_cast<size_t>(B));
  for (size_t m = 0; m < lat.size(); ++m) lat[m] = leave[m] - enter[m];
  a.mb_wait = median(enter);
  a.mb_latency = median(lat);
  const int host = static_cast<int>(rep.timeline.size());
  tr.add("launch", "runtime", host, -1, step_span, t_step, t_step + first);
  tr.add("flush", "runtime", host, -1, step_span, t_step + last, t_step + wall);
  return a;
}

double median_of(const std::vector<Anatomy>& v, double Anatomy::*field) {
  std::vector<double> xs;
  xs.reserve(v.size());
  for (const Anatomy& a : v) xs.push_back(a.*field);
  return median(xs);
}

}  // namespace

void run_train(const Options& opt, Results& res, Tracer& tr) {
  const TrainShape s = shape_for(opt.workload);
  const int64_t rows = static_cast<int64_t>(s.dp) * s.B;
  const double tokens_per_step = static_cast<double>(rows * s.model.seq);

  Rng rng(opt.seed);
  std::vector<Batch> batches;
  for (int k = 0; k < kBatches; ++k) {
    batches.push_back(synthetic_batch(s.model, rows, rng));
  }

  // Ground truth: the sequential single-worker engine on the same batches,
  // B*dp micro-batches of one sequence (tests/runtime/test_equivalence.cpp).
  std::vector<float> ref_loss;
  std::vector<double> ref_wall;
  {
    Session ref = builder(s)
                      .data_parallel(1)
                      .micro_batches(s.B * s.dp)
                      .backend(BackendKind::Reference)
                      .build();
    for (int w = 0; w < kWarmupSteps; ++w) {
      const StepReport r = ref.step(batches[w]);
      ref_loss.push_back(r.loss);
      ref_wall.push_back(r.wall_s);
    }
  }
  const double ref_tok_s = tokens_per_step / median(ref_wall);

  // Set-up = build + warm-up steps, whose losses are the output check.
  auto set_up = [&](bool timeline) {
    Session::Builder b = builder(s);
    b.record_timeline(timeline);
    Session sess = b.build();
    for (int w = 0; w < kWarmupSteps; ++w) {
      const float loss = sess.step(batches[w]).loss;
      res.check(std::fabs(loss - ref_loss[static_cast<size_t>(w)]) <= kLossTol,
                "warm-up step " + std::to_string(w) + " loss " +
                    std::to_string(loss) + " vs reference " +
                    std::to_string(ref_loss[static_cast<size_t>(w)]));
    }
    return sess;
  };
  std::vector<double> setup_walls;
  std::optional<Session> plain;
  for (int i = 0; i < opt.setups; ++i) {
    plain.reset();
    const double t0 = serve_clock_s();
    plain.emplace(set_up(false));
    setup_walls.push_back(serve_clock_s() - t0);
  }
  // Traced run: a second session records its timeline, and steps alternate
  // between the two so both see the same host conditions.
  std::optional<Session> traced;
  if (opt.traced()) traced.emplace(set_up(true));

  std::vector<double> walls, traced_walls, allocs;
  std::vector<Anatomy> anatomy;
  const double warm_step = median(setup_walls) / (kWarmupSteps + 1);
  walls.reserve(static_cast<size_t>(opt.seconds / warm_step) * 4 + 64);
  int64_t steps = 0, bad = 0;
  const double stop = serve_clock_s() + opt.seconds;
  for (int i = 0; i < kMinSteps || serve_clock_s() < stop; ++i) {
    const Batch& batch =
        batches[static_cast<size_t>((kWarmupSteps + i) % kBatches)];
    const bool use_traced = traced && i % 2 == 1;
    Session& sess = use_traced ? *traced : *plain;
    const double t0 = serve_clock_s();
    const tensor::AllocStats a0 = tensor::alloc_stats();
    const StepReport r = sess.step(batch);
    const tensor::AllocStats da = tensor::alloc_stats() - a0;
    steps += 1;
    if (!std::isfinite(r.loss)) bad += 1;
    if (!use_traced) {
      walls.push_back(r.wall_s);
      if (traced) allocs.push_back(static_cast<double>(da.allocs));
      continue;
    }
    traced_walls.push_back(r.wall_s);
    const int span = tr.add("step", "train", s.P, i, -1, t0, t0 + r.wall_s);
    anatomy.push_back(dissect(sess.report(), r.wall_s, s.B, span, t0, tr));
  }
  res.ops(steps + kWarmupSteps * (opt.setups + (traced ? 1 : 0)), bad);

  // Throughput is total tokens over total time: on a shared host slow and
  // fast periods alternate, and a median step flips between the two levels
  // from run to run where the total moves with their mix.
  const double p50 = median(walls);
  const auto n = static_cast<int64_t>(walls.size());
  double total = 0.0;
  for (double x : walls) total += x;
  const double tok_s = tokens_per_step * static_cast<double>(n) / total;
  res.metric("setup_s", median(setup_walls), "s", opt.setups);
  res.metric("rss_peak_mib", rss_peak_mib(), "MiB");
  res.metric("tokens_per_s", tok_s, "tok/s", n);
  res.metric("latency_p50_ms", p50 * 1e3, "ms", n);
  res.metric("latency_p90_ms", quantile(walls, 0.9) * 1e3, "ms", n);
  int64_t peak_act = 0;
  for (int64_t b : plain->report().memory.peak_cache_bytes) {
    peak_act = std::max(peak_act, b);
  }
  res.metric("state_peak_mib", static_cast<double>(peak_act) / kMiB, "MiB");
  res.diag("steps_beyond_p90", static_cast<double>(beyond(walls, 0.9)),
           "count");
  res.diag("reference_tokens_per_s", ref_tok_s, "tok/s",
           static_cast<int64_t>(ref_wall.size()));
  if (!traced) return;

  // ---- per-layer metrics (traced run) ----------------------------------
  const auto m = static_cast<int64_t>(anatomy.size());
  const double fwd = median_of(anatomy, &Anatomy::fwd);
  const double bwd = median_of(anatomy, &Anatomy::bwd);
  const double flush = median_of(anatomy, &Anatomy::flush);
  const double launch = median_of(anatomy, &Anatomy::launch);
  const double traced_p50 = median(traced_walls);
  perf::AnalyticParams ap;
  ap.P = s.P;
  ap.B = s.B;
  ap.W = s.W;
  ap.tf = fwd / (s.B * s.P);
  ap.tb = bwd / (s.B * s.P);
  ap.tc = 0.0;
  const double eq1 = perf::bubble_ratio_hanayo(ap);
  const double idle = median_of(anatomy, &Anatomy::idle_share);
  const schedule::Schedule* sched = traced->schedule();

  res.metric("schedule.bubble_eq1", eq1, "ratio", m);
  res.metric("schedule.p2p_msgs_per_step",
             sched->count(schedule::Op::SendAct) +
                 sched->count(schedule::Op::SendGrad),
             "count");
  res.metric("runtime.idle_share", idle, "ratio", m);
  res.metric("runtime.idle_excess", idle - eq1, "ratio", m);
  res.metric("runtime.launch_ms", launch * 1e3, "ms", m);
  res.metric("runtime.flush_ms", flush * 1e3, "ms", m);
  res.metric("runtime.flush_share", flush / traced_p50, "ratio", m);
  res.metric("runtime.pass_ms", median_of(anatomy, &Anatomy::window) * 1e3,
             "ms", m);
  res.metric("runtime.out_of_pass_share", (launch + flush) / traced_p50,
             "ratio", m);
  res.metric("runtime.queue_wait_p50_ms",
             median_of(anatomy, &Anatomy::mb_wait) * 1e3, "ms", m);
  res.metric("runtime.prefill_latency_p50_ms",
             median_of(anatomy, &Anatomy::mb_latency) * 1e3, "ms", m);
  res.metric("runtime.speedup_vs_reference", tok_s / ref_tok_s, "x", n);
  res.metric("kv.prefix_hit_rate", 0.0, "ratio");
  res.metric("kv.prefill_tokens_saved", 0.0, "tok/req");
  res.metric("kv.pages_peak", 0.0, "pages");
  res.metric("model.bwd_fwd_ratio", bwd / fwd, "ratio", m);
  res.metric("model.depth_cost_ratio", 0.0, "ratio");
  res.metric("tensor.allocs_per_step", median(allocs), "count",
             static_cast<int64_t>(allocs.size()));
  res.metric("tensor.allocs_per_decode_pass", 0.0, "count");
  const int64_t h = s.model.hidden;
  res.metric("tensor.gemm_gflops",
             probe_gemm_gflops(s.model.seq, h, 4 * h, tr), "GF/s");
  res.metric("comm.p2p_roundtrip_us",
             probe_p2p_roundtrip_us(s.model.seq * h, tr), "us");
  int64_t params = 0;
  for (const model::LayerDesc& d : s.model.layer_descs()) {
    params += d.param_count();
  }
  res.metric("comm.allreduce_ms", probe_allreduce_ms(params, tr), "ms");
  res.metric("bench.trace_overhead", traced_p50 / p50 - 1.0, "ratio", m);

  res.diag("model.fwd_ms_per_step", fwd * 1e3, "ms", m);
  res.diag("model.bwd_ms_per_step", bwd * 1e3, "ms", m);
  res.diag("traced.latency_p50_ms", traced_p50 * 1e3, "ms", m);
  res.diag("tensor.allocs_per_step_min", quantile(allocs, 0.0), "count");
  res.diag("tensor.allocs_per_step_max", quantile(allocs, 1.0), "count");
}

}  // namespace bench
