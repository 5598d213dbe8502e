#include "perf/calibrate.hpp"

#include <algorithm>
#include <chrono>
#include <stdexcept>
#include <thread>

#include "comm/communicator.hpp"
#include "model/loss.hpp"
#include "runtime/infer.hpp"
#include "tensor/rng.hpp"

namespace hanayo::perf {

namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Median round-trip seconds for a ping-pong of `elems` floats.
double pingpong_seconds(int64_t elems, int repeats) {
  comm::World world(2);
  double total = 0.0;
  std::thread echo([&] {
    comm::Communicator c(&world, 1);
    for (int r = 0; r < repeats; ++r) {
      tensor::Tensor t = c.recv(0, comm::make_tag(comm::Kind::Control, r, 0));
      c.send(0, comm::make_tag(comm::Kind::Control, r, 1), std::move(t));
    }
  });
  {
    comm::Communicator c(&world, 0);
    tensor::Tensor payload({elems});
    const auto t0 = Clock::now();
    for (int r = 0; r < repeats; ++r) {
      tensor::Tensor copy = payload;
      c.send(1, comm::make_tag(comm::Kind::Control, r, 0), std::move(copy));
      payload = c.recv(1, comm::make_tag(comm::Kind::Control, r, 1));
    }
    total = seconds_since(t0);
  }
  echo.join();
  return total / repeats;
}

}  // namespace

Calibration calibrate_compute(const model::ModelConfig& cfg, int mb_sequences,
                              int repeats) {
  if (mb_sequences < 1 || repeats < 1) {
    throw std::invalid_argument("calibrate_compute: bad arguments");
  }
  const auto descs = cfg.layer_descs();
  model::StageModule module(descs, 0, static_cast<int>(descs.size()),
                            /*seed=*/1234, cfg.init_std);

  const int64_t tokens = static_cast<int64_t>(mb_sequences) * cfg.seq;
  double total_flops = 0.0;
  for (const auto& d : descs) total_flops += d.fwd_flops(tokens);

  tensor::Rng rng(99);
  tensor::Tensor x({mb_sequences, cfg.seq});
  tensor::Tensor tgt({static_cast<int64_t>(mb_sequences) * cfg.seq});
  for (int64_t i = 0; i < x.numel(); ++i) {
    x[i] = static_cast<float>(rng.index(cfg.vocab));
    tgt[i] = static_cast<float>(rng.index(cfg.vocab));
  }

  // Warm-up pass (first touch allocates caches).
  {
    tensor::Tensor logits = module.forward(x, /*mb=*/0);
    auto [loss, dl] = model::cross_entropy(logits, tgt);
    (void)loss;
    module.backward(dl, 0);
    module.zero_grads();
  }

  double fwd_total = 0.0, bwd_total = 0.0;
  for (int r = 1; r <= repeats; ++r) {
    const auto f0 = Clock::now();
    tensor::Tensor logits = module.forward(x, r);
    fwd_total += seconds_since(f0);
    auto [loss, dl] = model::cross_entropy(logits, tgt);
    (void)loss;
    const auto b0 = Clock::now();
    module.backward(dl, r);
    bwd_total += seconds_since(b0);
    module.zero_grads();
  }

  Calibration cal;
  cal.sec_per_flop = (fwd_total / repeats) / total_flops;
  cal.bwd_fwd_ratio = fwd_total > 0 ? bwd_total / fwd_total : 2.0;
  return cal;
}

ServingCalibration measure_serving_rates(const model::ModelConfig& cfg,
                                         const Calibration& base,
                                         int64_t prompt_tokens, int repeats) {
  if (!(base.sec_per_flop > 0) || repeats < 1) {
    throw std::invalid_argument(
        "measure_serving_rates: need a compute calibration and repeats >= 1");
  }
  ServingCalibration sc;
  sc.host_cores =
      static_cast<int>(std::max(1u, std::thread::hardware_concurrency()));

  const auto descs = cfg.layer_descs();
  const int64_t plen =
      prompt_tokens > 0 ? std::clamp<int64_t>(prompt_tokens, 1, cfg.seq)
                        : std::max<int64_t>(1, cfg.seq / 2);
  model::StageModule module(descs, 0, static_cast<int>(descs.size()),
                            /*seed=*/1234, cfg.init_std);
  // One private worst-case stream at the runtime's default page size —
  // the KV path a serving replica decodes through.
  runtime::InferConfig one;
  one.model = cfg;
  runtime::KvStore store(runtime::private_stream_store(one));
  module.set_kv_store(&store);
  const auto reopen = [&] {
    store.drop_slot(0);
    (void)store.open_slot(0, {}, cfg.seq, nullptr);
  };
  tensor::Tensor prompt({1, plen});
  for (int64_t i = 0; i < plen; ++i) {
    prompt[i] = static_cast<float>(i % cfg.vocab);
  }
  // The flop model's view of a pass at context `ctx`: the same per-layer
  // counting infer_costs uses, priced at the base (training-forward) rate.
  const auto model_pass_s = [&](int64_t new_tokens, int64_t ctx) {
    double flops = 0.0;
    auto pd = descs;
    for (auto& d : pd) {
      d.seq = ctx;
      flops += d.fwd_flops(new_tokens);
    }
    return flops * base.sec_per_flop;
  };

  // Prefill rate: repeated full-prompt forward_infer passes on one slot.
  reopen();
  (void)module.decode(prompt, 0, 0);  // warm-up (first touch allocates)
  {
    const auto t0 = Clock::now();
    for (int r = 0; r < repeats; ++r) {
      reopen();
      (void)module.decode(prompt, 0, 0);
    }
    const double per_pass = seconds_since(t0) / repeats;
    sc.prefill_rate_scale = per_pass / std::max(1e-30, model_pass_s(plen, plen));
  }

  // Decode rate: single-token passes walking the context from the prompt
  // toward the model's positions, re-priming the slot when it runs out.
  // Each decode is timed individually so the re-prefills stay unbilled.
  {
    tensor::Tensor one({1, 1});
    one[0] = static_cast<float>(1 % cfg.vocab);
    double total = 0.0;
    int64_t ctx_total = 0;
    int64_t pos = plen;
    for (int r = -2; r < repeats; ++r) {  // two warm iterations
      if (pos >= cfg.seq) {
        reopen();
        (void)module.decode(prompt, 0, 0);
        pos = plen;
      }
      const auto t0 = Clock::now();
      (void)module.decode(one, pos, 0);
      if (r >= 0) {
        total += seconds_since(t0);
        ctx_total += pos + 1;
      }
      ++pos;
    }
    const double per_decode = total / repeats;
    const int64_t mean_ctx = std::max<int64_t>(1, ctx_total / repeats);
    sc.decode_rate_scale =
        per_decode / std::max(1e-30, model_pass_s(1, mean_ctx));
  }

  // Timer glitches should never produce a calibration that inverts the
  // prediction by orders of magnitude: clamp to a generous plausible band.
  sc.prefill_rate_scale = std::clamp(sc.prefill_rate_scale, 0.05, 20.0);
  sc.decode_rate_scale = std::clamp(sc.decode_rate_scale, 0.05, 20.0);
  return sc;
}

void calibrate_comm(Calibration& cal, int repeats) {
  if (repeats < 1) throw std::invalid_argument("calibrate_comm: repeats < 1");
  // Two payload sizes; each one-way time is half the round trip. Fit
  //   t(n) = latency + n * 4 bytes / bandwidth.
  constexpr int64_t kSmall = 16;
  constexpr int64_t kLarge = 1 << 20;  // 4 MiB of floats
  const double t_small = pingpong_seconds(kSmall, repeats) / 2.0;
  const double t_large = pingpong_seconds(kLarge, std::max(3, repeats / 8)) / 2.0;
  const double dbytes = static_cast<double>(kLarge - kSmall) * 4.0;
  const double dt = std::max(t_large - t_small, 1e-12);
  cal.bytes_per_s = dbytes / dt;
  cal.latency_s =
      std::max(0.0, t_small - kSmall * 4.0 / cal.bytes_per_s);
}

Calibration calibrate(const model::ModelConfig& cfg, int mb_sequences,
                      int compute_repeats, int comm_repeats) {
  Calibration cal = calibrate_compute(cfg, mb_sequences, compute_repeats);
  calibrate_comm(cal, comm_repeats);
  return cal;
}

sim::Cluster calibrated_cluster(int devices, const Calibration& cal,
                                double mem_bytes) {
  if (!cal.valid()) {
    throw std::invalid_argument("calibrated_cluster: incomplete calibration");
  }
  return sim::Cluster::uniform(devices, 1.0 / cal.sec_per_flop, mem_bytes,
                               cal.bytes_per_s, cal.latency_s);
}

sim::PipelineCosts calibrated_costs(const model::ModelConfig& cfg, int stages,
                                    int mb_sequences, const Calibration& cal) {
  if (!(cal.sec_per_flop > 0)) {
    throw std::invalid_argument("calibrated_costs: missing compute calibration");
  }
  // Start from the spec-derived structure (volumes, weights, activations),
  // then replace the time axis with the measured rate and ratio.
  sim::PipelineCosts pc = sim::compute_costs(
      cfg, stages, mb_sequences,
      sim::Cluster::uniform(1, 1.0 / cal.sec_per_flop, 1e12, 1e12, 0.0));
  for (size_t s = 0; s < pc.fwd_s.size(); ++s) {
    pc.bwd_s[s] = pc.fwd_s[s] * cal.bwd_fwd_ratio;
  }
  return pc;
}

}  // namespace hanayo::perf
