#include "perf/engine.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>

#include "sim/memory.hpp"

namespace hanayo::perf {

using schedule::Algo;

Engine::Engine(model::ModelConfig model, sim::Cluster cluster,
               std::optional<Calibration> calibration,
               std::optional<ServingCalibration> serving_calibration)
    : model_(std::move(model)),
      cluster_(std::move(cluster)),
      cal_(std::move(calibration)),
      scal_(std::move(serving_calibration)) {}

schedule::ScheduleRequest Engine::sched_request(Algo algo, int P, int W, int B,
                                                double tf, double tb) const {
  schedule::ScheduleRequest req;
  req.algo = algo;
  req.P = P;
  req.B = B;
  req.waves = W;
  req.vchunks = W;
  req.tf = tf;
  req.tb = tb;
  if (cal_ && cal_->bwd_fwd_ratio > 0) req.tb = req.tf * cal_->bwd_fwd_ratio;
  return req;
}

Candidate Engine::evaluate_training(const TrainingPoint& pt,
                                    const CostAdjust& adjust) const {
  Candidate c;
  c.algo = pt.algo;
  c.D = pt.D;
  c.P = pt.P;
  c.W = pt.W;
  c.B = pt.B;
  c.mb_sequences = pt.mb_sequences;

  if (pt.algo == Algo::Chimera && (pt.P % 2 != 0 || pt.B < 2)) {
    c.feasible = false;
    c.note = "Chimera needs even P and B >= 2";
    return c;
  }

  const schedule::ScheduleRequest req =
      sched_request(pt.algo, pt.P, pt.W, pt.B);
  const int S = schedule::stages_for(req);
  const int total_layers = static_cast<int>(model_.layer_descs().size());
  if (S > total_layers) {
    c.feasible = false;
    c.note = "stages (" + std::to_string(S) + ") exceed layers (" +
             std::to_string(total_layers) + ")";
    return c;
  }
  const schedule::Schedule sched = schedule::make_schedule(req);
  sim::PipelineCosts costs = sim::compute_costs(
      model_, S, pt.mb_sequences, cluster_, /*recompute=*/false,
      cal_ && cal_->bwd_fwd_ratio > 0 ? cal_->bwd_fwd_ratio
                                      : sim::kBwdFwdRatio);
  if (adjust) adjust(costs);
  sim::SimOptions opt;
  opt.dp = pt.D;
  // Chimera's second weight copy is part of the algorithm (not DP), so the
  // replica pair shares the pipeline's devices; everything else uses one
  // block of P devices per replica.
  opt.devmap = sim::DeviceMap{pt.P, 0};
  const sim::SimResult res = sim::simulate(sched, costs, cluster_, opt);

  c.throughput_seq_s =
      res.throughput_seq_per_s(pt.B * pt.mb_sequences) * pt.D;
  c.bubble_ratio = res.bubble_ratio;
  double peak = 0.0;
  for (double x : res.peak_mem_bytes) peak = std::max(peak, x);
  c.peak_mem_gb = peak / 1e9;
  c.oom = res.oom;
  return c;
}

int Engine::expected_new_tokens(int max_new_tokens,
                                const std::vector<int64_t>& stop_tokens,
                                int64_t vocab) {
  // Only ids the model can actually emit count: a stop id outside
  // [0, vocab) never fires at runtime, so modelling it would make the
  // prediction shorter than every measured backend.
  std::vector<int64_t> uniq;
  for (int64_t id : stop_tokens) {
    if (id >= 0 && id < vocab) uniq.push_back(id);
  }
  if (uniq.empty()) return max_new_tokens;
  std::sort(uniq.begin(), uniq.end());
  uniq.erase(std::unique(uniq.begin(), uniq.end()), uniq.end());
  const double p =
      std::min(1.0, static_cast<double>(uniq.size()) /
                        static_cast<double>(std::max<int64_t>(vocab, 1)));
  if (p >= 1.0) return 1;
  const double cap = static_cast<double>(max_new_tokens);
  const double e_len = (1.0 - std::pow(1.0 - p, cap)) / p;
  return std::max(1, static_cast<int>(std::llround(e_len)));
}

int64_t Engine::default_prompt_tokens(const model::ModelConfig& model,
                                      int max_new_tokens) {
  const int64_t room = model.seq - max_new_tokens + 1;
  return std::clamp<int64_t>(model.seq / 2, 1, std::max<int64_t>(room, 1));
}

ServePrediction Engine::evaluate_serving(const ServingPoint& pt,
                                         bool quantiles,
                                         bool skip_sim_if_oom) const {
  return serving_impl(pt, skip_sim_if_oom ? SimPolicy::UnlessOom
                                          : SimPolicy::Always,
                      quantiles);
}

ServePrediction Engine::prune_serving(const ServingPoint& pt) const {
  return serving_impl(pt, SimPolicy::Never, /*quantiles=*/false);
}

ServePrediction Engine::serving_impl(const ServingPoint& pt,
                                     SimPolicy policy,
                                     bool quantiles) const {
  ServePrediction out;
  if (pt.kv_page_tokens < 1) {
    throw std::invalid_argument("evaluate_serving: kv_page_tokens must be >= 1");
  }

  // Feasibility is a result, not an exception — the point of a dry run (and
  // of a planner sweep) is to find out before building an engine.
  if (!model_.causal) {
    out.feasible = false;
    out.note = "greedy decode needs a causal model";
    return out;
  }
  if (pt.algo == Algo::Chimera || pt.algo == Algo::PipeDream) {
    out.feasible = false;
    out.note = std::string(schedule::algo_name(pt.algo)) +
               " has no forward-only program";
    return out;
  }
  schedule::ScheduleRequest req =
      sched_request(pt.algo, pt.P, pt.W, pt.max_batch, pt.tf, pt.tb);
  const int S = schedule::stages_for(req);
  const int total_layers = static_cast<int>(model_.layer_descs().size());
  if (S > total_layers) {
    out.feasible = false;
    out.note = "stages (" + std::to_string(S) + ") exceed layers (" +
               std::to_string(total_layers) + ")";
    return out;
  }

  const schedule::Schedule sched = schedule::make_forward_schedule(req);
  // Replicas are fully independent (disjoint devices, no collective), so
  // event-simulating one replica's timeline and letting the callers
  // replicate the numbers over dp is exact, not an approximation.
  sim::SimOptions opt;
  opt.dp = 1;
  opt.state_factor = 1.0;  // inference holds weights, no grads/optimizer
  opt.devmap = sim::DeviceMap{pt.P, 0};

  const double kv_elem = pt.kv_fp16 ? 2.0 : 4.0;
  const int64_t plen = pt.prompt_tokens > 0
                           ? pt.prompt_tokens
                           : default_prompt_tokens(model_, pt.max_new_tokens);
  // Stop tokens shorten the modelled continuation (see expected_new_tokens).
  const int steps =
      expected_new_tokens(pt.max_new_tokens, pt.stop_tokens, model_.vocab);
  out.steps = steps;
  out.prompt_tokens = plen;

  // Forward-only rate correction: serving passes run at measured
  // forward_infer rates, not the training-forward rate the base
  // calibration timed. Scale 1.0 (no serving calibration) multiplies the
  // costs by exactly 1.0, so the uncalibrated path stays bit-identical.
  const bool scal = scal_ && scal_->valid();
  const double prefill_scale = scal ? scal_->prefill_rate_scale : 1.0;
  const double decode_scale = scal ? scal_->decode_rate_scale : 1.0;

  // One full-batch prefill pass: every micro-batch carries a whole prompt.
  const sim::PipelineCosts prefill_costs =
      sim::infer_costs(model_, S, 1, plen, plen, cluster_, kv_elem,
                       /*kv_page_tokens=*/0, prefill_scale);

  // Memory model (the serving planner's pruning signal): per device, the
  // resident weights (sim/memory, state factor 1) plus every slot's
  // full-context KV — the steady state when max_batch streams all reach
  // their final context together.
  const std::vector<double> weight_dev =
      sim::device_weight_bytes(sched.placement, prefill_costs, 1.0);
  const int64_t final_ctx = plen + steps - 1;
  // Every stream's resident rows round up to whole pages (the allocator
  // holds the tail page either way).
  const sim::PipelineCosts full_kv =
      sim::infer_costs(model_, S, 1, final_ctx, final_ctx, cluster_, kv_elem,
                       pt.kv_page_tokens);
  std::vector<double> dev_kv(static_cast<size_t>(pt.P), 0.0);
  double kv_worst = 0.0;
  for (int d = 0; d < pt.P; ++d) {
    for (int ch = 0; ch < sched.placement.chunks_per_device(); ++ch) {
      const int stage = sched.placement.stage_of(d, ch);
      dev_kv[static_cast<size_t>(d)] +=
          full_kv.act_bytes[static_cast<size_t>(stage)] * pt.max_batch;
    }
    kv_worst += dev_kv[static_cast<size_t>(d)];
  }
  // A replica can never hold more than its pool: when max_batch
  // worst-case streams would exceed pool_bytes, the admission control
  // caps residency there — price each device its proportional share.
  const int64_t pgt = pt.kv_page_tokens;
  const int lanes = std::max(1, runtime::kv_lanes(model_));
  const int64_t pool_pages =
      pt.kv_pool_pages > 0
          ? pt.kv_pool_pages
          : static_cast<int64_t>(pt.max_batch) *
                ((model_.seq + pgt - 1) / pgt) * lanes;
  const double page_bytes = 2.0 * static_cast<double>(pgt) *
                            static_cast<double>(model_.hidden) * kv_elem;
  const double pool_bytes = static_cast<double>(pool_pages) * page_bytes;
  if (kv_worst > pool_bytes && kv_worst > 0.0) {
    const double f = pool_bytes / kv_worst;
    for (double& x : dev_kv) x *= f;
  }
  double peak = 0.0, wmax = 0.0, kv_total = 0.0;
  for (int d = 0; d < pt.P; ++d) {
    kv_total += dev_kv[static_cast<size_t>(d)];
    wmax = std::max(wmax, weight_dev[static_cast<size_t>(d)]);
    const double dev_total =
        weight_dev[static_cast<size_t>(d)] + dev_kv[static_cast<size_t>(d)];
    peak = std::max(peak, dev_total);
    if (dev_total > cluster_.mem_bytes) out.oom = true;
  }
  out.weight_mem_gb = wmax / 1e9;
  out.peak_mem_gb = peak / 1e9;
  out.kv_gb = kv_total / 1e9;

  // Per-replica nominal load: one full batch of prompts to completion.
  // submitted == completed == requests: the nominal closed-loop batch sheds
  // nothing, so predictions satisfy the same outcome-conservation identity
  // as measured ServeStats.
  runtime::ServeStats& per = out.per_replica;
  per.requests = pt.max_batch;
  per.submitted = pt.max_batch;
  per.completed = pt.max_batch;
  per.prompt_tokens = static_cast<int64_t>(pt.max_batch) * plen;
  per.generated_tokens = static_cast<int64_t>(pt.max_batch) * steps;
  per.prefill_passes = 1;
  per.decode_passes = steps - 1;
  // KV rows resident at the end: the page-rounded, pool-capped residency
  // computed above.
  per.peak_kv_bytes = static_cast<int64_t>(kv_total);
  if (policy == SimPolicy::Never) return out;
  if (policy == SimPolicy::UnlessOom && out.oom) return out;

  const sim::SimResult prefill =
      sim::simulate(sched, prefill_costs, cluster_, opt);
  out.prefill_sim = PassSim{prefill.makespan, prefill.total_busy(), pt.P};

  // steps - 1 decode passes (the prefill emits the first token), costed at
  // the mean KV-cache depth of the decode phase.
  if (steps > 1) {
    const int64_t mean_ctx = plen + steps / 2;
    const sim::PipelineCosts decode_costs =
        sim::infer_costs(model_, S, 1, 1, mean_ctx, cluster_, kv_elem,
                         /*kv_page_tokens=*/0, decode_scale);
    const sim::SimResult decode =
        sim::simulate(sched, decode_costs, cluster_, opt);
    out.decode_sim = PassSim{decode.makespan, decode.total_busy(), pt.P};
  }
  // The calibrated transform is the identity without a serving calibration
  // (raw makespans pass through bit-exactly); with one, the dp = 1
  // oversubscription bound and the per-pass overhead land here, and
  // calibrated_serving re-prices the recorded PassSims for any other dp.
  per.prefill_s = calibrated_pass_s(out.prefill_sim, 1);
  per.decode_s = calibrated_pass_s(out.decode_sim, 1) * (steps - 1);
  out.prefill_pass_solo_s = calibrated_pass_s(out.prefill_sim, 1);

  // Decode-latency quantiles: pass t of 1..steps-1 attends over context
  // plen + t, and pass latency is monotone in context, so the p-th latency
  // quantile is exactly the pass at the p-th context depth. Nearest-rank
  // (ceil) indexing: p99 of n <= 100 passes is the deepest pass — an SLA
  // bound checked against it errs on the safe side.
  if (quantiles && steps > 1) {
    const int n = steps - 1;
    const auto pass_at = [&](double q) {
      const int t =
          std::min(n, std::max(1, static_cast<int>(std::ceil(q * n))));
      const sim::PipelineCosts qc =
          sim::infer_costs(model_, S, 1, 1, plen + t, cluster_, kv_elem,
                           /*kv_page_tokens=*/0, decode_scale);
      const sim::SimResult res = sim::simulate(sched, qc, cluster_, opt);
      return PassSim{res.makespan, res.total_busy(), pt.P};
    };
    out.p50_sim = pass_at(0.5);
    out.p99_sim = pass_at(0.99);
    out.p50_token_latency_s = calibrated_pass_s(out.p50_sim, 1);
    out.p99_token_latency_s = calibrated_pass_s(out.p99_sim, 1);
  }
  return out;
}

double Engine::calibrated_pass_s(const PassSim& pass, int dp) const {
  if (!scal_ || !scal_->valid() || pass.makespan_s <= 0.0) {
    return pass.makespan_s;
  }
  double wall = pass.makespan_s;
  double busy = pass.busy_s;
  if (scal_->worker_overhead_s > 0.0 && pass.workers > 0) {
    // Per-worker orchestration is CPU work: it stretches the pass's
    // critical path and competes for cores like the compute does.
    const double orch = scal_->worker_overhead_s * pass.workers;
    wall += orch;
    busy += orch;
  }
  if (scal_->oversub_factor > 0.0 && scal_->host_cores > 0) {
    wall = std::max(wall, scal_->oversub_factor * std::max(1, dp) * busy /
                              scal_->host_cores);
  }
  return wall + scal_->pass_overhead_s;
}

ServePrediction Engine::calibrated_serving(ServePrediction pred,
                                           int dp) const {
  if (!scal_ || !scal_->valid() || !pred.feasible) return pred;
  runtime::ServeStats& per = pred.per_replica;
  per.prefill_s = calibrated_pass_s(pred.prefill_sim, dp) *
                  std::max(1, per.prefill_passes);
  per.decode_s = calibrated_pass_s(pred.decode_sim, dp) * per.decode_passes;
  pred.prefill_pass_solo_s = calibrated_pass_s(pred.prefill_sim, 1);
  if (pred.p50_sim.makespan_s > 0.0) {
    pred.p50_token_latency_s = calibrated_pass_s(pred.p50_sim, dp);
  }
  if (pred.p99_sim.makespan_s > 0.0) {
    pred.p99_token_latency_s = calibrated_pass_s(pred.p99_sim, dp);
  }
  return pred;
}

LoadPrediction predict_load(const ServePrediction& one_replica, int dp,
                            const LoadPoint& load) {
  LoadPrediction out;
  const runtime::ServeStats& per = one_replica.per_replica;
  const double turnaround = per.prefill_s + per.decode_s;
  if (!one_replica.feasible || turnaround <= 0.0 || per.requests < 1) {
    return out;
  }
  // Batch-amortised service: one replica turns per.requests (a full batch)
  // around in `turnaround` busy seconds.
  const double replica_rate = static_cast<double>(per.requests) / turnaround;
  out.capacity_req_s = std::max(1, dp) * replica_rate;
  if (load.offered_req_s <= 0.0) return out;
  const double rho = load.offered_req_s / out.capacity_req_s;
  out.utilization = rho;

  // One full-batch prefill pass: the service component of TTFT.
  const double prefill_wall =
      per.prefill_passes > 0
          ? per.prefill_s / static_cast<double>(per.prefill_passes)
          : per.prefill_s;
  // TTFT quantiles of the *served* requests never exceed the deadline (a
  // request past it completes as DeadlineExceeded, not as a slow serve).
  const auto cap_ttft = [&] {
    if (load.deadline_s > 0.0) {
      out.p50_ttft_s = std::min(out.p50_ttft_s, load.deadline_s);
      out.p99_ttft_s = std::min(out.p99_ttft_s, load.deadline_s);
    }
  };

  if (rho < 1.0) {
    // Sub-critical. Continuous batching gives the cluster requests*dp
    // concurrent slots, each turning a request around in `turnaround`
    // seconds — an M/M/c queue, not a single server with a batch-sized
    // quantum. The delay probability is Erlang C (the recurrence builds
    // Erlang B, then converts); waits beyond it decay exponentially at the
    // queue's drain margin, Wc = turnaround / (c * (1 - rho)).
    const double c_slots =
        static_cast<double>(per.requests) * std::max(1, dp);
    const double a = rho * c_slots;  // offered load in erlangs
    double erlang_b = 1.0;
    for (int k = 1; k <= static_cast<int>(c_slots); ++k) {
      erlang_b = a * erlang_b / (k + a * erlang_b);
    }
    const double p_wait =
        std::min(1.0, erlang_b / std::max(1e-12, 1.0 - rho * (1.0 - erlang_b)));
    // Deterministic-service correction: a slot's turnaround has almost no
    // variance (fixed batch shape, fixed token budget), and M/D/c waits
    // are half the exponential-service ones (exactly so at c = 1).
    const double w_cond = 0.5 * turnaround / (c_slots * (1.0 - rho));
    // A bounded admission queue bounds the wait even below saturation:
    // nobody queues behind more than queue_cap requests, and a full queue
    // drains at capacity. This also keeps the near-critical 1/(1-rho)
    // blow-up finite.
    const double wait_cap = load.queue_cap > 0
                                ? load.queue_cap / out.capacity_req_s
                                : std::numeric_limits<double>::infinity();
    out.queue_wait_s = std::min(p_wait * w_cond, wait_cap);
    const auto wait_q = [&](double q) {
      const double w = (1.0 - q) >= p_wait
                           ? 0.0
                           : w_cond * std::log(p_wait / (1.0 - q));
      return std::min(w, wait_cap);
    };
    // TTFT service component: the full-batch, all-replicas-colliding
    // prefill wall is the saturated limit. A light-traffic arrival
    // prefills (nearly) alone — no other replica contends for the cores
    // (the solo wall) and few other sequences share its pass (the
    // expected co-batch 1 + rho*(B-1) of B). Both contention terms rise
    // linearly with utilization.
    const double solo =
        one_replica.prefill_pass_solo_s > 0.0
            ? std::min(one_replica.prefill_pass_solo_s, prefill_wall)
            : prefill_wall;
    const double collide = solo + rho * (prefill_wall - solo);
    const double batch_frac =
        (1.0 + rho * (static_cast<double>(per.requests) - 1.0)) /
        static_cast<double>(per.requests);
    const double service_ttft = collide * batch_frac;
    out.p50_ttft_s = wait_q(0.5) + service_ttft;
    out.p99_ttft_s = wait_q(0.99) + service_ttft;
    cap_ttft();
    // A deadline shorter than the typical wait + first-token latency sheds
    // the late fraction even below saturation.
    const double latency = out.queue_wait_s + service_ttft;
    if (load.deadline_s > 0.0 && latency > load.deadline_s) {
      out.timeout_rate = std::min(1.0, 1.0 - load.deadline_s / latency);
    }
    out.goodput_req_s = load.offered_req_s * (1.0 - out.timeout_rate);
    return out;
  }

  // Super-critical: the fluid limit sheds the excess arrival fraction.
  // Where it goes depends on which backstop exists: a bounded queue
  // rejects at admission, a deadline expires the queued overflow, and with
  // neither the queue grows without bound — that mass is `backlogged_rate`
  // (neither served nor shed within any fixed horizon), so the outcome
  // identity offered == goodput + shed holds on this branch too.
  const double shed = 1.0 - 1.0 / rho;
  if (load.queue_cap > 0) {
    out.rejected_rate = shed;
    // A full queue drains at capacity: the admitted request's wait.
    out.queue_wait_s = load.queue_cap / out.capacity_req_s;
    if (load.deadline_s > 0.0 && out.queue_wait_s > load.deadline_s) {
      // The queue is deeper than the deadline allows: the back of it
      // expires before service — split the shed mass accordingly.
      out.timeout_rate =
          (1.0 - shed) *
          std::min(1.0, 1.0 - load.deadline_s / out.queue_wait_s);
    }
  } else if (load.deadline_s > 0.0) {
    out.timeout_rate = shed;
    out.queue_wait_s = load.deadline_s;  // waits cluster at the deadline
  } else {
    // No backstop: the excess fraction accumulates in the queue instead of
    // being shed. Report a wait proportional to the overload.
    out.backlogged_rate = shed;
    out.queue_wait_s = (rho - 1.0) * turnaround * 10.0;
  }
  // Admitted-and-served requests waited somewhere between an empty and a
  // full backstop queue: uniform residual between 0 and the drain time.
  out.p50_ttft_s = 0.5 * out.queue_wait_s + prefill_wall;
  out.p99_ttft_s = out.queue_wait_s + prefill_wall;
  cap_ttft();
  out.goodput_req_s =
      std::min(out.capacity_req_s,
               load.offered_req_s * (1.0 - out.rejected_rate -
                                     out.timeout_rate - out.backlogged_rate));
  return out;
}

ServingCalibration calibrate_serving(const model::ModelConfig& cfg,
                                     const sim::Cluster& cluster,
                                     const std::optional<Calibration>& cal,
                                     const std::vector<ServingSample>& rows,
                                     const ServingCalibration& seed) {
  ServingCalibration out = seed;
  out.pass_overhead_s = 0.0;
  out.worker_overhead_s = 0.0;
  out.oversub_factor = 0.0;
  out.residual_log_rms = 0.0;
  out.fit_rows = 0;

  // Predict each row with the measured rate scales applied but the fitted
  // terms zeroed: the residual against the raw makespan is then
  // attributable to orchestration + oversubscription alone.
  const Engine eng(cfg, cluster, cal, out);
  struct Obs {
    double makespan = 0.0;       // rate-scaled pipeline makespan (s)
    double busy = 0.0;           // rate-scaled summed busy seconds
    double dp_per_core = 0.0;    // dp / host_cores
    int workers = 0;             // pipeline workers per replica (P)
    double meas = 0.0;           // measured wall per pass (s)
  };
  std::vector<Obs> obs;
  const double cores = out.host_cores > 0 ? out.host_cores : 1.0;
  for (const ServingSample& r : rows) {
    if (r.measured_decode_pass_s <= 0.0 && r.measured_prefill_pass_s <= 0.0) {
      continue;
    }
    ServingPoint pt;
    pt.algo = r.algo;
    pt.P = r.P;
    pt.W = r.W;
    pt.max_batch = r.max_batch;
    pt.prompt_tokens = r.prompt_tokens;
    pt.max_new_tokens = r.max_new_tokens;
    const ServePrediction pred = eng.evaluate_serving(pt);
    if (!pred.feasible) continue;
    const double dpc = static_cast<double>(std::max(1, r.dp)) / cores;
    if (r.measured_decode_pass_s > 0.0 && pred.decode_sim.makespan_s > 0.0) {
      obs.push_back({pred.decode_sim.makespan_s, pred.decode_sim.busy_s, dpc,
                     r.P, r.measured_decode_pass_s});
    }
    if (r.measured_prefill_pass_s > 0.0 && pred.prefill_sim.makespan_s > 0.0) {
      obs.push_back({pred.prefill_sim.makespan_s, pred.prefill_sim.busy_s,
                     dpc, r.P, r.measured_prefill_pass_s});
    }
  }
  if (obs.empty()) return out;

  // meas = max(makespan + c*P, gamma * dp * (busy + c*P) / cores) + h,
  // where c is the per-worker orchestration cost and h the per-pass
  // constant. The max() kink defeats closed-form normal equations, so scan
  // (gamma, c, h) on a grid; score in log space so fast decode rows and
  // slow prefill rows weigh equally. The selection criterion is Chebyshev
  // — minimize the worst |log(meas/fit)| with the sum of squares as
  // tie-break — because the planner consumes these predictions through
  // worst-case SLA bounds: one badly mispriced configuration does more
  // damage than a slightly looser average. First-best tie-break keeps
  // gamma = c = h = 0 when the rows never identify them.
  double best_g = 0.0, best_c = 0.0, best_h = 0.0;
  double best_max = 1e300, best_sse = 1e300;
  const auto pass_fit = [](const Obs& o, double g, double c) {
    const double orch = c * o.workers;
    return std::max(o.makespan + orch,
                    g * o.dp_per_core * (o.busy + orch));
  };
  std::vector<double> fits(obs.size());
  for (double g = 0.0; g <= 4.0 + 1e-9; g += 0.02) {
    for (double c = 0.0; c <= 200e-6 + 1e-12; c += 5e-6) {
      // Candidate h values: the residual range at this (g, c), plus the
      // least-squares mean as an anchor. h is additive so the minimax
      // optimum in log space has no closed form; a fine scan over the
      // bracket that could possibly help is cheap and exact enough.
      double lo = 1e300, hi = -1e300, mean = 0.0;
      for (size_t i = 0; i < obs.size(); ++i) {
        fits[i] = pass_fit(obs[i], g, c);
        const double r = obs[i].meas - fits[i];
        lo = std::min(lo, r);
        hi = std::max(hi, r);
        mean += r;
      }
      lo = std::max(0.0, lo);
      hi = std::max(0.0, hi);
      mean = std::max(0.0, mean / static_cast<double>(obs.size()));
      constexpr int kH = 24;
      for (int hi_idx = 0; hi_idx <= kH + 1; ++hi_idx) {
        const double h = hi_idx <= kH
                             ? lo + (hi - lo) * hi_idx / static_cast<double>(kH)
                             : mean;
        double max_abs = 0.0, sse = 0.0;
        for (size_t i = 0; i < obs.size(); ++i) {
          const double fit = fits[i] + h;
          const double e =
              std::log(std::max(1e-12, obs[i].meas) / std::max(1e-12, fit));
          max_abs = std::max(max_abs, std::abs(e));
          sse += e * e;
        }
        if (max_abs < best_max - 1e-12 ||
            (max_abs < best_max + 1e-12 && sse < best_sse - 1e-15)) {
          best_max = max_abs;
          best_sse = sse;
          best_g = g;
          best_c = c;
          best_h = h;
        }
      }
    }
  }
  out.oversub_factor = best_g;
  out.worker_overhead_s = best_c;
  out.pass_overhead_s = best_h;
  out.fit_rows = static_cast<int>(obs.size());
  out.residual_log_rms =
      std::sqrt(best_sse / static_cast<double>(obs.size()));
  return out;
}

}  // namespace hanayo::perf
