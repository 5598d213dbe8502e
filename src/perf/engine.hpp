#pragma once
// The unified planning core.
//
// Before this module, the repository carried two parallel prediction
// stacks: perf/planner.cpp owned the training glue (schedule request →
// compute_costs → simulate → Candidate) and api/inference.cpp owned an
// independent serving copy (forward-only schedule → infer_costs →
// prefill/decode simulate → ServeReport), each with its own feasibility
// checks and calibration plumbing. `perf::Engine` is the single owner of
// that spine — cluster description, calibration, both cost models (training
// fwd+bwd and forward-only + KV-byte serving) and the event simulator —
// and `perf::evaluate`/`perf::plan`, `perf::plan_serving` and
// `api::predict_serving` are thin frontends over it. One code path is what
// makes the cross-layer equalities testable: the serving planner's winning
// candidate and InferenceSession::predict() agree bit-exactly because both
// are this class.

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "model/transformer.hpp"
#include "perf/calibrate.hpp"
#include "perf/planner.hpp"
#include "runtime/infer.hpp"
#include "schedule/algorithms.hpp"
#include "sim/event_sim.hpp"

namespace hanayo::perf {

/// One fully specified training configuration (the Fig. 10 search cell).
struct TrainingPoint {
  schedule::Algo algo = schedule::Algo::Hanayo;
  int D = 1;  ///< data-parallel replicas
  int P = 1;  ///< pipeline depth
  int W = 1;  ///< waves (Hanayo) / chunks (Interleaved)
  int B = 1;  ///< micro-batches per pipeline per iteration
  int mb_sequences = 1;
};

/// One fully specified serving configuration plus its nominal load — the
/// cell of the serving planner's (algo, P, W, max_batch, dp) search. The
/// engine predicts ONE pipeline replica (replicas are independent, so dp
/// replication is exact and lives in the callers).
struct ServingPoint {
  schedule::Algo algo = schedule::Algo::Hanayo;
  int P = 1;          ///< pipeline depth
  int W = 1;          ///< waves (Hanayo) / chunks (Interleaved)
  int max_batch = 1;  ///< concurrent decode streams (KV-cache slots)
  int64_t prompt_tokens = 0;  ///< nominal prompt length; 0 = default rule
  int max_new_tokens = 16;
  /// Stop tokens shorten the modelled continuation (geometric expectation).
  std::vector<int64_t> stop_tokens;
  /// Half-precision KV pages: halves the KV bytes the cost model accounts
  /// (matching InferConfig::kv_fp16's halved slot_bytes()).
  bool kv_fp16 = false;
  /// KV page size (InferConfig::kv_page_tokens, the runtime's 16 by
  /// default): each stream's resident KV rows round up to whole pages of
  /// this many tokens, and the per-device KV budget caps at the pool's
  /// share when kv_pool_pages bounds it. Must be >= 1.
  int kv_page_tokens = 16;
  /// Per-replica pool size in pages; 0 derives max_batch worst-case
  /// full-context streams.
  int64_t kv_pool_pages = 0;
  /// Relative stage costs for scheduling-order decisions (overridden by the
  /// engine's calibration when present, exactly like effective_sched()).
  double tf = 1.0;
  double tb = 2.0;
};

/// Raw event-sim numbers for one simulated pipeline pass: the makespan the
/// uncalibrated model reports, plus the summed per-rank busy seconds the
/// serving calibration's oversubscription bound needs (on a host with
/// fewer cores than dp * P workers, the pass cannot finish faster than its
/// serial compute divided by the cores). Kept on the prediction so
/// Engine::calibrated_serving can re-price a point for any dp without
/// re-simulating — the serving planner evaluates each (algo, P, W, batch)
/// cell once and derives every dp candidate from it.
struct PassSim {
  double makespan_s = 0.0;
  double busy_s = 0.0;
  /// Pipeline worker threads per replica (= P); prices the calibration's
  /// per-worker orchestration term.
  int workers = 0;
};

/// The engine's forward-only timeline prediction for one pipeline replica.
/// `per_replica` follows the runtime::ServeStats conventions (one full
/// batch of prompts served to completion), so api::predict_serving and
/// perf::plan_serving both read the same numbers the same way.
struct ServePrediction {
  bool feasible = true;  ///< stage/algorithm/causality constraints satisfied
  std::string note;      ///< infeasibility diagnosis
  int steps = 0;         ///< expected generated tokens per sequence
  int64_t prompt_tokens = 0;  ///< resolved nominal prompt length
  runtime::ServeStats per_replica;  ///< nominal one-replica load + timings
  /// Decode-pass latency quantiles (seconds). Per-pass latency grows
  /// monotonically with the KV context, so the p-th latency quantile is the
  /// pass at the p-th context depth — simulated exactly, not sampled.
  /// Filled when evaluate_serving is called with quantiles on.
  double p50_token_latency_s = 0.0;
  double p99_token_latency_s = 0.0;
  /// Raw per-pass simulations (rate-scaled when the engine carries a
  /// serving calibration, but before the dp-dependent oversubscription
  /// bound and the per-pass overhead): one full-batch prefill, the
  /// mean-context decode pass, and the quantile-context decode passes
  /// (zero unless quantiles were requested). Engine::calibrated_serving
  /// re-prices these for a concrete dp.
  PassSim prefill_sim;
  PassSim decode_sim;
  PassSim p50_sim;
  PassSim p99_sim;
  /// One prefill pass priced with NO concurrent replica (dp = 1): the
  /// light-traffic floor of the TTFT service component. predict_load
  /// interpolates between this and the full-batch, all-replicas-colliding
  /// wall (per_replica.prefill_s / prefill_passes) as utilization rises.
  double prefill_pass_solo_s = 0.0;
  /// Per-device memory model: resident weights (state factor 1 — serving
  /// holds no grads/optimizer) and the most loaded device's weights + all
  /// max_batch slots' full-context KV. `oom` when the latter exceeds the
  /// cluster's per-device capacity — the serving planner's pruning signal.
  double weight_mem_gb = 0.0;
  double peak_mem_gb = 0.0;
  double kv_gb = 0.0;  ///< full-context KV across the replica's devices
  bool oom = false;
};

/// An open-loop load point: what arrives, how patient it is, how much may
/// wait. Evaluated against a ServePrediction by predict_load.
struct LoadPoint {
  double offered_req_s = 0.0;  ///< open-loop arrival rate (requests/s)
  double deadline_s = 0.0;     ///< per-request SLA from enqueue; 0 = none
  int queue_cap = 0;           ///< bounded admission queue; 0 = unbounded
};

/// Fluid (M/D/1-flavoured) overload model with a distributional tail.
/// Service is batch-amortised from the prediction's busy seconds: one
/// replica turns a full batch around in prefill_s + decode_s, so its rate
/// is requests / that, and capacity is dp times it. Sub-critical load
/// queues with the M/D/1 mean-wait shape, and the wait *distribution* is
/// approximated with the classic exponential tail (wait exceeded with
/// probability rho * exp(-t / W_cond)), floored by the batch-admission
/// granularity — a request that arrives mid-generation waits for slots to
/// free at a batch-turnaround cadence, not a pass cadence. That gives
/// predicted p50/p99 TTFT quantiles bench/traffic can check row-by-row
/// against its measured quantile columns. Super-critical load sheds its
/// excess — to Rejected when the queue is bounded, to DeadlineExceeded
/// when a deadline exists, or (with neither backstop) into the unbounded
/// backlog reported as backlogged_rate, so the outcome identity
///   offered == goodput + (rejected + timed-out + backlogged) * offered
/// holds on every branch. Still deliberately coarse: it exists so the
/// planner can *rank* configurations under load, not to replace
/// measurement.
struct LoadPrediction {
  double capacity_req_s = 0.0;  ///< dp * max_batch / batch turnaround
  double utilization = 0.0;     ///< offered / capacity (rho)
  double goodput_req_s = 0.0;   ///< offered minus shed, capped at capacity
  double rejected_rate = 0.0;   ///< fraction refused by the bounded queue
  double timeout_rate = 0.0;    ///< fraction expiring against the deadline
  /// Fraction stuck in an unboundedly growing queue (super-critical load
  /// with neither a queue bound nor a deadline): they are neither served
  /// nor shed within any fixed horizon. Zero whenever a backstop exists.
  double backlogged_rate = 0.0;
  double queue_wait_s = 0.0;    ///< steady-state mean admission wait
  /// Distributional TTFT quantiles (wait quantile + one prefill pass),
  /// filled whenever an offered rate is evaluated. Served requests only —
  /// capped at the deadline when one exists.
  double p50_ttft_s = 0.0;
  double p99_ttft_s = 0.0;
};

/// Evaluates `load` against a one-replica prediction replicated over `dp`.
LoadPrediction predict_load(const ServePrediction& one_replica, int dp,
                            const LoadPoint& load);

/// Hook for cost transforms between the cost model and the simulator (the
/// tensor-parallel overlay of perf/hybrid shards and taxes the costs here).
using CostAdjust = std::function<void(sim::PipelineCosts&)>;

class Engine {
 public:
  /// The engine owns the (model, cluster, calibration) triple every
  /// prediction is made against. A valid calibration replaces the paper's
  /// drawn T_B = 2 T_F in schedule ordering and backward costs. A valid
  /// *serving* calibration additionally corrects the forward-only pass
  /// costs (measured prefill/decode rate scales inside the simulation,
  /// fitted per-pass overhead + oversubscription bound via
  /// calibrated_serving); absent, every serving prediction is bit-identical
  /// to the uncalibrated model.
  Engine(model::ModelConfig model, sim::Cluster cluster,
         std::optional<Calibration> calibration = std::nullopt,
         std::optional<ServingCalibration> serving_calibration = std::nullopt);

  const model::ModelConfig& model() const { return model_; }
  const sim::Cluster& cluster() const { return cluster_; }
  const std::optional<Calibration>& calibration() const { return cal_; }
  const std::optional<ServingCalibration>& serving_calibration() const {
    return scal_;
  }

  /// Evaluates one training configuration: schedule → costs → event sim →
  /// Candidate (throughput over all D replicas, bubble ratio, peak memory,
  /// OOM). `adjust`, when given, rewrites the stage costs before the
  /// simulation (tensor-parallel sharding, what-if analyses).
  Candidate evaluate_training(const TrainingPoint& pt,
                              const CostAdjust& adjust = nullptr) const;

  /// Evaluates one serving configuration: forward-only schedule, one
  /// full-batch prefill pass plus expected-length decode passes, each
  /// event-simulated; KV-byte and weight memory accounting. With
  /// `quantiles`, additionally simulates the p50/p99 context depths. With
  /// `skip_sim_if_oom`, an over-memory configuration returns after the
  /// (cheap) memory model with zero timings — the serving planner's
  /// pruning, folded into one call so the cost model runs once per cell.
  /// Infeasibility is a result, not an exception (the planner prints it).
  ServePrediction evaluate_serving(const ServingPoint& pt,
                                   bool quantiles = false,
                                   bool skip_sim_if_oom = false) const;

  /// The cheap half of evaluate_serving: feasibility plus the per-device
  /// weight/KV memory model, no event simulation.
  ServePrediction prune_serving(const ServingPoint& pt) const;

  /// Re-prices a prediction's pass timings for a deployment of `dp`
  /// replicas under the engine's serving calibration: each pass's wall is
  ///   max(makespan, oversub_factor * dp * busy / host_cores)
  ///     + pass_overhead_s,
  /// applied to the prefill, mean-decode and quantile passes recorded in
  /// the prediction (no re-simulation — a cheap per-dp transform, which is
  /// what lets plan_serving keep one engine evaluation per cell). Without
  /// a valid serving calibration the prediction is returned unchanged, so
  /// uncalibrated callers stay bit-identical.
  ServePrediction calibrated_serving(ServePrediction pred, int dp) const;

  /// One pass's calibrated wall seconds (the transform above).
  double calibrated_pass_s(const PassSim& pass, int dp) const;

  /// The schedule request a point lowers to: calibration's measured tb/tf
  /// ratio applied to the ordering costs (the effective_sched() rule).
  schedule::ScheduleRequest sched_request(schedule::Algo algo, int P, int W,
                                          int B, double tf = 1.0,
                                          double tb = 2.0) const;

  /// Expected per-sequence continuation length under stop tokens: each
  /// generated token approximated as uniform over the vocabulary, so s
  /// distinct stop ids stop with p = s/V per token and the expectation is
  /// the capped geometric partial sum. (An approximation by construction —
  /// real logits are anything but uniform; it exists so dp/SLA planning can
  /// account for early exits at all. Measured backends report real lengths.)
  static int expected_new_tokens(int max_new_tokens,
                                 const std::vector<int64_t>& stop_tokens,
                                 int64_t vocab);

  /// The nominal prompt length serving predictions default to: half the
  /// model's positions, clamped so prompt + continuation fits. Shared with
  /// InferenceConfig::effective_prompt_tokens — one rule, one definition.
  static int64_t default_prompt_tokens(const model::ModelConfig& model,
                                       int max_new_tokens);

 private:
  enum class SimPolicy { Always, UnlessOom, Never };
  ServePrediction serving_impl(const ServingPoint& pt, SimPolicy policy,
                               bool quantiles) const;

  model::ModelConfig model_;
  sim::Cluster cluster_;
  std::optional<Calibration> cal_;
  std::optional<ServingCalibration> scal_;
};

}  // namespace hanayo::perf
