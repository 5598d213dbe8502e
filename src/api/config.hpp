#pragma once
// One configuration vocabulary for every execution path, factored along the
// task axis: `EngineConfig` is the shared core (model, schedule shape,
// engine choice, determinism and dry-run knobs) that both the training
// `SessionConfig` and the serving `InferenceConfig` extend. The builders
// fill these; each backend lowers its config to the engine's native struct
// (TrainerConfig, AsyncTrainerConfig, InferConfig, or the simulator's
// request), so the legacy structs stay as thin compatibility shims.

#include <optional>

#include "api/report.hpp"
#include "model/lr_schedule.hpp"
#include "perf/calibrate.hpp"
#include "perf/engine.hpp"
#include "runtime/async_trainer.hpp"
#include "runtime/infer.hpp"
#include "runtime/trainer.hpp"
#include "schedule/algorithms.hpp"
#include "sim/cluster.hpp"
#include "sim/cost_model.hpp"

namespace hanayo::api {

/// Configuration shared by every session type, training or serving.
struct EngineConfig {
  model::ModelConfig model;
  schedule::ScheduleRequest sched;  ///< algo, P, B, waves, vchunks, tf/tb
  BackendKind backend = BackendKind::Threads;
  /// Data-parallel replicas. Training: gradient-averaged replicas
  /// (Threads/Sim). Serving: independent pipeline replicas draining one
  /// shared request queue (runtime::InferenceServer).
  int dp = 1;
  int mb_sequences = 1;   ///< sequences per micro-batch
  uint64_t seed = 1;
  int prefetch_depth = 2;
  /// Intra-op kernel threads per worker (tensor::parallel pool). 0 = auto:
  /// 1 when the backend runs multiple worker threads of its own (so inter-op
  /// workers are not multiplied by kernel threads), all hardware threads for
  /// the single-worker Reference engine. Kernel results are bit-identical
  /// for any value (deterministic row partitioning).
  int intra_op_threads = 0;
  bool record_timeline = false;

  /// Cluster used by the Sim backend and by predict(). Defaults to a uniform
  /// dp*P-device cluster when unset (a calibration, when present, replaces
  /// the default with this machine's measured numbers).
  std::optional<sim::Cluster> cluster;
  /// Measured compute/transport parameters (perf::calibrate). When set, the
  /// lowered schedule requests use the *measured* backward/forward ratio for
  /// their ordering costs instead of the paper's drawn tb = 2 tf, and
  /// predict()/Sim fall back on a calibrated cluster — so the planner's cost
  /// model tracks the real kernel layer, not seed-era constants.
  std::optional<perf::Calibration> calibration;
  /// Measured + fitted serving-side coefficients
  /// (perf::calibrate_serving): forward-only rate scales, per-pass
  /// orchestration overhead and CPU-oversubscription factor. When set,
  /// predict() on an InferenceSession and plan_serving price passes with
  /// these corrections; unset (or the identity calibration) leaves every
  /// prediction bit-identical to the uncalibrated model. Training paths
  /// ignore it.
  std::optional<perf::ServingCalibration> serving_calibration;

  /// The cluster predict()/Sim fall back on: calibrated when a calibration
  /// is present, else homogeneous spec defaults; one device per
  /// (replica, pipeline rank).
  sim::Cluster effective_cluster() const;

  /// The intra-op thread count this config resolves to (the auto rule
  /// above applied).
  int effective_intra_op_threads() const;

  /// The W the planner's evaluator expects: chunk count for Interleaved
  /// (perf::evaluate feeds its W into both waves and vchunks), wave count
  /// for everything else.
  int effective_W() const {
    return sched.algo == schedule::Algo::Interleaved ? sched.vchunks
                                                     : sched.waves;
  }

  /// The schedule request engines compile: `sched` with the calibration's
  /// measured tb/tf ratio applied to the ordering costs (when present).
  schedule::ScheduleRequest effective_sched() const;
};

/// Training-session configuration (hanayo::Session).
struct SessionConfig : EngineConfig {
  runtime::OptKind opt = runtime::OptKind::Sgd;
  float lr = 0.1f;
  float momentum = 0.0f;
  bool recompute = false;     ///< activation recomputation on all stages
  bool zero1 = false;         ///< ZeRO-1 optimizer-state sharding
  bool fp16_comm = false;     ///< fp16 stage-boundary transfers
  float max_grad_norm = 0.0f; ///< global grad-norm clip (0 disables)
  std::optional<model::LrSchedule> lr_schedule;
  bool weight_stashing = true;  ///< Async backend: PipeDream weight stashing
  /// Sim backend: override the model-derived per-stage costs (the schedule
  /// gallery's normalised timelines use this).
  std::optional<sim::PipelineCosts> sim_costs;

  /// Lowerings to the legacy per-engine configs.
  runtime::TrainerConfig trainer_config() const;
  runtime::AsyncTrainerConfig async_config() const;
};

/// Token-selection policy for serving: Sampling::Greedy() (the argmax of
/// bit-identical logits — the policy the cross-backend equivalence
/// guarantee was first stated for), Sampling::TopK(k, temperature) or
/// Sampling::Temperature(t). The stochastic policies draw from a
/// per-request RNG stream split from (seed, request id), which extends the
/// token-identity guarantee to them: same seed → same tokens on Threads
/// and Reference, on any replica, in any batch composition.
using runtime::Sampling;
using runtime::StopReason;
using runtime::QueuePolicy;
using runtime::FaultInjection;

/// Serving-session configuration (hanayo::InferenceSession). `sched.B` is
/// ignored: the engine compiles one forward-only schedule per concurrent
/// batch size as the request mix changes.
struct InferenceConfig : EngineConfig {
  int max_batch = 4;        ///< concurrent decode streams (KV-cache slots)
  int max_new_tokens = 16;  ///< default continuation cap per request
  Sampling sampling;        ///< greedy / top-k/top-p / temperature
  /// Emitting any of these ids ends a sequence early (the id is recorded as
  /// the last token; the Completion says StopReason::StopToken); the KV
  /// slot frees at the next pass boundary.
  std::vector<int64_t> stop_tokens;
  /// Half-precision KV-cache storage: cached K/V panels are stored as fp16
  /// words and converted back for the attention kernels, halving
  /// slot_bytes() (decode logits change within fp16 rounding; the
  /// cross-backend token-identity guarantee still holds, because every
  /// engine quantizes identically).
  bool kv_fp16 = false;
  /// Paged KV storage with cross-request prefix caching
  /// (runtime/kv_store.hpp): per-stream K/V rows live in pooled fixed-size
  /// pages, admission is priced in pages actually needed, and requests
  /// sharing a prompt prefix reuse cached pages (skipping the shared
  /// prefill). Decode tokens stay bitwise identical to the contiguous path.
  bool paged_kv = false;
  int kv_page_tokens = 16;  ///< token rows per page, per attention layer
  /// Per-replica pool size in pages; 0 derives the contiguous-equivalent
  /// capacity (max_batch worst-case streams always fit).
  int64_t kv_pool_pages = 0;
  /// Cross-request prefix caching (only meaningful with paged_kv). Off
  /// keeps paging but makes every stream's pages private.
  bool prefix_cache = true;
  /// Nominal prompt length used by predict() and the Sim backend (the
  /// measured backends use real request lengths). Defaults to half the
  /// model's positions, clamped so prompt + continuation fits.
  std::optional<int64_t> prompt_tokens;
  /// Default per-request SLA (seconds from enqueue; 0 = none). A request
  /// that misses it — queued or mid-decode — aborts with
  /// StopReason::DeadlineExceeded within one pass of the deadline.
  double deadline_s = 0.0;
  /// Admission control for the shared request queue (backpressure under
  /// open-loop load); refused requests complete as StopReason::Rejected.
  QueuePolicy queue_policy = QueuePolicy::Unbounded;
  /// Bounded-queue capacity; 0 derives dp * max_batch (one full turnover
  /// of the cluster's KV slots — see runtime::InferConfig::max_queue).
  int max_queue = 0;
  /// Deterministic fault injection (tests/benches; see
  /// runtime::FaultInjection and the HANAYO_FAULT_SEED hook).
  FaultInjection fault;
  /// Pre-size hint for each worker's pass-lifetime tensor arena, in MiB
  /// (0 derives the reserve from the model/schedule shapes). A hint, not a
  /// limit: the arena still grows during warm-up if the estimate is short,
  /// and steady-state decode stays zero-allocation either way.
  int arena_reserve_mb = 0;
  /// Offered open-loop arrival rate (requests/s) for predict(): when > 0,
  /// predict_serving also evaluates the fluid overload model — capacity,
  /// utilization, rejection/timeout rates — against this rate, the
  /// deadline and the queue bound (the numbers plan_serving ranks under).
  double offered_req_s = 0.0;

  int64_t effective_prompt_tokens() const;

  /// Lowering to the serving runtime's native config.
  runtime::InferConfig infer_config() const;

  /// Lowering to the unified planning core's serving cell — the single
  /// definition behind predict() ≡ Sim ≡ the serving planner's rows.
  perf::ServingPoint serving_point() const;
};

/// The cluster a planning call falls back on before P/dp are fixed:
/// calibrated to this machine when a valid calibration is given, else the
/// homogeneous spec default — the same rule as EngineConfig::
/// effective_cluster, parameterised by an explicit device count.
sim::Cluster planning_cluster(int devices,
                              const std::optional<perf::Calibration>& cal);

/// Throws std::invalid_argument when a token id in `ids` (ids are stored
/// as floats and truncated, as the embedding reads them) lies outside
/// [0, vocab); the message starts with `what` and names the flat position
/// and the id. The session entry points run it before any worker does, so
/// a bad id fails the call instead of throwing inside one pipeline stage.
void check_token_ids(const tensor::Tensor& ids, int64_t vocab,
                     const std::string& what);

}  // namespace hanayo::api
