#pragma once
// Decode-aware serving configuration search — the Fig. 10 planner for the
// serving workload.
//
// Training has perf::plan: enumerate (algo, D, P, W, B), cost each cell
// with the unified performance model, rank by simulated throughput. This
// module is the same search over the serving axes: given a cluster, a
// model and a latency/throughput target, enumerate
// (algo, P, W, max_batch, dp) candidates, prune the ones whose weights +
// full-context KV cannot fit device memory (sim/memory weight accounting +
// the KV-byte model behind slot_bytes()), event-simulate the mixed
// prefill/decode timeline of the survivors through perf::Engine, and hand
// back ranked ServeCandidates (per-token latency mean/p50/p99, tokens/s,
// TTFT, memory). The winning candidate's numbers agree bit-exactly with
// InferenceSession::predict() for the same configuration — both are one
// Engine code path — which is what InferenceSession::builder().auto_plan()
// relies on.

#include <optional>
#include <string>
#include <vector>

#include "perf/engine.hpp"

namespace hanayo::perf {

/// What the serving search optimises for: the nominal load shape plus
/// optional SLA bounds. Unset bounds (0) mean "rank by throughput only".
struct ServeTarget {
  int total_devices = 8;      ///< cluster devices available to dp * P
  int64_t prompt_tokens = 0;  ///< nominal prompt length; 0 = default rule
  /// Continuation cap per request. 0 = unset: auto_plan fills it from the
  /// builder's configured cap; a standalone plan_serving uses 16.
  int max_new_tokens = 0;
  /// Stop tokens shorten the modelled continuation (geometric expectation).
  /// Empty = unset for auto_plan, which back-fills the builder's set.
  std::vector<int64_t> stop_tokens;
  /// Score candidates with half-precision KV-cache storage
  /// (InferConfig::kv_fp16): halves the KV bytes the memory pruning sees.
  bool kv_fp16 = false;
  /// KV page size the candidates are scored with: per-stream KV rounds up
  /// to pages of this many tokens and residency caps at the pool (see
  /// ServingPoint::kv_page_tokens), so memory pruning admits what the
  /// runtime actually fits. Must be >= 1; plan_serving rejects 0. Left at
  /// the default, auto_plan back-fills the builder's page size.
  int kv_page_tokens = 16;
  /// Pool size in pages; 0 derives max_batch worst-case streams.
  int64_t kv_pool_pages = 0;
  /// SLA bounds: 99th-percentile per-token latency ceiling and generated
  /// tokens/s floor (cluster-wide, dp-scaled). 0 disables a bound.
  double max_p99_token_latency_s = 0.0;
  double min_tokens_per_s = 0.0;
  /// Open-loop load point (perf::LoadPoint). With offered_req_s > 0 the
  /// search ranks by goodput under this load — overload pricing via
  /// predict_load, so saturated configurations separate instead of tying
  /// on closed-loop tokens/s — and a candidate that sheds load at the
  /// offered rate is marked as missing the target.
  double offered_req_s = 0.0;
  double deadline_s = 0.0;  ///< per-request SLA the load model prices
  int queue_cap = 0;        ///< bounded admission queue; 0 = unbounded
  /// Search space. Chimera/PipeDream have no forward-only program and are
  /// rejected as infeasible rows if listed.
  std::vector<schedule::Algo> algos = {schedule::Algo::GPipe,
                                       schedule::Algo::Dapple,
                                       schedule::Algo::Hanayo};
  std::vector<int> wave_options = {1, 2, 4};
  std::vector<int> batch_options = {1, 2, 4, 8};
  int min_pipeline = 1;  ///< P = 1 is a valid serving pipeline (no stages)
  /// Measured kernel/transport numbers: applied to schedule ordering and
  /// simulated costs, exactly as in training plans and predict().
  std::optional<Calibration> calibration;
  /// Fitted serving-side coefficients (forward-only rate scales, per-pass
  /// orchestration overhead, CPU oversubscription) — see
  /// perf::ServingCalibration. Unset, or set to the identity calibration,
  /// leaves every row bit-identical to the uncalibrated search. Unlike the
  /// base calibration, its oversubscription term depends on dp, so each dp
  /// row of a point gets its own calibrated pass walls.
  std::optional<ServingCalibration> serving_calibration;
};

/// One scored cell of the (algo, P, W, max_batch, dp) search.
struct ServeCandidate {
  schedule::Algo algo = schedule::Algo::Hanayo;
  int dp = 1;         ///< pipeline replicas (dp * P devices used)
  int P = 1;          ///< pipeline depth
  int W = 1;          ///< waves (Hanayo) / chunks (Interleaved)
  int max_batch = 1;  ///< concurrent decode streams per replica
  bool feasible = true;
  bool oom = false;          ///< weights + full-context KV exceed a device
  bool meets_target = true;  ///< SLA bounds satisfied (when set)
  std::string note;
  int expected_new_tokens = 0;  ///< modelled continuation length
  /// Mean decode-pass latency — bit-exact equal to
  /// InferenceSession::predict().per_token_latency_s() for this config.
  double token_latency_s = 0.0;
  double p50_token_latency_s = 0.0;
  double p99_token_latency_s = 0.0;
  double ttft_s = 0.0;  ///< full-batch prefill makespan (time to first token)
  /// Cluster-wide generated tokens/s (dp replicas decode concurrently) —
  /// bit-exact equal to predict().tokens_per_s().
  double tokens_per_s = 0.0;
  double prefill_tokens_per_s = 0.0;
  double peak_mem_gb = 0.0;  ///< most loaded device: weights + KV
  double kv_gb = 0.0;        ///< full-context KV across one replica
  /// Load-model columns (predict_load at the target's offered rate);
  /// all zero when the target sets no offered_req_s.
  double capacity_req_s = 0.0;
  double goodput_req_s = 0.0;
  double rejected_rate = 0.0;
  double timeout_rate = 0.0;
  /// Overload fraction that neither serves nor sheds (unbounded queue
  /// growth) — see LoadPrediction::backlogged_rate.
  double backlogged_rate = 0.0;
  /// Distributional TTFT under the offered load (queueing wait quantile +
  /// prefill pass wall); zero without an offered rate.
  double p50_ttft_s = 0.0;
  double p99_ttft_s = 0.0;

  /// One table row via the shared perf/format serve layout.
  std::string to_string() const;
};

/// Full search: every (algo, P, W, max_batch, dp) with dp * P <=
/// target.total_devices. OOM candidates are pruned before simulation
/// (marked, kept in the list so the table shows why); infeasible
/// algorithm/stage combinations are marked the same way. Sorted best
/// first: target-meeting usable rows, then usable rows, then the rest, by
/// tokens/s (ties: lower p99, then fewer devices).
std::vector<ServeCandidate> plan_serving(const sim::Cluster& cluster,
                                         const model::ModelConfig& model,
                                         const ServeTarget& target);

/// The candidate auto_plan adopts: the first usable row that meets the
/// target, else the first usable row, else nullopt.
std::optional<ServeCandidate> best_serving(
    const std::vector<ServeCandidate>& cands);

}  // namespace hanayo::perf
