#include "api/inference.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>

#include "perf/engine.hpp"
#include "perf/serve_planner.hpp"
#include "tensor/parallel.hpp"

namespace hanayo::api {

InferenceSession::Builder InferenceSession::builder() { return Builder(); }

InferenceSession::InferenceSession(InferenceConfig cfg)
    : cfg_(std::move(cfg)), backend_(make_infer_backend(cfg_)) {}

int64_t InferenceSession::enqueue(tensor::Tensor prompt, int max_new_tokens,
                                  TokenCallback on_token, double deadline_s) {
  return backend_->enqueue(std::move(prompt), max_new_tokens,
                           std::move(on_token), deadline_s);
}

std::vector<Completion> InferenceSession::run() {
  // Same process-global kernel-pool rule as Session::step: serving workers
  // are inter-op threads, so the auto rule gives each one inline kernels;
  // the single-worker Reference generator gets the whole pool.
  tensor::IntraOpScope scope(cfg_.effective_intra_op_threads());
  return backend_->drain();
}

ServeReport InferenceSession::report() const {
  ServeReport rep;
  rep.backend = backend_->kind();
  backend_->finalize(rep);
  return rep;
}

perf::ServingPoint InferenceConfig::serving_point() const {
  perf::ServingPoint pt;
  pt.algo = sched.algo;
  pt.P = sched.P;
  pt.W = effective_W();
  pt.max_batch = max_batch;
  pt.prompt_tokens = effective_prompt_tokens();
  pt.max_new_tokens = max_new_tokens;
  pt.stop_tokens = stop_tokens;
  pt.kv_fp16 = kv_fp16;
  pt.kv_page_tokens = kv_page_tokens;
  pt.kv_pool_pages = kv_pool_pages;
  pt.tf = sched.tf;
  pt.tb = sched.tb;
  return pt;
}

ServeReport predict_serving(const InferenceConfig& cfg) {
  ServeReport rep;
  rep.backend = cfg.backend;
  rep.predicted = true;

  // The unified planning core does the work (feasibility is a result, not
  // an exception — same stance as the Sim backend); this frontend only
  // replicates the one-replica prediction over dp, which is exact because
  // replicas are fully independent (disjoint devices, no collective).
  const perf::Engine eng(cfg.model, cfg.effective_cluster(), cfg.calibration,
                         cfg.serving_calibration);
  const perf::ServePrediction pred = eng.calibrated_serving(
      eng.evaluate_serving(cfg.serving_point()), std::max(1, cfg.dp));
  if (!pred.feasible) {
    rep.feasible = false;
    rep.note = pred.note;
    return rep;
  }
  // The memory verdict rides along: a dry run exists to catch an
  // over-memory configuration before an engine is built, so the same
  // pruning signal the planner uses is surfaced here, timings and all.
  rep.oom = pred.oom;
  rep.peak_mem_gb = pred.peak_mem_gb;

  // dp replicas drain the same load concurrently: sums over replicas, same
  // convention as the measured merge (runtime::merge_stats).
  rep.dp = std::max(1, cfg.dp);
  rep.replicas.assign(static_cast<size_t>(rep.dp), pred.per_replica);
  rep.set_totals(runtime::merge_stats(rep.replicas));

  // Offered-load pricing: the same fluid overload model the serving
  // planner ranks under, evaluated at this config's arrival rate.
  if (cfg.offered_req_s > 0.0) {
    perf::LoadPoint load;
    load.offered_req_s = cfg.offered_req_s;
    load.deadline_s = cfg.deadline_s;
    load.queue_cap = cfg.queue_policy != QueuePolicy::Unbounded
                         ? (cfg.max_queue > 0
                                ? cfg.max_queue
                                : runtime::derived_queue_cap(cfg.infer_config()))
                         : 0;
    const perf::LoadPrediction lp =
        perf::predict_load(pred, rep.dp, load);
    rep.offered_req_s = load.offered_req_s;
    rep.capacity_req_s = lp.capacity_req_s;
    rep.utilization = lp.utilization;
    rep.predicted_rejected_rate = lp.rejected_rate;
    rep.predicted_timeout_rate = lp.timeout_rate;
    rep.predicted_backlogged_rate = lp.backlogged_rate;
    rep.predicted_queue_wait_s = lp.queue_wait_s;
    rep.predicted_p50_ttft_s = lp.p50_ttft_s;
    rep.predicted_p99_ttft_s = lp.p99_ttft_s;
  }
  return rep;
}

InferenceSession::Builder& InferenceSession::Builder::auto_plan(
    const perf::ServeTarget& target) {
  // The planner needs a concrete cluster before P/dp are chosen: an
  // explicit .cluster() wins, else the target's device count is lowered
  // through the same calibrated-or-spec-default rule as effective_cluster.
  // Every knob the target leaves unset is back-filled from the builder
  // BEFORE planning, and the merged values are adopted back afterwards —
  // so earlier builder calls are never silently clobbered by target
  // defaults, and a later predict() prices the session exactly as the
  // planner ranked it.
  perf::ServeTarget t = target;
  if (!t.calibration) t.calibration = cfg_.calibration;
  cfg_.calibration = t.calibration;
  if (!t.serving_calibration) t.serving_calibration = cfg_.serving_calibration;
  cfg_.serving_calibration = t.serving_calibration;
  if (t.max_new_tokens <= 0) t.max_new_tokens = cfg_.max_new_tokens;
  if (t.stop_tokens.empty()) t.stop_tokens = cfg_.stop_tokens;
  t.kv_fp16 = t.kv_fp16 || cfg_.kv_fp16;
  if (t.kv_page_tokens == perf::ServeTarget{}.kv_page_tokens) {
    t.kv_page_tokens = cfg_.kv_page_tokens;
  }
  if (t.kv_pool_pages <= 0) t.kv_pool_pages = cfg_.kv_pool_pages;
  // Load assumptions follow the same back-fill-then-adopt rule, so a
  // builder-configured deadline or offered rate prices the search and a
  // target-specified one lands back in the session config.
  if (t.offered_req_s <= 0.0) t.offered_req_s = cfg_.offered_req_s;
  if (t.deadline_s <= 0.0) t.deadline_s = cfg_.deadline_s;
  if (t.queue_cap <= 0 && cfg_.queue_policy != QueuePolicy::Unbounded) {
    t.queue_cap = cfg_.max_queue;
  }
  const sim::Cluster cluster =
      cfg_.cluster ? *cfg_.cluster
                   : api::planning_cluster(t.total_devices, t.calibration);
  const auto cands = perf::plan_serving(cluster, cfg_.model, t);
  const auto pick = perf::best_serving(cands);
  if (!pick) {
    throw std::invalid_argument(
        "auto_plan: no feasible serving configuration for " +
        std::to_string(t.total_devices) + " devices (model layers: " +
        std::to_string(cfg_.model.layer_descs().size()) + ")");
  }
  // Adopt the winning (algo, P, W, max_batch, dp) plus the load assumptions
  // it was scored under, so a subsequent predict() reproduces the planner's
  // winning row bit-for-bit.
  cfg_.sched.algo = pick->algo;
  cfg_.sched.P = pick->P;
  cfg_.sched.waves = pick->W;
  cfg_.sched.vchunks = pick->W;
  cfg_.dp = pick->dp;
  cfg_.max_batch = pick->max_batch;
  cfg_.max_new_tokens = t.max_new_tokens;
  cfg_.stop_tokens = t.stop_tokens;
  cfg_.kv_fp16 = t.kv_fp16;
  cfg_.kv_page_tokens = t.kv_page_tokens;
  cfg_.kv_pool_pages = t.kv_pool_pages;
  cfg_.offered_req_s = t.offered_req_s;
  cfg_.deadline_s = t.deadline_s;
  if (t.queue_cap > 0) {
    cfg_.max_queue = t.queue_cap;
    if (cfg_.queue_policy == QueuePolicy::Unbounded) {
      cfg_.queue_policy = QueuePolicy::RejectNew;
    }
  }
  // An unset target prompt length means the candidates were scored under
  // the default rule — clear any earlier builder override so predict()
  // resolves to the same length the planner used.
  if (t.prompt_tokens > 0) {
    cfg_.prompt_tokens = t.prompt_tokens;
  } else {
    cfg_.prompt_tokens.reset();
  }
  return *this;
}

}  // namespace hanayo::api
