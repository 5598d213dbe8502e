#include "api/config.hpp"

#include <algorithm>
#include <stdexcept>

#include "tensor/parallel.hpp"

namespace hanayo::api {

sim::Cluster planning_cluster(int devices,
                              const std::optional<perf::Calibration>& cal) {
  if (cal && cal->valid()) {
    // This machine's measured compute rate and transport fit.
    return perf::calibrated_cluster(devices, *cal);
  }
  // Homogeneous stand-in: A100-ish compute, 40 GB, PCIe-class links. The
  // paper's calibrated clusters (sim::Cluster::tacc/pc/fc/tc) are a builder
  // call away; this default just makes predict() usable out of the box.
  return sim::Cluster::uniform(devices, 100e12, 40e9, 12e9, 5e-6);
}

sim::Cluster EngineConfig::effective_cluster() const {
  if (cluster) return *cluster;
  const int devices = std::max(1, dp) * std::max(1, sched.P);
  return planning_cluster(devices, calibration);
}

int EngineConfig::effective_intra_op_threads() const {
  if (intra_op_threads > 0) return intra_op_threads;
  const bool multi_worker =
      (backend == BackendKind::Threads || backend == BackendKind::Async) &&
      std::max(1, dp) * std::max(1, sched.P) > 1;
  return multi_worker ? 1 : tensor::max_intra_op_threads();
}

schedule::ScheduleRequest EngineConfig::effective_sched() const {
  schedule::ScheduleRequest req = sched;
  if (calibration && calibration->bwd_fwd_ratio > 0) {
    req.tb = req.tf * calibration->bwd_fwd_ratio;
  }
  return req;
}

runtime::TrainerConfig SessionConfig::trainer_config() const {
  runtime::TrainerConfig tc;
  tc.model = model;
  tc.sched = effective_sched();
  tc.dp = dp;
  tc.mb_sequences = mb_sequences;
  tc.seed = seed;
  tc.opt = opt;
  tc.lr = lr;
  tc.momentum = momentum;
  tc.prefetch_depth = prefetch_depth;
  tc.recompute = recompute;
  tc.zero1 = zero1;
  tc.fp16_comm = fp16_comm;
  tc.max_grad_norm = max_grad_norm;
  tc.lr_schedule = lr_schedule;
  tc.record_timeline = record_timeline;
  return tc;
}

runtime::AsyncTrainerConfig SessionConfig::async_config() const {
  runtime::AsyncTrainerConfig ac;
  ac.model = model;
  ac.P = sched.P;
  ac.micro_batches = sched.B;
  ac.mb_sequences = mb_sequences;
  ac.seed = seed;
  ac.opt = opt;
  ac.lr = lr;
  ac.momentum = momentum;
  ac.weight_stashing = weight_stashing;
  ac.prefetch_depth = prefetch_depth;
  return ac;
}

int64_t InferenceConfig::effective_prompt_tokens() const {
  if (prompt_tokens) return *prompt_tokens;
  return perf::Engine::default_prompt_tokens(model, max_new_tokens);
}

runtime::InferConfig InferenceConfig::infer_config() const {
  runtime::InferConfig ic;
  ic.model = model;
  ic.sched = effective_sched();
  ic.dp = dp;
  ic.max_batch = max_batch;
  ic.max_new_tokens = max_new_tokens;
  ic.sampling = sampling;
  ic.stop_tokens = stop_tokens;
  ic.kv_fp16 = kv_fp16;
  ic.kv_page_tokens = kv_page_tokens;
  ic.kv_pool_pages = kv_pool_pages;
  ic.prefix_cache = prefix_cache;
  ic.seed = seed;
  ic.prefetch_depth = prefetch_depth;
  ic.arena_reserve_mb = arena_reserve_mb;
  ic.deadline_s = deadline_s;
  ic.queue_policy = queue_policy;
  ic.max_queue = max_queue;
  ic.fault = fault;
  return ic;
}

}  // namespace hanayo::api
