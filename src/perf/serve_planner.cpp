#include "perf/serve_planner.hpp"

#include <algorithm>
#include <stdexcept>

#include "perf/format.hpp"

namespace hanayo::perf {

using schedule::Algo;

std::string ServeCandidate::to_string() const {
  ServeRow row;
  row.algo = algo;
  row.dp = dp;
  row.P = P;
  row.W = W;
  row.max_batch = max_batch;
  row.tokens_per_s = tokens_per_s;
  row.token_latency_ms = token_latency_s * 1e3;
  row.p50_ms = p50_token_latency_s * 1e3;
  row.p99_ms = p99_token_latency_s * 1e3;
  row.ttft_ms = ttft_s * 1e3;
  row.peak_mem_gb = peak_mem_gb;
  row.oom = oom;
  row.feasible = feasible;
  row.meets_target = meets_target;
  row.note = note;
  return format_serve_row(row);
}

namespace {

/// Derives the dp-replicated candidate from one replica's prediction: the
/// same merge_stats replication as predict_serving, then the same shared
/// runtime::serve_* arithmetic ServeReport's accessors delegate to — so
/// every row's latency and throughput are structurally bit-exact against
/// InferenceSession::predict(), not mirrored by parallel code.
ServeCandidate candidate_from(const ServePrediction& pred,
                              const ServeTarget& t, Algo algo, int dp, int P,
                              int W, int batch) {
  ServeCandidate c;
  c.algo = algo;
  c.dp = dp;
  c.P = P;
  c.W = W;
  c.max_batch = batch;
  c.expected_new_tokens = pred.steps;
  c.peak_mem_gb = pred.peak_mem_gb;
  c.kv_gb = pred.kv_gb;
  if (!pred.feasible) {
    c.feasible = false;
    c.meets_target = false;
    c.note = pred.note;
    return c;
  }
  if (pred.oom) {
    c.oom = true;
    c.meets_target = false;
    c.note = "weights + full-context KV exceed device memory";
    return c;
  }
  const std::vector<runtime::ServeStats> reps(static_cast<size_t>(dp),
                                              pred.per_replica);
  const runtime::ServeStats tot = runtime::merge_stats(reps);
  c.token_latency_s = runtime::serve_per_token_latency_s(tot);
  c.p50_token_latency_s = pred.p50_token_latency_s;
  c.p99_token_latency_s = pred.p99_token_latency_s;
  c.ttft_s = pred.per_replica.prefill_s;
  c.tokens_per_s = runtime::serve_tokens_per_s(tot, reps, dp);
  c.prefill_tokens_per_s = runtime::serve_prefill_tokens_per_s(tot, reps, dp);

  if (t.max_p99_token_latency_s > 0.0 &&
      c.p99_token_latency_s > t.max_p99_token_latency_s) {
    c.meets_target = false;
    c.note = "p99 over target";
  }
  if (t.min_tokens_per_s > 0.0 && c.tokens_per_s < t.min_tokens_per_s) {
    c.meets_target = false;
    c.note = c.note.empty() ? "tokens/s under target"
                            : c.note + "; tokens/s under target";
  }
  if (t.offered_req_s > 0.0) {
    LoadPoint load;
    load.offered_req_s = t.offered_req_s;
    load.deadline_s = t.deadline_s;
    load.queue_cap = t.queue_cap;
    const LoadPrediction lp = predict_load(pred, dp, load);
    c.capacity_req_s = lp.capacity_req_s;
    c.goodput_req_s = lp.goodput_req_s;
    c.rejected_rate = lp.rejected_rate;
    c.timeout_rate = lp.timeout_rate;
    c.backlogged_rate = lp.backlogged_rate;
    c.p50_ttft_s = lp.p50_ttft_s;
    c.p99_ttft_s = lp.p99_ttft_s;
    if (lp.rejected_rate + lp.timeout_rate + lp.backlogged_rate > 1e-9) {
      c.meets_target = false;
      c.note = c.note.empty() ? "sheds load at offered rate"
                              : c.note + "; sheds load at offered rate";
    }
  }
  return c;
}

int sort_group(const ServeCandidate& c) {
  const bool usable = c.feasible && !c.oom;
  if (usable && c.meets_target) return 0;
  if (usable) return 1;
  return 2;
}

}  // namespace

std::vector<ServeCandidate> plan_serving(const sim::Cluster& cluster,
                                         const model::ModelConfig& model,
                                         const ServeTarget& raw) {
  ServeTarget target = raw;
  if (target.max_new_tokens <= 0) target.max_new_tokens = 16;
  if (target.kv_page_tokens < 1) {
    throw std::invalid_argument("plan_serving: kv_page_tokens must be >= 1");
  }
  const Engine eng(model, cluster, target.calibration,
                   target.serving_calibration);
  std::vector<ServeCandidate> out;
  // dp * P <= N: serving replication is a free knob, not a factorisation —
  // a latency target may be met while leaving devices idle, and throughput
  // ranking naturally prefers the full-cluster rows. Replicas are
  // independent, so each (algo, P, W, batch) point is engine-evaluated
  // once (memory pruning first — an over-memory cell never reaches the
  // event simulator) and every dp candidate derives from that prediction.
  const int N = std::min(target.total_devices, cluster.devices);
  const auto eval_point = [&](Algo algo, int P, int W, int batch,
                              int max_dp) {
    ServingPoint pt;
    pt.algo = algo;
    pt.P = P;
    pt.W = W;
    pt.max_batch = batch;
    pt.prompt_tokens = target.prompt_tokens;
    pt.max_new_tokens = target.max_new_tokens;
    pt.stop_tokens = target.stop_tokens;
    pt.kv_fp16 = target.kv_fp16;
    pt.kv_page_tokens = target.kv_page_tokens;
    pt.kv_pool_pages = target.kv_pool_pages;
    const ServePrediction pred =
        eng.evaluate_serving(pt, /*quantiles=*/true, /*skip_sim_if_oom=*/true);
    for (int dp = 1; dp <= max_dp; ++dp) {
      // The oversubscription bound scales with dp (more workers contending
      // for the same host cores), so the calibration is applied per dp row
      // — a cheap post-transform of the one simulated prediction.
      out.push_back(candidate_from(eng.calibrated_serving(pred, dp), target,
                                   algo, dp, P, W, batch));
    }
  };
  for (int P = std::max(1, target.min_pipeline); P <= N; ++P) {
    const int max_dp = N / P;
    if (max_dp < 1) continue;
    for (int batch : target.batch_options) {
      if (batch < 1) continue;
      for (Algo algo : target.algos) {
        if (algo == Algo::Hanayo || algo == Algo::Interleaved) {
          for (int W : target.wave_options) {
            eval_point(algo, P, W, batch, max_dp);
          }
        } else {
          eval_point(algo, P, 1, batch, max_dp);
        }
      }
    }
  }
  // Under an offered load, goodput is the primary key: a saturated
  // configuration caps at its capacity while an adequate one carries the
  // full offered rate, so rows that tie on closed-loop tokens/s separate.
  const bool under_load = target.offered_req_s > 0.0;
  std::stable_sort(out.begin(), out.end(),
                   [under_load](const ServeCandidate& a,
                                const ServeCandidate& b) {
                     const int ga = sort_group(a), gb = sort_group(b);
                     if (ga != gb) return ga < gb;
                     if (under_load) {
                       if (a.goodput_req_s != b.goodput_req_s) {
                         return a.goodput_req_s > b.goodput_req_s;
                       }
                       const double la =
                           a.rejected_rate + a.timeout_rate + a.backlogged_rate;
                       const double lb =
                           b.rejected_rate + b.timeout_rate + b.backlogged_rate;
                       if (la != lb) return la < lb;
                     }
                     if (a.tokens_per_s != b.tokens_per_s) {
                       return a.tokens_per_s > b.tokens_per_s;
                     }
                     if (a.p99_token_latency_s != b.p99_token_latency_s) {
                       return a.p99_token_latency_s < b.p99_token_latency_s;
                     }
                     return a.dp * a.P < b.dp * b.P;  // fewer devices win ties
                   });
  return out;
}

std::optional<ServeCandidate> best_serving(
    const std::vector<ServeCandidate>& cands) {
  for (const ServeCandidate& c : cands) {
    if (c.feasible && !c.oom && c.meets_target) return c;
  }
  for (const ServeCandidate& c : cands) {
    if (c.feasible && !c.oom) return c;
  }
  return std::nullopt;
}

}  // namespace hanayo::perf
