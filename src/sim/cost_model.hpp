#pragma once
// Translates (model, partition, cluster) into per-action costs for the
// event simulator: T_F / T_B per stage and per-boundary transfer volumes —
// the quantities the paper's performance model (§3.4) is written in.

#include <vector>

#include "model/partition.hpp"
#include "schedule/actions.hpp"
#include "sim/cluster.hpp"

namespace hanayo::sim {

struct PipelineCosts {
  /// Per model-stage forward/backward compute seconds (one micro-batch).
  std::vector<double> fwd_s;
  std::vector<double> bwd_s;
  /// Bytes of the activation crossing boundary pos -> pos+1 (index pos;
  /// size stages-1). Gradients are the same size in the reverse direction.
  std::vector<double> boundary_bytes;
  /// Per-stage weight bytes and per-micro-batch saved-activation bytes.
  std::vector<double> weight_bytes;
  std::vector<double> act_bytes;

  double total_fwd() const;
  double total_bwd() const;
};

/// Ratio of backward to forward compute cost. The paper draws and assumes
/// T_B = 2 T_F throughout.
inline constexpr double kBwdFwdRatio = 2.0;

/// Builds stage costs for a model partitioned into `stages` stages with
/// micro-batches of `mb_sequences` sequences. With `recompute` (activation
/// checkpointing) each stage saves only its input between forward and
/// backward, and the backward pays an extra forward. `bwd_ratio` overrides
/// the paper's drawn T_B = 2 T_F with a measured ratio (perf::calibrate).
PipelineCosts compute_costs(const model::ModelConfig& cfg, int stages,
                            int mb_sequences, const Cluster& cluster,
                            bool recompute = false,
                            double bwd_ratio = kBwdFwdRatio);

/// Forward-only (serving) stage costs for one pipeline pass. A micro-batch
/// carries `mb_sequences` sequences of `new_tokens` fresh tokens each
/// (prompt length for prefill, 1 for a decode step), attending over a
/// KV-cache context of `context_tokens`. Only the F-chain is costed —
/// `bwd_s` is filled with the usual ratio for completeness but forward-only
/// schedules never execute it; `act_bytes` accounts the K/V rows each stage
/// appends per micro-batch at `kv_bytes_per_elem` bytes per element (4 for
/// fp32 caches, 2 when InferConfig::kv_fp16 stores them in half precision),
/// and boundaries carry fp32 activations of the new tokens only.
/// `kv_page_tokens` > 0 prices a paged cache (runtime/kv_store.hpp): each
/// sequence's K/V rows round up to whole pages, so partially filled tail
/// pages are charged like the allocator actually holds them; 0 charges the
/// exact rows (the pass-cost callers, which price time, not residency).
/// `fwd_scale` multiplies the forward
/// compute seconds: the cluster's rate is calibrated from a *training*
/// forward, and a measured serving calibration
/// (perf::ServingCalibration's prefill/decode rate scales) corrects the
/// pass to the forward-only rate this machine actually runs at. 1 keeps
/// the costs bit-identical to the uncalibrated model.
PipelineCosts infer_costs(const model::ModelConfig& cfg, int stages,
                          int mb_sequences, int64_t new_tokens,
                          int64_t context_tokens, const Cluster& cluster,
                          double kv_bytes_per_elem = 4.0,
                          int64_t kv_page_tokens = 0,
                          double fwd_scale = 1.0);

/// Maps pipeline rank -> physical device id. `replica` selects the block of
/// the cluster used by one data-parallel replica (replica r uses devices
/// [r*P, (r+1)*P)).
struct DeviceMap {
  int P = 0;
  int replica = 0;
  int physical(int pipeline_rank) const { return replica * P + pipeline_rank; }
};

}  // namespace hanayo::sim
