// The serving engines behind api::make_infer_backend: the live ones —
// Threads and Reference — are one runtime::InferenceServer request
// lifecycle with different per-pass executors (the pipelined worker gang,
// or a sequential full-prefix recompute); Sim is the forward-only event
// simulation.

#include <stdexcept>

#include "api/inference.hpp"
#include "runtime/infer.hpp"

namespace hanayo::api {

namespace {

/// Threads: pipelined forward-only wave schedules with KV-cache decode and
/// continuous batching; dp > 1 runs that many pipeline replicas off one
/// shared request queue.
///
/// Reference: the sequential ground truth — the same queue, admission,
/// aborts and stats, but each pass recomputes the one active stream's full
/// prefix on an unpartitioned module (the server forces dp = 1, max_batch
/// = 1, private pages and an unbounded queue; replicas hold identical
/// weights, so the reference for any assignment is the same). Tokens are
/// bit-identical to Threads under every sampling policy: logits match
/// bitwise, and both select through sample_last_row with the same
/// per-request (seed, id) RNG stream.
class ServerInferBackend final : public InferBackend {
 public:
  explicit ServerInferBackend(const InferenceConfig& cfg)
      : kind_(cfg.backend),
        server_(cfg.infer_config(),
                cfg.backend == BackendKind::Reference
                    ? runtime::ExecutorKind::Recompute
                    : runtime::ExecutorKind::PipelineGang) {}

  BackendKind kind() const override { return kind_; }

  int64_t enqueue(tensor::Tensor prompt, int max_new_tokens,
                  TokenCallback on_token, double deadline_s) override {
    return server_.enqueue(std::move(prompt), max_new_tokens,
                           std::move(on_token), deadline_s);
  }

  void cancel(int64_t id) override { server_.cancel(id); }

  std::vector<Completion> drain() override { return server_.drain(); }

  const schedule::Schedule* schedule() const override {
    // The full-batch program — representative of the steady serving state.
    auto& server = const_cast<runtime::InferenceServer&>(server_);
    return server.schedule_for(server.config().max_batch);
  }

  void finalize(ServeReport& rep) const override {
    rep.backend = kind_;
    rep.dp = server_.dp();
    rep.replicas = server_.replica_stats();
    // server_.stats() (not a bare merge): the submitted/rejected counters
    // live on the server's enqueue side, outside any replica.
    rep.set_totals(server_.stats());
  }

 private:
  BackendKind kind_;
  runtime::InferenceServer server_;
};

/// Forward-only dry run: executes nothing; enqueue/drain book-keep request
/// ids and the report is predict_serving's event-simulated timeline — the
/// same code path as InferenceSession::predict(), hence exact agreement.
class SimInferBackend final : public InferBackend {
 public:
  explicit SimInferBackend(const InferenceConfig& cfg)
      : cfg_(cfg), infer_(cfg.infer_config()) {}

  BackendKind kind() const override { return BackendKind::Sim; }

  // Admission validates exactly as on the live backends (the shared
  // helper), but nothing is queued: a dry run produces no tokens, so the
  // streaming callback never fires (and deadlines/cancellation have
  // nothing to abort).
  int64_t enqueue(tensor::Tensor prompt, int max_new_tokens, TokenCallback,
                  double deadline_s) override {
    (void)runtime::make_infer_request(infer_, std::move(prompt),
                                      max_new_tokens, next_id_, deadline_s);
    return next_id_++;
  }

  std::vector<Completion> drain() override {
    std::vector<Completion> out;
    for (int64_t id = drained_; id < next_id_; ++id) {
      Completion c;
      c.id = id;
      out.push_back(std::move(c));  // predicted: no tokens are produced
    }
    drained_ = next_id_;
    return out;
  }

  const schedule::Schedule* schedule() const override {
    if (sched_.scripts.empty()) {
      schedule::ScheduleRequest req = cfg_.effective_sched();
      req.B = cfg_.max_batch;
      const int S = schedule::stages_for(req);
      if (S > static_cast<int>(cfg_.model.layer_descs().size())) {
        return nullptr;  // infeasible: no schedule compiles
      }
      sched_ = schedule::make_forward_schedule(req);
    }
    return &sched_;
  }

  void finalize(ServeReport& rep) const override {
    rep = predict_serving(cfg_);
    rep.backend = BackendKind::Sim;
  }

 private:
  InferenceConfig cfg_;
  runtime::InferConfig infer_;
  mutable schedule::Schedule sched_;
  int64_t next_id_ = 0;
  int64_t drained_ = 0;
};

}  // namespace

std::unique_ptr<InferBackend> make_infer_backend(const InferenceConfig& cfg) {
  // Causality is a model property, not a feasibility result: no serving
  // engine — not even the dry run — can extend a bidirectional model's
  // prefix token by token, so every backend rejects it up front. The same
  // goes for unusable sampling parameters and replica counts.
  if (!cfg.model.causal) {
    throw std::invalid_argument(
        "inference: decode needs a causal model (each new token may "
        "only extend, never revise, the prefix)");
  }
  cfg.sampling.validate();
  if (cfg.dp < 1) {
    throw std::invalid_argument("inference: dp < 1");
  }
  switch (cfg.backend) {
    case BackendKind::Threads:
    case BackendKind::Reference:
      return std::make_unique<ServerInferBackend>(cfg);
    case BackendKind::Sim:
      return std::make_unique<SimInferBackend>(cfg);
    case BackendKind::Async:
      throw std::invalid_argument(
          "inference: the Async (no-flush) runtime is a training engine; "
          "serving uses Threads, Reference or Sim");
  }
  throw std::invalid_argument("unknown backend kind");
}

}  // namespace hanayo::api
