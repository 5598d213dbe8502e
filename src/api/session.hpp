#pragma once
// hanayo::Session — the training front door of the library.
//
// The paper's claim is that a single wave-scheduling framework subsumes
// GPipe/DAPPLE/Chimera-style pipelines under one performance model; the
// Session is that claim as an API. One builder configures model, schedule
// and execution engine; one result vocabulary (StepReport / RunReport)
// comes back, whether the engine is real worker threads, the sequential
// reference, the no-flush asynchronous runtime, or the discrete-event
// simulator — so any configuration can be dry-run for predicted
// throughput/memory before paying for real execution.
//
//   auto session = hanayo::Session::builder()
//                      .model(hanayo::ModelConfig::tiny(14))
//                      .algo(hanayo::Algo::Hanayo)
//                      .pipeline(4).micro_batches(8).waves(2)
//                      .backend(hanayo::BackendKind::Threads)
//                      .learning_rate(0.05f).seed(42)
//                      .build();
//   auto batch = hanayo::synthetic_batch(...);
//   auto step = session.step(batch);          // StepReport{loss, wall_s}
//   auto pred = session.predict();            // planner row, no execution
//   auto report = session.report();           // RunReport for the session
//
// The serving counterpart (hanayo::InferenceSession, api/inference.hpp)
// shares this builder core: the same model/schedule/backend chain plus
// serving knobs builds a forward-only wave pipeline with KV-cache decode.

#include <map>
#include <memory>
#include <string>

#include "api/backend.hpp"
#include "api/config.hpp"
#include "api/report.hpp"

namespace hanayo::api {

/// The chainable configuration core shared by every session builder:
/// setters for the EngineConfig fields, each returning the concrete builder
/// so training- and serving-specific setters chain freely in any order.
/// `Config` must derive from EngineConfig.
template <class Derived, class Config>
class BuilderCore {
 public:
  Derived& model(model::ModelConfig m) { cfg_.model = std::move(m); return self(); }
  Derived& algo(schedule::Algo a) { cfg_.sched.algo = a; return self(); }
  Derived& pipeline(int P) { cfg_.sched.P = P; return self(); }
  Derived& waves(int W) { cfg_.sched.waves = W; return self(); }
  Derived& vchunks(int V) { cfg_.sched.vchunks = V; return self(); }
  /// Wholesale schedule request (algo, P, B, waves, vchunks, tf, tb).
  Derived& schedule(schedule::ScheduleRequest req) { cfg_.sched = req; return self(); }
  Derived& backend(BackendKind kind) { cfg_.backend = kind; return self(); }
  Derived& mb_sequences(int n) { cfg_.mb_sequences = n; return self(); }
  Derived& seed(uint64_t s) { cfg_.seed = s; return self(); }
  Derived& prefetch_depth(int d) { cfg_.prefetch_depth = d; return self(); }
  /// Kernel threads per worker; 0 picks automatically (see EngineConfig).
  Derived& intra_op_threads(int n) { cfg_.intra_op_threads = n; return self(); }
  Derived& record_timeline(bool on = true) { cfg_.record_timeline = on; return self(); }
  Derived& cluster(sim::Cluster c) { cfg_.cluster = std::move(c); return self(); }
  /// Feed this machine's measured kernel/transport numbers (perf::calibrate)
  /// into the schedule ordering costs and the predict()/Sim cost model.
  Derived& calibration(perf::Calibration cal) { cfg_.calibration = std::move(cal); return self(); }
  /// Feed fitted serving-side coefficients (perf::calibrate_serving) into
  /// predict()/plan_serving pass pricing. Training paths ignore it.
  Derived& serving_calibration(perf::ServingCalibration sc) { cfg_.serving_calibration = std::move(sc); return self(); }

  const Config& config() const { return cfg_; }

 protected:
  Config cfg_;

 private:
  Derived& self() { return static_cast<Derived&>(*this); }
};

class Session {
 public:
  class Builder;

  /// Entry point: Session::builder().model(...)....build().
  static Builder builder();

  /// Builds and validates the configured engine. Throws on configurations
  /// the engine rejects (invalid schedules, unpartitionable models, ...).
  explicit Session(SessionConfig cfg);

  Session(Session&&) = default;
  Session& operator=(Session&&) = default;

  /// One training step (for Sim: one predicted iteration). Throws
  /// std::invalid_argument, before any worker runs, when an input or
  /// target id lies outside the model's vocabulary.
  StepReport step(const runtime::Batch& batch);

  /// `steps` consecutive steps over the same batch; returns the cumulative
  /// session report. On the Async backend the whole span runs as one
  /// continuous micro-batch stream. Rejects out-of-vocabulary ids as step
  /// does.
  RunReport run(const runtime::Batch& batch, int steps);

  /// Cumulative report of everything this session has executed, including
  /// backend-specific memory/timeline/simulation extras.
  RunReport report() const;

  /// Planner's verdict on this configuration (perf::evaluate against the
  /// session's cluster) — available on every backend, no execution.
  perf::Candidate predict() const;

  /// Batch rows one step consumes.
  int64_t batch_rows() const { return backend_->batch_rows(); }

  /// The compiled schedule, or nullptr when the engine executes none (the
  /// sequential Reference, or an infeasible Sim dry run).
  const schedule::Schedule* schedule() const { return backend_->schedule(); }

  /// Parameters by name (replica 0) — the cross-backend equivalence hook.
  std::map<std::string, tensor::Tensor> snapshot_params() {
    return backend_->snapshot_params();
  }

  /// Name-addressed checkpoint I/O; restores across different (P, W)
  /// session configurations.
  void save_checkpoint(const std::string& path,
                       bool include_optimizer = false) {
    backend_->save_checkpoint(path, include_optimizer);
  }
  void load_checkpoint(const std::string& path) {
    backend_->load_checkpoint(path);
  }

  const SessionConfig& config() const { return cfg_; }
  Backend& backend() { return *backend_; }

 private:
  SessionConfig cfg_;
  std::unique_ptr<Backend> backend_;
  std::vector<StepReport> steps_;
};

/// Training builder: the shared core plus optimizer/regularisation knobs.
/// Unset fields keep the SessionConfig defaults.
class Session::Builder : public BuilderCore<Session::Builder, SessionConfig> {
 public:
  Builder& micro_batches(int B) { cfg_.sched.B = B; return *this; }
  Builder& data_parallel(int dp) { cfg_.dp = dp; return *this; }
  Builder& optimizer(runtime::OptKind k) { cfg_.opt = k; return *this; }
  Builder& learning_rate(float lr) { cfg_.lr = lr; return *this; }
  Builder& momentum(float m) { cfg_.momentum = m; return *this; }
  Builder& recompute(bool on = true) { cfg_.recompute = on; return *this; }
  Builder& zero1(bool on = true) { cfg_.zero1 = on; return *this; }
  Builder& fp16_comm(bool on = true) { cfg_.fp16_comm = on; return *this; }
  Builder& max_grad_norm(float v) { cfg_.max_grad_norm = v; return *this; }
  Builder& lr_schedule(model::LrSchedule s) { cfg_.lr_schedule = std::move(s); return *this; }
  Builder& weight_stashing(bool on) { cfg_.weight_stashing = on; return *this; }
  Builder& sim_costs(sim::PipelineCosts c) { cfg_.sim_costs = std::move(c); return *this; }

  Session build() { return Session(cfg_); }
};

}  // namespace hanayo::api
