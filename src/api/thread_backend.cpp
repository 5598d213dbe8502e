#include <algorithm>
#include <chrono>

#include "api/backends_impl.hpp"

namespace hanayo::api {

namespace {

double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

}  // namespace

ThreadBackend::ThreadBackend(const SessionConfig& cfg)
    : cfg_(cfg), trainer_(cfg.trainer_config()) {}

StepReport ThreadBackend::step(const runtime::Batch& batch, int step_index) {
  StepReport r;
  r.step = step_index;
  const auto t0 = std::chrono::steady_clock::now();
  r.loss = trainer_.train_step(batch);
  r.wall_s = seconds_since(t0);
  return r;
}

void ThreadBackend::finalize(RunReport& report) const {
  report.backend = BackendKind::Threads;
  report.memory.peak_cache_bytes = trainer_.peak_cache_bytes();
  report.memory.arena_high_water_bytes = trainer_.arena_high_water_bytes();
  report.memory.optimizer_state_bytes = trainer_.optimizer_state_bytes();
  if (cfg_.record_timeline) report.timeline = trainer_.last_timeline();

  perf::Candidate& c = report.candidate;
  c.algo = cfg_.sched.algo;
  c.D = cfg_.dp;
  c.P = cfg_.sched.P;
  c.W = cfg_.effective_W();
  c.B = cfg_.sched.B;
  c.mb_sequences = cfg_.mb_sequences;
  c.note = "measured";
  const double wall = report.total_wall_s();
  if (wall > 0.0 && !report.steps.empty()) {
    c.throughput_seq_s =
        static_cast<double>(report.steps.size()) * trainer_.batch_rows() / wall;
  }
  int64_t peak = 0;
  for (int64_t b : report.memory.peak_cache_bytes) peak = std::max(peak, b);
  c.peak_mem_gb = static_cast<double>(peak) / 1e9;
  // Real bubble ratio needs the measured spans; only computable when the
  // session recorded a timeline.
  if (!report.timeline.empty()) {
    double busy = 0.0, makespan = 0.0;
    for (const auto& device : report.timeline) {
      for (const auto& span : device) {
        busy += span.end - span.start;
        makespan = std::max(makespan, span.end);
      }
    }
    const double denom = makespan * static_cast<double>(report.timeline.size());
    if (denom > 0.0) c.bubble_ratio = 1.0 - busy / denom;
  }
}

}  // namespace hanayo::api
