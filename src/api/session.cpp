#include "api/session.hpp"

#include <stdexcept>

#include "tensor/parallel.hpp"

namespace hanayo::api {

namespace {

void check_batch(const runtime::Batch& batch, int64_t vocab,
                 const std::string& who) {
  check_token_ids(batch.inputs, vocab, who + " inputs");
  check_token_ids(batch.targets, vocab, who + " targets");
}

}  // namespace

Session::Builder Session::builder() { return Builder(); }

Session::Session(SessionConfig cfg)
    : cfg_(std::move(cfg)), backend_(make_backend(cfg_)) {}

StepReport Session::step(const runtime::Batch& batch) {
  check_batch(batch, cfg_.model.vocab, "Session::step");
  // The kernel pool is process-global; apply this session's resolved
  // intra-op setting for the duration of the step and restore it after, so
  // interleaved sessions (and non-Session kernel users, which keep the
  // conservative default) never inherit another configuration. Results are
  // thread-count independent, so this only affects performance, never
  // numerics.
  tensor::IntraOpScope scope(cfg_.effective_intra_op_threads());
  StepReport r = backend_->step(batch, static_cast<int>(steps_.size()));
  steps_.push_back(r);
  return r;
}

RunReport Session::run(const runtime::Batch& batch, int steps) {
  check_batch(batch, cfg_.model.vocab, "Session::run");
  tensor::IntraOpScope scope(cfg_.effective_intra_op_threads());
  const std::vector<StepReport> reports =
      backend_->run(batch, steps, static_cast<int>(steps_.size()));
  steps_.insert(steps_.end(), reports.begin(), reports.end());
  return report();
}

RunReport Session::report() const {
  RunReport rep;
  rep.backend = backend_->kind();
  rep.steps = steps_;
  backend_->finalize(rep);
  return rep;
}

perf::Candidate Session::predict() const {
  return perf::evaluate(cfg_.model, cfg_.effective_cluster(), cfg_.sched.algo,
                        cfg_.dp, cfg_.sched.P, cfg_.effective_W(),
                        cfg_.sched.B, cfg_.mb_sequences,
                        cfg_.calibration ? &*cfg_.calibration : nullptr);
}

}  // namespace hanayo::api
