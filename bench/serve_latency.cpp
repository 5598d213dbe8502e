// Serving latency/throughput sweep: prefill tokens/sec and per-token decode
// latency across pipeline depth, wave count, concurrent batch size and
// data-parallel replica count, measured on the real forward-only runtime and
// set against the forward-only event simulation's prediction for the same
// configuration.
//
//   $ ./bench/serve_latency [out.json] [max_dp] [--short] [--no-gate]
//                           [--alloc-gate]
//
// Prediction units: the cost model is calibrated to THIS machine first
// (perf::calibrate measures sec/FLOP and transport latency/bandwidth on the
// real kernel and comm stacks). On top of that, the sweep's own measured
// rows feed perf::calibrate_serving: the forward-only rate scales are
// measured single-thread (so the remaining residual is attributable), and
// the per-pass orchestration overhead + CPU-oversubscription factor are
// fitted from the rows. `predicted_per_token_ms` applies the full serving
// calibration; `uncal_predicted_per_token_ms` keeps the raw event-sim
// prediction visible so the correction itself stays auditable. Residuals
// are reported in BOTH directions (the raw model both under-prices
// oversubscribed multi-replica rows and over-prices single-stream decode,
// which runs faster per counted FLOP than the training-forward rate the
// base calibration measures).
//
// Emits BENCH_serve.json plus a <out>_cal.json coefficient artifact (CI's
// bench-smoke job runs this with max_dp=2, gates on the calibrated
// residual band, and uploads both). Exit status: 0 on success, 2 when the
// median |log(meas/pred)| exceeds the gate (suppressed by --no-gate, which
// the sanitizer legs use — TSan/ASan timing is not comparable).

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "core/hanayo.hpp"
#include "tensor/alloc_stats.hpp"

using namespace hanayo;

namespace {

struct Row {
  Algo algo = Algo::Hanayo;
  std::string algo_name;
  int P = 0, W = 0, batch = 0, dp = 1;
  bool prefix_cache = true;
  int64_t prompt_tokens = 0;
  int new_tokens = 0;
  double prefill_tok_s = 0.0;
  double overall_tok_s = 0.0;  ///< generated tokens / (prefill + decode) wall
  double per_token_ms = 0.0;   ///< mean decode-pass latency
  double p99_per_token_ms = 0.0;  ///< p99 across per-request means (pooled)
  double meas_prefill_pass_ms = 0.0;       ///< mean measured prefill pass
  double uncal_predicted_per_token_ms = 0.0;  ///< raw event-sim prediction
  double predicted_per_token_ms = 0.0;        ///< + fitted serving calibration
  int64_t kv_pages_peak = 0;        ///< KV pool high-water mark
  int64_t prefix_hit_tokens = 0;    ///< prompt tokens from the prefix cache
};

InferenceSession::Builder config_builder(const ModelConfig& model,
                                         const perf::Calibration& cal,
                                         Algo algo, int P, int W, int batch,
                                         int dp, int64_t prompt_len,
                                         int new_tokens, bool prefix_cache) {
  auto builder = InferenceSession::builder();
  builder.model(model)
      .algo(algo)
      .pipeline(P)
      .waves(W)
      .backend(BackendKind::Threads)
      .max_batch(batch)
      .max_new_tokens(new_tokens)
      .prompt_tokens(prompt_len)
      .data_parallel(dp)
      .calibration(cal)
      .prefix_cache(prefix_cache)
      .seed(7);
  return builder;
}

double p99(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const size_t idx = static_cast<size_t>(
      std::ceil(0.99 * static_cast<double>(v.size()))) - 1;
  return v[std::min(idx, v.size() - 1)];
}

Row run_config(const ModelConfig& model, const perf::Calibration& cal,
               Algo algo, int P, int W, int batch, int dp, int64_t prompt_len,
               int new_tokens, int run_repeats, bool prefix_cache = true) {
  // Whether concurrent replica/worker passes collide on the host's cores is
  // a per-drain scheduling lottery — within one drain the overlap phase
  // persists, so averaging more passes inside one drain does not converge
  // (the distribution across drains is bimodal: collide or anti-align).
  // Repeat the whole drain and pool the pass counters across repeats — the
  // pooled mean estimates the true collision rate, which is the quantity
  // the calibration's oversubscription factor models.
  std::vector<runtime::ServeStats> drains;
  ServeReport rep;
  ServeReport sla;
  for (int r = 0; r < run_repeats; ++r) {
    auto server = config_builder(model, cal, algo, P, W, batch, dp, prompt_len,
                                 new_tokens, prefix_cache)
                      .build();
    Rng rng(13);
    // Two full batches per replica: the second re-fills freed slots
    // (continuous batching) on every replica of the shared queue.
    for (int q = 0; q < 2 * batch * dp; ++q) {
      Tensor prompt({1, prompt_len});
      for (int64_t i = 0; i < prompt_len; ++i) {
        prompt[i] = static_cast<float>(rng.index(model.vocab));
      }
      server.enqueue(prompt);
    }
    (void)server.run();
    if (r == 0) {
      rep = server.report();  // keeps kv/prefix columns of a single drain
      sla = server.predict();
    }
    drains.push_back(server.report().totals());
  }
  const runtime::ServeStats pooled = runtime::merge_stats(drains);
  rep.set_totals(pooled);

  Row row;
  row.algo = algo;
  row.algo_name = schedule::algo_name(algo);
  row.P = P;
  row.W = W;
  row.batch = batch;
  row.dp = dp;
  row.prefix_cache = prefix_cache;
  row.kv_pages_peak = rep.kv_pages_peak;
  row.prefix_hit_tokens = rep.prefix_hit_tokens;
  row.prompt_tokens = rep.prompt_tokens;
  row.new_tokens = new_tokens;
  row.prefill_tok_s = rep.prefill_tokens_per_s();
  row.overall_tok_s = rep.tokens_per_s();
  row.per_token_ms = rep.per_token_latency_s() * 1e3;
  row.p99_per_token_ms = p99(pooled.per_token_samples_s) * 1e3;
  const runtime::ServeStats tot = rep.totals();
  row.meas_prefill_pass_ms =
      tot.prefill_passes > 0 ? tot.prefill_s / tot.prefill_passes * 1e3 : 0.0;
  row.uncal_predicted_per_token_ms = sla.per_token_latency_s() * 1e3;
  return row;
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

// Marginal heap allocations of kExtraDecodePasses steady-state decode
// passes — the same differential methodology as
// tests/runtime/test_alloc_decode.cpp (two drains on a warmed dp = 1 server
// differing only in continuation length, so per-request costs cancel). The
// raw difference is reported, not a per-pass quotient, which integer
// division would round a few stray allocations down to zero. The arena
// work drove this to zero; the --alloc-gate flag turns any regression into
// a failing bench-smoke run before it can show up as p99 jitter.
constexpr int kExtraDecodePasses = 32;

int64_t steady_decode_extra_allocs() {
  runtime::InferConfig cfg;
  cfg.model = ModelConfig::tiny(6, 32, 2, 67, 96);
  cfg.sched.algo = Algo::Hanayo;
  cfg.sched.P = 2;
  cfg.sched.waves = 1;
  cfg.max_batch = 1;
  cfg.max_new_tokens = 64;
  cfg.seed = 5;
  runtime::InferenceServer server(cfg);
  Tensor prompt({1, 8});
  for (int64_t i = 0; i < prompt.numel(); ++i) {
    prompt[i] = static_cast<float>(1 + i);
  }
  const auto drain_with = [&](int max_new) {
    server.enqueue(prompt, max_new);
    const tensor::AllocStats before = tensor::alloc_stats();
    (void)server.drain();
    return tensor::alloc_stats() - before;
  };
  (void)drain_with(4);  // warm-up: arenas, pools, KV slot
  const tensor::AllocStats a = drain_with(4);
  const tensor::AllocStats b = drain_with(4 + kExtraDecodePasses);
  return b.allocs - a.allocs;
}

}  // namespace

int main(int argc, char** argv) {
  // Usage: serve_latency [out.json] [max_dp] [--short] [--no-gate]
  //                      [--alloc-gate]
  // --short: smoke-sized sweep for the sanitizer CI legs, where the point
  // is exercising the threaded serving stack under TSan/ASan (~10x slower),
  // not producing comparable latency numbers.
  // --no-gate: still fit and report residuals, but never fail the run on
  // them (sanitizer timing would trip any honest band).
  // --alloc-gate: fail (exit 3) when a steady-state decode pass performs
  // any heap allocation — the zero-alloc arena invariant, enforced in CI
  // where timing gates would be too noisy.
  const std::string out_path = argc > 1 ? argv[1] : "BENCH_serve.json";
  int max_dp = 2;
  bool short_mode = false;
  bool gate = true;
  bool alloc_gate = false;
  for (int i = 2; i < argc; ++i) {
    if (std::string(argv[i]) == "--short") {
      short_mode = true;
    } else if (std::string(argv[i]) == "--no-gate") {
      gate = false;
    } else if (std::string(argv[i]) == "--alloc-gate") {
      alloc_gate = true;
    } else {
      max_dp = std::atoi(argv[i]);
    }
  }
  const ModelConfig model = ModelConfig::tiny(/*layers=*/8, /*hidden=*/64,
                                              /*heads=*/4, /*vocab=*/512,
                                              /*seq=*/64);
  const int64_t prompt_len = 16;
  const int new_tokens = short_mode ? 4 : 8;

  // Measure this machine before predicting for it (see file comment).
  std::printf("calibrating cost model against the local kernel stack ...\n");
  const perf::Calibration cal =
      perf::calibrate(model, /*mb_sequences=*/1, /*compute_repeats=*/3,
                      /*comm_repeats=*/short_mode ? 10 : 50);
  std::printf("  sec/flop %.3e, bwd/fwd %.2f, %.2f GB/s, %.1f us/msg\n",
              cal.sec_per_flop, cal.bwd_fwd_ratio, cal.bytes_per_s / 1e9,
              cal.latency_s * 1e6);
  std::printf("measuring forward-only rate scales (single-thread) ...\n");
  const perf::ServingCalibration rate_seed = perf::measure_serving_rates(
      model, cal, prompt_len, /*repeats=*/short_mode ? 5 : 20);
  std::printf("  prefill %.3fx, decode %.3fx of the flop model, %d cores\n",
              rate_seed.prefill_rate_scale, rate_seed.decode_rate_scale,
              rate_seed.host_cores);

  struct Config {
    Algo algo;
    int P, W;
  };
  std::vector<Config> grid = {
      {Algo::GPipe, 2, 1},  {Algo::Dapple, 2, 1}, {Algo::Hanayo, 2, 1},
      {Algo::Hanayo, 2, 2}, {Algo::Hanayo, 4, 1},
  };
  // One deep and one wavy config still cover prefill/decode interleaving,
  // continuous batching and (with max_dp=2) the shared-queue replicas.
  if (short_mode) grid = {{Algo::Hanayo, 2, 2}, {Algo::Hanayo, 4, 1}};

  std::vector<Row> rows;
  const std::vector<int> batches = short_mode ? std::vector<int>{2}
                                              : std::vector<int>{1, 4};
  for (const Config& c : grid) {
    for (int batch : batches) {
      for (int dp = 1; dp <= max_dp; dp *= 2) {
        // Small drains (few streams) see the widest collide/anti-align
        // spread per drain, so they get many more repeats; their drains
        // are also the cheapest to repeat.
        const int run_repeats =
            short_mode ? 1 : (batch * dp <= 2 ? 21 : (batch * dp <= 4 ? 9 : 5));
        std::printf("serve %-8s P=%d W=%d batch=%d dp=%d ...\n",
                    schedule::algo_name(c.algo).c_str(), c.P, c.W, batch, dp);
        rows.push_back(run_config(model, cal, c.algo, c.P, c.W, batch, dp,
                                  prompt_len, new_tokens, run_repeats));
      }
    }
  }
  // One private-pages point next to its prefix-cache twin: same closed
  // batch, every stream's pages private (kv_pages_peak shows the pool
  // footprint; prompts are random here, so cache hits are incidental — the
  // shared-prefix workload lives in bench/traffic).
  {
    const int batch = short_mode ? 2 : 4;
    std::printf("serve hanayo   P=2 W=2 batch=%d dp=1 [private pages] ...\n",
                batch);
    rows.push_back(run_config(model, cal, Algo::Hanayo, 2, 2, batch, 1,
                              prompt_len, new_tokens, short_mode ? 1 : 5,
                              /*prefix_cache=*/false));
  }

  // Fit the serving-side coefficients from the sweep's own measured rows,
  // then re-predict every row with the calibration applied.
  std::vector<perf::ServingSample> samples;
  for (const Row& r : rows) {
    perf::ServingSample s;
    s.algo = r.algo;
    s.P = r.P;
    s.W = r.W;
    s.max_batch = r.batch;
    s.dp = r.dp;
    s.prompt_tokens = prompt_len;
    s.max_new_tokens = r.new_tokens;
    s.measured_decode_pass_s = r.per_token_ms * 1e-3;
    s.measured_prefill_pass_s = r.meas_prefill_pass_ms * 1e-3;
    samples.push_back(s);
  }
  const perf::ServingCalibration sc = perf::calibrate_serving(
      model, api::planning_cluster(8, cal), cal, samples, rate_seed);
  std::printf(
      "fitted serving calibration: overhead %.1f us/pass + %.1f us/worker, "
      "oversub %.2f (%d cores), %d fit rows, residual log-rms %.3f\n",
      sc.pass_overhead_s * 1e6, sc.worker_overhead_s * 1e6, sc.oversub_factor,
      sc.host_cores, sc.fit_rows, sc.residual_log_rms);
  for (Row& r : rows) {
    auto builder = config_builder(model, cal, r.algo, r.P, r.W, r.batch, r.dp,
                                  prompt_len, r.new_tokens, r.prefix_cache);
    builder.serving_calibration(sc);
    const ServeReport pred = api::predict_serving(builder.config());
    r.predicted_per_token_ms = pred.per_token_latency_s() * 1e3;
  }

  // Steady-state decode allocation audit (differential).
  std::printf("measuring steady-state decode allocations ...\n");
  const int64_t allocs = steady_decode_extra_allocs();
  std::printf("  allocs over %d decode passes: %lld (target 0)\n",
              kExtraDecodePasses, static_cast<long long>(allocs));

  // Residual band over the calibrated predictions, both directions.
  std::vector<double> abs_logs;
  double max_over = 0.0, max_under = 1e300;
  for (const Row& r : rows) {
    if (r.predicted_per_token_ms <= 0.0 || r.per_token_ms <= 0.0) continue;
    const double ratio = r.per_token_ms / r.predicted_per_token_ms;
    abs_logs.push_back(std::fabs(std::log(ratio)));
    max_over = std::max(max_over, ratio);
    max_under = std::min(max_under, ratio);
  }
  const double median_abs_log = median(abs_logs);
  // Generous: ln(1.5) — the fit is in-sample, so exceeding this means the
  // model's *shape* is wrong (a new unpriced mechanism), not just noise.
  const double gate_band = std::log(1.5);
  std::printf(
      "calibrated residuals: median |log(meas/pred)| %.3f (gate %.3f), "
      "meas/pred in [%.2f, %.2f]\n",
      median_abs_log, gate_band, max_under, max_over);

  FILE* f = std::fopen(out_path.c_str(), "w");
  if (!f) {
    std::fprintf(stderr, "cannot open %s\n", out_path.c_str());
    return 1;
  }
  std::fprintf(f, "{\n  \"bench\": \"serve_latency\",\n");
  std::fprintf(f, "  \"model\": {\"layers\": %lld, \"hidden\": %lld, "
               "\"seq\": %lld, \"vocab\": %lld},\n",
               static_cast<long long>(model.layers),
               static_cast<long long>(model.hidden),
               static_cast<long long>(model.seq),
               static_cast<long long>(model.vocab));
  std::fprintf(f, "  \"prompt_tokens_per_seq\": %lld,\n",
               static_cast<long long>(prompt_len));
  std::fprintf(f, "  \"new_tokens_per_seq\": %d,\n", new_tokens);
  std::fprintf(f,
               "  \"calibration\": {\"sec_per_flop\": %.4e, "
               "\"bytes_per_s\": %.4e, \"latency_s\": %.4e},\n",
               cal.sec_per_flop, cal.bytes_per_s, cal.latency_s);
  std::fprintf(f,
               "  \"serving_calibration\": {\"prefill_rate_scale\": %.4f, "
               "\"decode_rate_scale\": %.4f, \"pass_overhead_s\": %.4e, "
               "\"worker_overhead_s\": %.4e, "
               "\"oversub_factor\": %.2f, \"host_cores\": %d, "
               "\"fit_rows\": %d, \"residual_log_rms\": %.4f},\n",
               sc.prefill_rate_scale, sc.decode_rate_scale, sc.pass_overhead_s,
               sc.worker_overhead_s, sc.oversub_factor, sc.host_cores,
               sc.fit_rows, sc.residual_log_rms);
  std::fprintf(f,
               "  \"steady_decode_extra_allocs\": {\"passes\": %d, "
               "\"allocs\": %lld, \"gated\": %s},\n",
               kExtraDecodePasses, static_cast<long long>(allocs),
               alloc_gate ? "true" : "false");
  std::fprintf(f,
               "  \"residuals\": {\"median_abs_log\": %.4f, "
               "\"max_over\": %.3f, \"max_under\": %.3f, "
               "\"gate_abs_log\": %.4f, \"gated\": %s},\n",
               median_abs_log, max_over, max_under, gate_band,
               gate ? "true" : "false");
  std::fprintf(f,
               "  \"note\": \"predicted_per_token_ms applies the fitted "
               "serving calibration (forward-only rate scales measured "
               "single-thread; per-pass orchestration overhead and CPU "
               "oversubscription fitted from these rows); "
               "uncal_predicted_per_token_ms is the raw calibrated event-sim "
               "prediction. Residuals run in BOTH directions: "
               "meas_over_pred > 1 means the model still under-prices the "
               "row, < 1 means it over-prices it (the raw model did both — "
               "orchestration/oversubscription pushed multi-worker rows "
               "over, and billing decode at the training-forward rate pushed "
               "single-stream rows under)\",\n");
  std::fprintf(f, "  \"results\": [\n");
  for (size_t i = 0; i < rows.size(); ++i) {
    const Row& r = rows[i];
    const double ratio = r.predicted_per_token_ms > 0.0
                             ? r.per_token_ms / r.predicted_per_token_ms
                             : 0.0;
    const double uncal_ratio =
        r.uncal_predicted_per_token_ms > 0.0
            ? r.per_token_ms / r.uncal_predicted_per_token_ms
            : 0.0;
    std::fprintf(
        f,
        "    {\"algo\": \"%s\", \"P\": %d, \"W\": %d, \"max_batch\": %d, "
        "\"dp\": %d, \"prefix_cache\": %s, \"prompt_tokens\": %lld, "
        "\"prefill_tok_s\": %.1f, "
        "\"overall_tok_s\": %.1f, \"per_token_ms\": %.4f, "
        "\"p99_per_token_ms\": %.4f, "
        "\"predicted_per_token_ms\": %.4f, \"meas_over_pred\": %.2f, "
        "\"uncal_predicted_per_token_ms\": %.4f, "
        "\"uncal_meas_over_pred\": %.2f, "
        "\"kv_pages_peak\": %lld, \"prefix_hit_tokens\": %lld}%s\n",
        r.algo_name.c_str(), r.P, r.W, r.batch, r.dp,
        r.prefix_cache ? "true" : "false",
        static_cast<long long>(r.prompt_tokens),
        r.prefill_tok_s, r.overall_tok_s, r.per_token_ms, r.p99_per_token_ms,
        r.predicted_per_token_ms, ratio, r.uncal_predicted_per_token_ms,
        uncal_ratio, static_cast<long long>(r.kv_pages_peak),
        static_cast<long long>(r.prefix_hit_tokens),
        i + 1 < rows.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
  std::printf("wrote %s (%zu rows)\n", out_path.c_str(), rows.size());

  // Coefficient artifact next to the main JSON (CI uploads both).
  std::string cal_path = out_path;
  const std::string suffix = ".json";
  if (cal_path.size() >= suffix.size() &&
      cal_path.compare(cal_path.size() - suffix.size(), suffix.size(),
                       suffix) == 0) {
    cal_path.resize(cal_path.size() - suffix.size());
  }
  cal_path += "_cal.json";
  if (FILE* cf = std::fopen(cal_path.c_str(), "w")) {
    std::fprintf(cf,
                 "{\n  \"artifact\": \"serving_calibration\",\n"
                 "  \"prefill_rate_scale\": %.6f,\n"
                 "  \"decode_rate_scale\": %.6f,\n"
                 "  \"pass_overhead_s\": %.6e,\n"
                 "  \"worker_overhead_s\": %.6e,\n"
                 "  \"oversub_factor\": %.4f,\n"
                 "  \"host_cores\": %d,\n"
                 "  \"fit_rows\": %d,\n"
                 "  \"residual_log_rms\": %.6f\n}\n",
                 sc.prefill_rate_scale, sc.decode_rate_scale,
                 sc.pass_overhead_s, sc.worker_overhead_s, sc.oversub_factor,
                 sc.host_cores, sc.fit_rows, sc.residual_log_rms);
    std::fclose(cf);
    std::printf("wrote %s\n", cal_path.c_str());
  }

  if (gate && median_abs_log > gate_band) {
    std::fprintf(stderr,
                 "FAIL: calibrated residual band exceeded — median "
                 "|log(meas/pred)| %.3f > %.3f\n",
                 median_abs_log, gate_band);
    return 2;
  }
  if (alloc_gate && allocs > 0) {
    std::fprintf(stderr,
                 "FAIL: steady-state decode allocates (%lld over %d passes; "
                 "target 0) — a pass-lifetime buffer left the arena\n",
                 static_cast<long long>(allocs), kExtraDecodePasses);
    return 3;
  }
  return 0;
}
