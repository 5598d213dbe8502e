// Serving workloads: one Hanayo P=2, W=2 forward-only pipeline (dp=1) with
// paged KV (16-token pages), greedy decoding and up to 8 streams.
//
//   serve_decode  tiny(8, 64, 4, 512, 256); 16-token random prompts, 224
//                 new tokens; closed loop of 16 enqueued requests, drained,
//                 repeated. Decode at deep context, where attention's
//                 per-token KV gather grows with depth; prefill, admission
//                 and the prefix cache do almost nothing here.
//   serve_chat    tiny(8, 64, 4, 512, 128); prompts are a fixed 32-token
//                 system head plus 16 seeded tokens, 16 new tokens, prefix
//                 cache on, 250 ms deadline, RejectNew queue (cap 64).
//                 Phase 1: closed loop of 32 requests (capacity). Phase 2:
//                 open-loop Poisson arrivals at a fixed 120 req/s from one
//                 generator thread, TTFT timed from each request's due time.
//                 Prefill, admission and the prefix cache at shallow depth.
//
// dp > 1 serving is left out on purpose: 2x2 gang threads plus the
// draining thread and the generator would exceed the four threads a
// workload may load.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <optional>
#include <thread>

#include "core/hanayo.hpp"
#include "harness.hpp"
#include "tensor/alloc_stats.hpp"

namespace bench {

namespace {

using namespace hanayo;
using runtime::serve_clock_s;

struct ServeShape {
  bool chat = false;
  ModelConfig model;
  int64_t head = 0;    ///< fixed system-prompt tokens shared by every prompt
  int64_t unique = 0;  ///< seeded tokens per prompt
  int new_tokens = 0;
  int round = 0;       ///< requests per closed-loop round
  int64_t len() const { return head + unique; }
};

ServeShape shape_for(const std::string& workload) {
  if (workload == "serve_chat") {
    return {true, ModelConfig::tiny(8, 64, 4, 512, 128), 32, 16, 16, 32};
  }
  return {false, ModelConfig::tiny(8, 64, 4, 512, 256), 0, 16, 224, 16};
}

constexpr uint64_t kWeightSeed = 1;
constexpr double kChatRateReqS = 120.0;  // about a third of measured capacity
constexpr double kChatPhase1Share = 0.4;
constexpr int64_t kShallowDepth = 48;    // ITL bands by context depth
constexpr int64_t kDeepDepth = 192;
constexpr int kCheckedRequests = 4;
constexpr int kExtraDecodePasses = 32;
constexpr double kMiB = 1024.0 * 1024.0;

InferenceSession build(const ServeShape& s, BackendKind backend) {
  InferenceSession::Builder b = InferenceSession::builder();
  b.model(s.model)
      .algo(Algo::Hanayo)
      .pipeline(2)
      .waves(2)
      .backend(backend)
      .max_batch(8)
      .max_new_tokens(s.new_tokens)
      .sampling(Sampling::Greedy())
      .paged_kv()
      .kv_page_tokens(16)
      .seed(kWeightSeed);
  // The deadline and the queue bound are policies of the live server; the
  // sequential reference replays requests without them (a deadline would
  // cut its slower replay short).
  if (s.chat && backend == BackendKind::Threads) {
    b.prefix_cache(true).deadline_s(0.25).queue(QueuePolicy::RejectNew, 64);
  }
  return b.build();
}

/// Prompt token ids: the fixed head, then `unique` ids from `rng`.
std::vector<float> make_prompt(const ServeShape& s, Rng& rng) {
  std::vector<float> ids(static_cast<size_t>(s.len()));
  for (int64_t j = 0; j < s.len(); ++j) {
    ids[static_cast<size_t>(j)] =
        j < s.head ? static_cast<float>((7 * j + 3) % s.model.vocab)
                   : static_cast<float>(rng.index(s.model.vocab));
  }
  return ids;
}

Tensor to_tensor(const std::vector<float>& ids) {
  return Tensor({1, static_cast<int64_t>(ids.size())}, ids);
}

/// Preallocated on_token timestamp table, one row per request slot: the
/// callback stores one double, so streaming adds no allocation or lock to
/// the pass boundary it runs on.
class TokenClock {
 public:
  TokenClock(size_t rows, int cols)
      : cols_(static_cast<size_t>(cols)), ts_(rows * cols_, 0.0) {}
  TokenCallback callback(size_t row) {
    double* r = &ts_[row * cols_];
    return [r](const TokenEvent& e) { r[e.index] = serve_clock_s(); };
  }
  const double* row(size_t r) const { return &ts_[r * cols_]; }

 private:
  size_t cols_;
  std::vector<double> ts_;
};

struct Sampled {
  std::vector<float> prompt;
  std::vector<int64_t> tokens;
};

/// Everything measured from the requests the workload timed.
struct Observed {
  std::vector<double> itl, itl_shallow, itl_deep;  ///< inter-token gaps
  std::vector<double> queue_wait, prefill_latency, ttft;
  std::vector<double> round_walls, launch, flush;
  /// Requests kept for the reference check: the first two of the first
  /// measured round and of the latest one (closed loop), or two spread
  /// over the open loop.
  std::vector<Sampled> first, last;
};

void record_gaps(const ServeShape& s, const Completion& c, const double* ts,
                 Observed& o) {
  for (size_t i = 1; i < c.tokens.size(); ++i) {
    const double gap = ts[i] - ts[i - 1];
    const int64_t depth = s.len() + static_cast<int64_t>(i);
    o.itl.push_back(gap);
    if (depth < kShallowDepth) o.itl_shallow.push_back(gap);
    if (depth >= kDeepDepth) o.itl_deep.push_back(gap);
  }
}

/// Request-level spans from Completion timestamps: queue (from `from_s`,
/// the due or enqueue time), prefill and decode, sharing the request id.
void trace_request(const Completion& c, double from_s, int parent,
                   Tracer& tr) {
  if (c.admit_s < 0) return;
  const int tid = 2 + static_cast<int>(c.id % 16);
  tr.add("queue", "request", tid, c.id, parent, from_s, c.admit_s);
  if (c.first_token_s < 0) return;
  tr.add("prefill", "request", tid, c.id, parent, c.admit_s, c.first_token_s);
  tr.add("decode", "request", tid, c.id, parent, c.first_token_s, c.finish_s);
}

class Workload {
 public:
  Workload(const ServeShape& s, const Options& opt, Results& res, Tracer& tr)
      : s_(s),
        opt_(opt),
        res_(res),
        tr_(tr),
        rng_(opt.seed),
        clock_(static_cast<size_t>(s.round), s.new_tokens) {}

  /// One closed-loop round: `round` requests enqueued, then drained.
  /// Returns the round's wall time; `obs` (when set) records its requests.
  double closed_round(InferenceSession& srv, Observed* obs, bool traced) {
    std::vector<std::vector<float>> prompts;
    prompts.reserve(static_cast<size_t>(s_.round));
    for (int q = 0; q < s_.round; ++q) {
      prompts.push_back(make_prompt(s_, rng_));
      srv.enqueue(to_tensor(prompts.back()), 0,
                  clock_.callback(static_cast<size_t>(q)));
    }
    submitted_ += s_.round;
    const double t0 = serve_clock_s();
    const std::vector<Completion> done = srv.run();
    const double t1 = serve_clock_s();
    res_.check(static_cast<int>(done.size()) == s_.round,
               "closed round returned " + std::to_string(done.size()) +
                   " of " + std::to_string(s_.round) + " completions");
    int64_t unserved = 0;
    double first_admit = t1, last_finish = t0;
    for (const Completion& c : done) {
      unserved += c.served() ? 0 : 1;
      if (c.admit_s >= 0) first_admit = std::min(first_admit, c.admit_s);
      last_finish = std::max(last_finish, c.finish_s);
    }
    res_.ops(s_.round, unserved);
    if (obs == nullptr) return t1 - t0;

    const int span =
        traced ? tr_.add("run", "serve", 1, rounds_, -1, t0, t1) : -1;
    rounds_ += 1;
    obs->round_walls.push_back(t1 - t0);
    obs->launch.push_back(first_admit - t0);
    obs->flush.push_back(t1 - last_finish);
    // Ids of one round are consecutive: only this function enqueues here.
    const int64_t base = done.empty() ? 0 : done.front().id;
    obs->last.clear();
    for (const Completion& c : done) {
      const auto q = static_cast<size_t>(c.id - base);
      if (!c.served() || q >= prompts.size()) continue;
      record_gaps(s_, c, clock_.row(q), *obs);
      obs->queue_wait.push_back(c.admit_s - c.enqueue_s);
      obs->prefill_latency.push_back(c.first_token_s - c.admit_s);
      obs->ttft.push_back(c.first_token_s - c.enqueue_s);
      if (traced) trace_request(c, c.enqueue_s, span, tr_);
      if (q < 2) obs->last.push_back({prompts[q], c.tokens});
    }
    if (obs->first.empty()) obs->first = obs->last;
    return t1 - t0;
  }

  /// Serve_chat phase 2: seeded Poisson arrivals at a fixed rate from one
  /// generator thread while this thread drains.
  void open_loop(InferenceSession& srv, double seconds, Observed& o,
                 bool traced, std::vector<double>& gen_late) {
    const auto cap = static_cast<size_t>(kChatRateReqS * seconds * 1.5) + 64;
    TokenClock clock(cap, s_.new_tokens);
    std::vector<double> due(cap, 0.0);
    std::vector<int64_t> ids(cap, -1);
    std::vector<std::vector<float>> prompts(cap);
    gen_late.assign(cap, 0.0);
    std::atomic<size_t> issued{0};
    std::atomic<bool> gen_done{false};

    const double t0 = serve_clock_s();
    std::thread generator([&] {
      Rng gaps(opt_.seed * 0x9e3779b97f4a7c15ull + 1);
      Rng toks(opt_.seed ^ 0x5bd1e995ull);
      double t = t0;
      size_t i = 0;
      for (; i < cap; ++i) {
        const double u =
            std::max(1e-12, 1.0 - static_cast<double>(gaps.uniform()));
        t += -std::log(u) / kChatRateReqS;
        if (t > t0 + seconds) break;
        const double wait = t - serve_clock_s();
        if (wait > 0) {
          std::this_thread::sleep_for(std::chrono::duration<double>(wait));
        }
        prompts[i] = make_prompt(s_, toks);
        const double sent = serve_clock_s();
        ids[i] = srv.enqueue(to_tensor(prompts[i]), 0, clock.callback(i));
        due[i] = t;
        gen_late[i] = sent - t;
        issued.store(i + 1, std::memory_order_release);
      }
      gen_late.resize(i);
      gen_done.store(true, std::memory_order_release);
    });

    // Drain loop: run() back to back, sleeping 100 us only when it returned
    // nothing. Each completion remembers the run() call that returned it.
    std::vector<Completion> done;
    std::vector<int> run_of;
    std::vector<std::pair<double, double>> runs;
    done.reserve(cap);
    run_of.reserve(cap);
    runs.reserve(cap);
    for (;;) {
      const double r0 = serve_clock_s();
      std::vector<Completion> batch = srv.run();
      if (!batch.empty()) {
        runs.push_back({r0, serve_clock_s()});
        for (Completion& c : batch) {
          done.push_back(std::move(c));
          run_of.push_back(static_cast<int>(runs.size()) - 1);
        }
        continue;
      }
      if (gen_done.load(std::memory_order_acquire) &&
          done.size() == issued.load(std::memory_order_acquire)) {
        break;
      }
      std::this_thread::sleep_for(std::chrono::microseconds(100));
    }
    generator.join();

    const size_t n = issued.load();
    submitted_ += static_cast<int64_t>(n);
    res_.check(n > 0 && done.size() == n,
               "open loop: " + std::to_string(done.size()) +
                   " completions for " + std::to_string(n) + " requests");
    std::vector<int> run_span(runs.size(), -1);
    if (traced) {
      for (size_t r = 0; r < runs.size(); ++r) {
        run_span[r] = tr_.add("run", "serve", 1, -1, -1, runs[r].first,
                              runs[r].second);
      }
    }
    int64_t unserved = 0;
    for (size_t k = 0; k < done.size(); ++k) {
      const Completion& c = done[k];
      const auto i = static_cast<size_t>(c.id - ids[0]);
      if (i >= n || ids[i] != c.id) {
        res_.check(false, "open-loop completion with unknown id");
        continue;
      }
      if (!c.served()) {
        unserved += 1;
        continue;
      }
      record_gaps(s_, c, clock.row(i), o);
      o.ttft.push_back(c.first_token_s - due[i]);
      o.queue_wait.push_back(c.admit_s - due[i]);
      o.prefill_latency.push_back(c.first_token_s - c.admit_s);
      if (traced) {
        trace_request(c, due[i], run_span[static_cast<size_t>(run_of[k])], tr_);
      }
      // The first served request, and the first served one past halfway.
      if (o.first.empty() || (o.first.size() == 1 && i >= n / 2)) {
        o.first.push_back({prompts[i], c.tokens});
      }
    }
    res_.ops(static_cast<int64_t>(n), unserved);
  }

  int64_t submitted() const { return submitted_; }

 private:
  const ServeShape& s_;
  const Options& opt_;
  Results& res_;
  Tracer& tr_;
  Rng rng_;
  TokenClock clock_;
  int64_t submitted_ = 0;
  int64_t rounds_ = 0;
};

/// Extra heap allocations of a drain decoding 32 more tokens than an
/// otherwise identical one, on a warm session: per-request costs cancel,
/// leaving what the extra decode passes allocate (the differential method
/// of tests/runtime/test_alloc_decode.cpp and bench/serve_latency.cpp,
/// which divide by the 32 passes in integer arithmetic).
int64_t extra_decode_allocs(const ServeShape& s) {
  InferenceSession srv = build(s, BackendKind::Threads);
  std::vector<float> ids(8);
  for (size_t i = 0; i < ids.size(); ++i) ids[i] = static_cast<float>(1 + i);
  auto drain_with = [&](int max_new) {
    srv.enqueue(to_tensor(ids), max_new);
    const tensor::AllocStats before = tensor::alloc_stats();
    (void)srv.run();
    return tensor::alloc_stats() - before;
  };
  (void)drain_with(4);
  const tensor::AllocStats a = drain_with(4);
  const tensor::AllocStats b = drain_with(4 + kExtraDecodePasses);
  return b.allocs - a.allocs;
}

}  // namespace

void run_serve(const Options& opt, Results& res, Tracer& tr) {
  const ServeShape s = shape_for(opt.workload);
  Workload w(s, opt, res, tr);

  std::vector<double> setup_walls;
  std::optional<InferenceSession> srv;
  int64_t sent_before = 0;  // requests sent to earlier set-ups' sessions
  for (int i = 0; i < opt.setups; ++i) {
    srv.reset();
    sent_before = w.submitted();
    const double t0 = serve_clock_s();
    srv.emplace(build(s, BackendKind::Threads));
    w.closed_round(*srv, nullptr, false);
    setup_walls.push_back(serve_clock_s() - t0);
  }

  // Closed loop (all of serve_decode; phase 1 of serve_chat). In the traced
  // run, rounds alternate between recording spans and not.
  Observed closed, open;
  std::vector<double> plain_walls, traced_walls;
  const double closed_s =
      s.chat ? opt.seconds * kChatPhase1Share : opt.seconds;
  const ServeReport before = srv->report();
  const double stop = serve_clock_s() + closed_s;
  for (int i = 0; i < 2 || serve_clock_s() < stop; ++i) {
    const bool traced = opt.traced() && i % 2 == 1;
    (traced ? traced_walls : plain_walls)
        .push_back(w.closed_round(*srv, &closed, traced));
  }
  const ServeReport after_closed = srv->report();
  std::vector<double> gen_late;
  if (s.chat) {
    w.open_loop(*srv, opt.seconds * (1.0 - kChatPhase1Share), open,
                opt.traced(), gen_late);
  }
  const ServeReport rep = srv->report();

  res.check(rep.submitted == w.submitted() - sent_before,
            "server counted " + std::to_string(rep.submitted) +
                " submitted, benchmark sent " +
                std::to_string(w.submitted() - sent_before));
  res.check(rep.submitted ==
                rep.completed + rep.rejected + rep.cancelled + rep.timed_out,
            "outcome conservation: submitted " + std::to_string(rep.submitted) +
                " != served + rejected + cancelled + timed_out");

  // Greedy tokens of sampled served requests must equal the sequential
  // full-prefix-recompute reference's.
  std::vector<Sampled> sampled = closed.first;
  const std::vector<Sampled>& more = s.chat ? open.first : closed.last;
  sampled.insert(sampled.end(), more.begin(), more.end());
  res.check(sampled.size() == kCheckedRequests,
            "only " + std::to_string(sampled.size()) + " requests sampled");
  InferenceSession ref = build(s, BackendKind::Reference);
  for (const Sampled& x : sampled) ref.enqueue(to_tensor(x.prompt));
  const double r0 = serve_clock_s();
  const std::vector<Completion> ref_done = ref.run();
  const double ref_wall = serve_clock_s() - r0;
  int64_t ref_tokens = 0;
  for (size_t i = 0; i < sampled.size() && i < ref_done.size(); ++i) {
    ref_tokens += static_cast<int64_t>(ref_done[i].tokens.size());
    res.check(ref_done[i].tokens == sampled[i].tokens,
              "sampled request " + std::to_string(i) +
                  " differs from the reference decode");
  }

  // ---- end-to-end metrics -----------------------------------------------
  // Throughput is total tokens over total time. On a shared host, slow and
  // fast periods alternate within a run; a median round flips between the
  // two levels from run to run, the total moves with their mix.
  const auto rounds = static_cast<int64_t>(closed.round_walls.size());
  double closed_wall = 0.0;
  for (double x : closed.round_walls) closed_wall += x;
  const double round_wall = closed_wall / static_cast<double>(rounds);
  const double tok_s =
      static_cast<double>(s.round) * s.new_tokens / round_wall;
  const std::vector<double>& lat = s.chat ? open.ttft : closed.itl;
  const auto n_lat = static_cast<int64_t>(lat.size());
  res.metric("setup_s", median(setup_walls), "s", opt.setups);
  res.metric("rss_peak_mib", rss_peak_mib(), "MiB");
  res.metric("tokens_per_s", tok_s, "tok/s", rounds);
  res.metric("latency_p50_ms", median(lat) * 1e3, "ms", n_lat);
  res.metric("latency_p90_ms", quantile(lat, 0.9) * 1e3, "ms", n_lat);
  res.metric("state_peak_mib", static_cast<double>(rep.peak_kv_bytes) / kMiB,
             "MiB");
  res.diag("latency_beyond_p90", static_cast<double>(beyond(lat, 0.9)),
           "count");
  res.diag("capacity_req_s", s.round / round_wall, "req/s", rounds);
  res.diag("rejected", static_cast<double>(rep.rejected), "count");
  res.diag("timed_out", static_cast<double>(rep.timed_out), "count");
  res.diag("reference_tokens_per_s",
           static_cast<double>(ref_tokens) / ref_wall, "tok/s", ref_tokens);
  if (!opt.traced()) return;

  // ---- per-layer metrics (traced run) -----------------------------------
  const std::vector<double>& qw = s.chat ? open.queue_wait : closed.queue_wait;
  const std::vector<double>& pl =
      s.chat ? open.prefill_latency : closed.prefill_latency;
  const double d_passes = after_closed.decode_passes - before.decode_passes;
  const double p_passes = after_closed.prefill_passes - before.prefill_passes;
  const double d_s = after_closed.decode_s - before.decode_s;
  const double p_s = after_closed.prefill_s - before.prefill_s;
  const double flush = median(closed.flush);
  std::vector<double> itl = closed.itl;
  itl.insert(itl.end(), open.itl.begin(), open.itl.end());
  const double shallow = median(closed.itl_shallow);
  const double deep = median(closed.itl_deep);

  res.metric("schedule.bubble_eq1", 0.0, "ratio");
  res.metric("schedule.p2p_msgs_per_step",
             srv->schedule()->count(schedule::Op::SendAct), "count");
  res.metric("runtime.idle_share", 0.0, "ratio");
  res.metric("runtime.idle_excess", 0.0, "ratio");
  res.metric("runtime.launch_ms", median(closed.launch) * 1e3, "ms", rounds);
  res.metric("runtime.flush_ms", flush * 1e3, "ms", rounds);
  res.metric("runtime.flush_share", flush / round_wall, "ratio", rounds);
  res.metric("runtime.pass_ms", d_s / d_passes * 1e3, "ms",
             static_cast<int64_t>(d_passes));
  res.metric("runtime.out_of_pass_share", 1.0 - (p_s + d_s) / closed_wall,
             "ratio", rounds);
  res.metric("runtime.queue_wait_p50_ms", median(qw) * 1e3, "ms",
             static_cast<int64_t>(qw.size()));
  res.metric("runtime.prefill_latency_p50_ms", median(pl) * 1e3, "ms",
             static_cast<int64_t>(pl.size()));
  res.metric("runtime.speedup_vs_reference",
             tok_s / (static_cast<double>(ref_tokens) / ref_wall), "x");
  const double prompt_tok = rep.prompt_tokens - before.prompt_tokens;
  const double hit_tok = rep.prefix_hit_tokens - before.prefix_hit_tokens;
  res.metric("kv.prefix_hit_rate", hit_tok / prompt_tok, "ratio");
  res.metric("kv.prefill_tokens_saved",
             hit_tok / static_cast<double>(rep.requests - before.requests),
             "tok/req");
  res.metric("kv.pages_peak", static_cast<double>(rep.kv_pages_peak), "pages");
  res.metric("model.bwd_fwd_ratio", 0.0, "ratio");
  res.metric("model.depth_cost_ratio",
             closed.itl_deep.empty() || closed.itl_shallow.empty()
                 ? 0.0
                 : deep / shallow,
             "ratio");
  res.metric("tensor.allocs_per_step", 0.0, "count");
  const int64_t extra_allocs = extra_decode_allocs(s);
  res.metric("tensor.allocs_per_decode_pass",
             static_cast<double>(extra_allocs / kExtraDecodePasses), "count");
  res.diag("tensor.allocs_per_32_decode_passes",
           static_cast<double>(extra_allocs), "count");
  // MLP shape of the workload's typical micro-batch: one decode token, or
  // the uncached prompt tail a chat prefill computes.
  const int64_t rows = s.chat ? s.unique : 1;
  const int64_t h = s.model.hidden;
  res.metric("tensor.gemm_gflops", probe_gemm_gflops(rows, h, 4 * h, tr),
             "GF/s");
  res.metric("comm.p2p_roundtrip_us", probe_p2p_roundtrip_us(rows * h, tr),
             "us");
  int64_t params = 0;
  for (const model::LayerDesc& d : s.model.layer_descs()) {
    params += d.param_count();
  }
  res.metric("comm.allreduce_ms", probe_allreduce_ms(params, tr), "ms");
  res.metric("bench.trace_overhead",
             median(traced_walls) / median(plain_walls) - 1.0, "ratio",
             static_cast<int64_t>(traced_walls.size()));

  res.diag("runtime.prefill_pass_ms", p_s / p_passes * 1e3, "ms",
           static_cast<int64_t>(p_passes));
  res.diag("model.itl_shallow_p50_ms", shallow * 1e3, "ms",
           static_cast<int64_t>(closed.itl_shallow.size()));
  res.diag("model.itl_deep_p50_ms", deep * 1e3, "ms",
           static_cast<int64_t>(closed.itl_deep.size()));
  const std::vector<double>& ttft = s.chat ? open.ttft : closed.ttft;
  res.diag("api.ttft_p99_ms", quantile(ttft, 0.99) * 1e3, "ms",
           static_cast<int64_t>(ttft.size()));
  res.diag("api.itl_p99_ms", quantile(itl, 0.99) * 1e3, "ms",
           static_cast<int64_t>(itl.size()));
  res.diag("bench.gen_late_p99_ms", quantile(gen_late, 0.99) * 1e3, "ms",
           static_cast<int64_t>(gen_late.size()));
}

}  // namespace bench
