#pragma once
// Shared plumbing of hanayo_bench: the result sheet every workload fills
// (metrics, output checks, attempted/failed operation counts), the span
// buffer behind --trace, and small statistics helpers.
//
// Everything here lives on the benchmark's side of the API: spans are
// recorded around calls into the library and from the timestamps its
// public reports carry, never from inside src/.

#include <cstdint>
#include <string>
#include <vector>

namespace bench {

struct Options {
  std::string workload;
  uint64_t seed = 2026;
  double seconds = 20.0;
  /// Chrome-trace output path; non-empty selects the traced run, which
  /// reports the per-layer metrics instead of the end-to-end ones.
  std::string trace_path;
  /// Set-ups per run; the median set-up time is reported.
  int setups = 5;

  bool traced() const { return !trace_path.empty(); }
};

/// Nearest-rank quantile (copies `v`); 0 when empty.
double quantile(const std::vector<double>& v, double q);
double median(const std::vector<double>& v);
/// Samples strictly above the q-quantile — the "at least ten beyond the
/// reported percentile" rule is checked against this.
int64_t beyond(const std::vector<double>& v, double q);

/// Peak resident set of this process, MiB (getrusage).
double rss_peak_mib();

/// The result sheet of one run. Metric names without a dot are end-to-end
/// metrics, `<layer>.<metric>` names are per-layer ones; `print()` emits
/// the set the run type asks for as the final JSON line.
class Results {
 public:
  void metric(const std::string& name, double value, const std::string& unit,
              int64_t samples = 1);
  /// A diagnostic: printed with its sample count, never part of the JSON.
  void diag(const std::string& name, double value, const std::string& unit,
            int64_t samples = 1);
  /// An output check; a failed one makes the run incorrect.
  void check(bool ok, const std::string& what);
  /// Operations attempted / failed (steps, requests, checks).
  void ops(int64_t attempted, int64_t failed);

  bool correct() const { return checks_failed_ == 0; }
  /// Prints diagnostics and metrics as `#` lines, then the final JSON line
  /// holding the per-layer metrics (traced) or the end-to-end ones.
  void print(bool traced) const;

 private:
  struct Entry {
    std::string name, unit;
    double value = 0.0;
    int64_t samples = 0;
    bool diag = false;
  };
  std::vector<Entry> entries_;
  int64_t attempted_ = 0, failed_ = 0, checks_failed_ = 0;
};

/// Fixed-capacity span buffer for the traced run. Capacity is reserved up
/// front so recording never allocates; spans past it are counted as
/// dropped (the per-layer metrics never read this buffer, only the trace
/// file and the self-time table do).
class Tracer {
 public:
  explicit Tracer(size_t capacity) { spans_.reserve(capacity); }

  bool on() const { return spans_.capacity() > 0; }
  /// Records [start, end] (serve-clock seconds); returns the span's index
  /// for use as a parent, or -1 when off or full.
  int add(const char* name, const char* cat, int tid, int64_t id, int parent,
          double start, double end);

  /// Chrome-trace JSON in the layout sim/trace.cpp writes (complete "X"
  /// events, microseconds); ids go into args. Returns false on I/O error.
  bool write_chrome(const std::string& path) const;
  /// Per span name: count, total and self time (span length minus the
  /// union of its children's intervals), as `#` lines.
  void print_self_times() const;

 private:
  struct Span {
    const char* name;
    const char* cat;
    int tid;
    int64_t id;
    int parent;
    double start, end;
  };
  std::vector<Span> spans_;
  int64_t dropped_ = 0;
};

/// Layer probes (probes.cpp): each times one library layer on its own, at
/// the calling workload's shapes, with one span per timed call. A probe
/// returns NaN when the layer hands back a wrong result, which fails the
/// run's finiteness check.
/// GF/s of tensor::matmul on [m, k] x [k, n], one kernel thread.
double probe_gemm_gflops(int64_t m, int64_t k, int64_t n, Tracer& tr);
/// Median send + echo round trip of a `numel`-float tensor between two
/// comm::Communicators, microseconds.
double probe_p2p_roundtrip_us(int64_t numel, Tracer& tr);
/// Median comm::allreduce_sum of `numel` floats over two ranks, ms.
double probe_allreduce_ms(int64_t numel, Tracer& tr);

/// Workload entry points (train.cpp, serve.cpp).
void run_train(const Options& opt, Results& res, Tracer& tr);
void run_serve(const Options& opt, Results& res, Tracer& tr);

}  // namespace bench
