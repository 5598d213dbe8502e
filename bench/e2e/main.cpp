// hanayo_bench — the repository benchmark: one workload per process, driven
// only through the library's public API, timed from outside it.
//
//   hanayo_bench --workload <train_wave|train_dp|serve_decode|serve_chat>
//                --seed <n> [--seconds s] [--trace out.json] [--smoke]
//
// An untraced run reports the end-to-end metrics; a run with --trace also
// records spans around every call into the library, writes them as
// Chrome-trace JSON, prints each span's self time, and reports the
// per-layer metrics instead. The last line of standard output is one JSON
// object: {"correct", "attempted", "failed", "metrics": {name: {value,
// unit}}}; the `#` lines before it carry every metric's sample count and
// the diagnostics. The exit status is non-zero when an output check failed.

#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>

#include "harness.hpp"

namespace {

int usage(const char* why) {
  std::fprintf(stderr,
               "hanayo_bench: %s\nusage: hanayo_bench --workload "
               "<train_wave|train_dp|serve_decode|serve_chat> --seed <n> "
               "[--seconds s] [--trace out.json] [--smoke]\n",
               why);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  bench::Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const bool has_value = i + 1 < argc;
    if (a == "--smoke") {
      // About a second per workload, for the ctest.
      opt.seconds = 1.0;
      opt.setups = 1;
    } else if (!has_value) {
      return usage(("missing value for " + a).c_str());
    } else if (a == "--workload") {
      opt.workload = argv[++i];
    } else if (a == "--seed") {
      opt.seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (a == "--seconds") {
      opt.seconds = std::atof(argv[++i]);
    } else if (a == "--trace") {
      opt.trace_path = argv[++i];
    } else {
      return usage(("unknown argument " + a).c_str());
    }
  }
  const bool train = opt.workload == "train_wave" || opt.workload == "train_dp";
  const bool serve =
      opt.workload == "serve_decode" || opt.workload == "serve_chat";
  if (!train && !serve) return usage("unknown workload");
  if (!(opt.seconds > 0.0) || opt.seconds > 120.0) {
    return usage("--seconds must be in (0, 120]");
  }

  bench::Results res;
  bench::Tracer tracer(opt.traced() ? size_t{1} << 18 : 0);
  try {
    if (train) {
      bench::run_train(opt, res, tracer);
    } else {
      bench::run_serve(opt, res, tracer);
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "hanayo_bench: %s failed: %s\n",
                 opt.workload.c_str(), e.what());
    return 1;
  }
  if (opt.traced()) {
    tracer.print_self_times();
    res.check(tracer.write_chrome(opt.trace_path),
              "cannot write trace " + opt.trace_path);
  }
  res.print(opt.traced());
  return res.correct() ? 0 : 1;
}
