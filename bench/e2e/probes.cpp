// Layer probes: one library layer timed on its own, outside any workload
// traffic, so a per-layer change shows up here even when the end-to-end
// metric it feeds is too noisy to resolve it.

#include <algorithm>
#include <cmath>
#include <thread>

#include "comm/collectives.hpp"
#include "harness.hpp"
#include "runtime/infer.hpp"
#include "tensor/ops.hpp"
#include "tensor/parallel.hpp"
#include "tensor/rng.hpp"

namespace bench {

namespace {

using hanayo::runtime::serve_clock_s;
namespace comm = hanayo::comm;
namespace tensor = hanayo::tensor;

constexpr int kProbeTid = 100;  // trace track of the probes
constexpr double kProbeBudgetS = 0.15;

}  // namespace

double probe_gemm_gflops(int64_t m, int64_t k, int64_t n, Tracer& tr) {
  // One kernel thread: the pipeline workers run their kernels inline.
  tensor::IntraOpScope scope(1);
  tensor::Rng rng(17);
  const tensor::Tensor a = rng.randn({m, k});
  const tensor::Tensor b = rng.randn({k, n});
  std::vector<double> walls;
  const double stop = serve_clock_s() + kProbeBudgetS;
  while (walls.size() < 5 || serve_clock_s() < stop) {
    const double t0 = serve_clock_s();
    const tensor::Tensor c = tensor::matmul(a, b);
    const double t1 = serve_clock_s();
    tr.add("matmul", "probe", kProbeTid, -1, -1, t0, t1);
    walls.push_back(t1 - t0);
    if (!std::isfinite(c[0])) return NAN;
  }
  return 2.0 * static_cast<double>(m * k * n) / median(walls) / 1e9;
}

double probe_p2p_roundtrip_us(int64_t numel, Tracer& tr) {
  comm::World world(2);
  // Echo peer: returns every payload; a 1-element tensor ends it (real
  // payloads are boundary activations, never that small).
  std::thread echo([&world] {
    comm::Communicator c(&world, 1);
    for (;;) {
      tensor::Tensor t = c.recv(0, 1);
      if (t.numel() == 1) break;
      c.send(0, 2, std::move(t));
    }
  });
  comm::Communicator c(&world, 0);
  const tensor::Tensor payload({std::max<int64_t>(numel, 2)}, 1.0f);
  std::vector<double> walls;
  bool intact = true;
  const double stop = serve_clock_s() + kProbeBudgetS;
  while (walls.size() < 50 || serve_clock_s() < stop) {
    const double t0 = serve_clock_s();
    c.send(1, 1, payload);
    const tensor::Tensor back = c.recv(1, 2);
    const double t1 = serve_clock_s();
    tr.add("p2p_roundtrip", "probe", kProbeTid, -1, -1, t0, t1);
    walls.push_back(t1 - t0);
    intact = intact && back.numel() == payload.numel() && back[0] == 1.0f;
  }
  c.send(1, 1, tensor::Tensor({1}));
  echo.join();
  return intact ? median(walls) * 1e6 : NAN;
}

double probe_allreduce_ms(int64_t numel, Tracer& tr) {
  constexpr int kIters = 8;
  comm::World world(2);
  const comm::Group group{{0, 1}};
  std::vector<double> walls;
  bool intact = true;
  auto body = [&](int rank) {
    comm::Communicator c(&world, rank);
    tensor::Tensor t({numel}, 1.0f);
    for (int i = 0; i < kIters; ++i) {
      t.fill(1.0f);
      world.barrier();  // both ranks enter together; rank 0 times the call
      const double t0 = serve_clock_s();
      comm::allreduce_sum(c, group, t, /*phase=*/i);
      const double t1 = serve_clock_s();
      if (rank == 0) {
        tr.add("allreduce", "probe", kProbeTid, -1, -1, t0, t1);
        walls.push_back(t1 - t0);
        intact = intact && t[0] == 2.0f && t[numel - 1] == 2.0f;
      }
    }
  };
  std::thread peer(body, 1);
  body(0);
  peer.join();
  return intact ? median(walls) * 1e3 : NAN;
}

}  // namespace bench
