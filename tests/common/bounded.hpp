#pragma once
// Bounded waits for calls that could hang.
//
// A regression that wedges a pipeline (a worker throws while its peers
// block in untimed waits) must fail its test, not stall the suite until
// ctest's timeout. within_limit runs the call on its own thread and waits
// on its future with std::future::wait_for. On time-out the test is marked
// failed and the process exits at once: the blocked call can be neither
// joined nor safely destroyed.

#include <gtest/gtest.h>

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <future>
#include <utility>

namespace hanayo_test {

constexpr std::chrono::seconds kHangLimit{60};

/// Returns fn()'s result, or rethrows what it threw.
template <typename Fn>
auto within_limit(Fn fn) -> decltype(fn()) {
  auto done = std::async(std::launch::async, std::move(fn));
  if (done.wait_for(kHangLimit) != std::future_status::ready) {
    ADD_FAILURE() << "call did not return within " << kHangLimit.count()
                  << " s";
    std::fflush(stdout);
    std::_Exit(1);
  }
  return done.get();
}

}  // namespace hanayo_test
