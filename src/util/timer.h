// Wall-clock stopwatch: stage seconds in the flow, the Fig. 7 density /
// wirelength split inside GP (GpResult), and the benches' timings.
#pragma once

#include <chrono>

namespace ep {

/// Simple stopwatch measuring wall time in seconds.
class Timer {
 public:
  Timer() : start_(Clock::now()) {}
  void reset() { start_ = Clock::now(); }
  [[nodiscard]] double seconds() const {
    return std::chrono::duration<double>(Clock::now() - start_).count();
  }

 private:
  using Clock = std::chrono::steady_clock;
  Clock::time_point start_;
};

}  // namespace ep
