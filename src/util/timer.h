// Wall-clock timing for the experiment harnesses.
#ifndef SVX_UTIL_TIMER_H_
#define SVX_UTIL_TIMER_H_

#include <chrono>

namespace svx {

/// Simple monotonic stopwatch.
class Timer {
 public:
  Timer() : start_(Clock::now()) {}

  void Reset() { start_ = Clock::now(); }

  /// Elapsed time in milliseconds since construction or last Reset().
  double ElapsedMillis() const {
    return std::chrono::duration<double, std::milli>(Clock::now() - start_)
        .count();
  }

  /// Elapsed time in microseconds.
  double ElapsedMicros() const {
    return std::chrono::duration<double, std::micro>(Clock::now() - start_)
        .count();
  }

 private:
  using Clock = std::chrono::steady_clock;
  Clock::time_point start_;
};

}  // namespace svx

#endif  // SVX_UTIL_TIMER_H_
