// Shared wall-clock helpers: the one timing basis every layer's
// reported milliseconds come from (engine phase stats, executor job
// totals). Header-only on purpose.
#pragma once

#include <chrono>

namespace covest::util {

using Clock = std::chrono::steady_clock;

/// Milliseconds elapsed since `start`.
inline double ms_since(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start)
      .count();
}

}  // namespace covest::util
