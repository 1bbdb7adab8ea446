#pragma once
// Finite-range checks for config validators. Each is written so that NaN
// fails it, so a validator that requires `positive_finite(x)` rejects a NaN
// knob by name instead of letting it flow into a report.

#include <limits>

namespace lens::check {

/// x in (0, inf).
constexpr bool positive_finite(double x) {
  return x > 0.0 && x < std::numeric_limits<double>::infinity();
}

/// x in [0, inf).
constexpr bool nonnegative_finite(double x) {
  return x >= 0.0 && x < std::numeric_limits<double>::infinity();
}

}  // namespace lens::check
