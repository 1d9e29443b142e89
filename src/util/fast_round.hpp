#pragma once
// Inline round-half-away-from-zero, exactly equivalent to std::llround
// for every |x| < 2^62 (the only regime the simulator produces: delays
// and timestamps are < 1e18 fs). std::llround is an out-of-line libm
// call on the hot gate-delay path; this compiles to a truncating
// convert, a subtract and two compares.
//
// Exactness argument: for |x| < 2^53 the truncation is representable
// and x - trunc(x) is computed without rounding (the exact difference
// fits the format), so the half-way comparison sees the true fractional
// part. For 2^53 <= |x| < 2^62 every double is already an integer and
// both functions return x unchanged.
//
// Why branch-free: the fraction of a jittered gate delay is uniformly
// random, so an `if (frac >= 0.5)` (which GCC turns into a conditional
// jump) mispredicts on about half of all gate evaluations. Adding the
// two comparison results as integers gives the same value for every
// input and leaves no jump for the predictor to miss.

#include <cstdint>

namespace gcdr::util {

[[nodiscard]] inline std::int64_t llround_i64(double x) {
    const auto i = static_cast<std::int64_t>(x);  // truncate toward zero
    const double frac = x - static_cast<double>(i);
    return i + static_cast<std::int64_t>(frac >= 0.5) -
           static_cast<std::int64_t>(frac <= -0.5);
}

}  // namespace gcdr::util
