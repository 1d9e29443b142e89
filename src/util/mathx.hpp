#pragma once
// Numerical helpers shared by the statistical BER model (stats/, statmodel/)
// and the phase-noise budget (noise/): Gaussian tail math on a log scale so
// BERs down to 1e-40 stay representable, plus dB conversions and the
// fixed-step tolerance bisection.

#include <cstddef>
#include <vector>

namespace gcdr {

inline constexpr double kBoltzmann = 1.380649e-23;  // J/K
inline constexpr double kRoomTempK = 300.0;

/// Gaussian tail probability Q(x) = P(N(0,1) > x). Accurate into the far
/// tail (uses erfc; no catastrophic cancellation for large x).
[[nodiscard]] double q_function(double x);

/// Inverse of q_function on (0, 0.5]; e.g. q_inverse(1e-12) ~= 7.034.
/// Used to convert a BER target into the Q-scale of dual-Dirac extrapolation.
[[nodiscard]] double q_inverse(double p);

/// log10 of Q(x), stable for x up to ~400 (asymptotic expansion in the tail).
[[nodiscard]] double log10_q_function(double x);

/// Regularized incomplete beta function I_x(a, b) = P(Beta(a,b) <= x).
/// Continued-fraction evaluation (Lentz), accurate for a, b up to ~1e12 —
/// large enough for Clopper–Pearson bounds on terabit error counts.
[[nodiscard]] double beta_inc(double a, double b, double x);

/// Inverse of beta_inc in x: smallest x with I_x(a, b) >= p. Bisection on
/// the monotone CDF; used for exact binomial (Clopper–Pearson) intervals.
[[nodiscard]] double beta_inc_inv(double a, double b, double p);

/// Convert a power ratio to decibels.
[[nodiscard]] double to_db(double ratio);
/// Convert decibels to a power ratio.
[[nodiscard]] double from_db(double db);

/// Linearly spaced grid of n points over [lo, hi] inclusive (n >= 2).
[[nodiscard]] std::vector<double> linspace(double lo, double hi, std::size_t n);
/// Logarithmically spaced grid of n points over [lo, hi] inclusive (lo>0).
[[nodiscard]] std::vector<double> logspace(double lo, double hi, std::size_t n);

/// Linear interpolation of tabulated (xs, ys) at x; clamps beyond the ends.
/// xs must be strictly increasing.
[[nodiscard]] double interp_linear(const std::vector<double>& xs,
                                   const std::vector<double>& ys, double x);

/// Trapezoidal integral of uniformly spaced samples with step dx.
[[nodiscard]] double trapz(const std::vector<double>& ys, double dx);

/// Largest value in [0, cap] for which `passes` holds, by `steps` fixed
/// halvings of [0, cap]: `cap` when cap passes, 0 when 0 fails, else the
/// last passing midpoint — within cap * 2^-steps of the threshold of a
/// predicate that passes below it and fails above. The JTOL and FTOL
/// searches (statmodel, cdr::baseline_jtol_amplitude) all run this one.
template <typename Passes>
[[nodiscard]] double bisect_largest_passing(double cap, int steps,
                                            Passes&& passes) {
    if (passes(cap)) return cap;
    if (!passes(0.0)) return 0.0;
    double lo = 0.0, hi = cap;
    for (int i = 0; i < steps; ++i) {
        const double mid = 0.5 * (lo + hi);
        if (passes(mid)) {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    return lo;
}

}  // namespace gcdr
