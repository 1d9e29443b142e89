#include "stats/grid_pdf.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstdint>
#include <numbers>

#include "obs/trace_span.hpp"
#include "util/fft.hpp"

namespace gcdr::stats {

namespace {

// gaussian() truncates its support at +/- this many sigma.
constexpr double kGaussianSigmas = 9.0;

}  // namespace

GridPdf::GridPdf(double x0, double dx, std::vector<double> density)
    : x0_(x0), dx_(dx), density_(std::move(density)) {
    assert(dx_ > 0.0);
    rebuild_sums();
}

void GridPdf::rebuild_sums() {
    cum_.clear();
    if (density_.empty()) {
        mass_ = 0.0;
        return;
    }
    cum_.reserve(density_.size() + 1);
    double acc = 0.0;
    double s = 0.0;
    cum_.push_back(acc);
    for (double v : density_) {
        acc += v * dx_;
        cum_.push_back(acc);
        s += v;
    }
    mass_ = s * dx_;
}

double GridPdf::uniform_bins(double width_pp, double dx) {
    return std::max(1.0, std::round(width_pp / dx) + 1.0);
}

double GridPdf::gaussian_bins(double sigma, double dx) {
    return sigma > 0.0 ? 2.0 * std::ceil(kGaussianSigmas * sigma / dx) + 1.0
                       : 1.0;
}

GridPdf GridPdf::dirac(double x, double dx) {
    return GridPdf{x, dx, std::vector<double>{1.0 / dx}};
}

GridPdf GridPdf::uniform(double width_pp, double dx) {
    assert(width_pp >= 0.0);
    const auto n = static_cast<std::size_t>(uniform_bins(width_pp, dx));
    if (n == 1) return dirac(0.0, dx);
    const double half = dx * static_cast<double>(n - 1) / 2.0;
    std::vector<double> d(n, 1.0);
    GridPdf p{-half, dx, std::move(d)};
    p.normalize();
    return p;
}

GridPdf GridPdf::gaussian(double sigma, double dx) {
    assert(sigma >= 0.0);
    if (sigma == 0.0) return dirac(0.0, dx);
    const auto n = static_cast<std::size_t>(gaussian_bins(sigma, dx));
    const std::size_t half_n = n / 2;
    std::vector<double> d(n);
    const double norm = 1.0 / (sigma * std::sqrt(2.0 * std::numbers::pi));
    for (std::size_t i = 0; i < n; ++i) {
        const double x =
            dx * (static_cast<double>(i) - static_cast<double>(half_n));
        d[i] = norm * std::exp(-0.5 * (x / sigma) * (x / sigma));
    }
    GridPdf p{-dx * static_cast<double>(half_n), dx, std::move(d)};
    p.normalize();
    return p;
}

GridPdf GridPdf::arcsine(double amp, double dx) {
    assert(amp >= 0.0);
    if (amp < dx) return dirac(0.0, dx);
    const auto half_n = static_cast<std::size_t>(std::floor(amp / dx));
    const std::size_t n = 2 * half_n + 1;
    std::vector<double> d(n, 0.0);
    // Integrate the analytic arcsine CDF over each bin to avoid the
    // endpoint singularities: F(x) = 1/2 + asin(x/amp)/pi.
    auto cdf = [amp](double x) {
        const double z = std::clamp(x / amp, -1.0, 1.0);
        return 0.5 + std::asin(z) / std::numbers::pi;
    };
    for (std::size_t i = 0; i < n; ++i) {
        const double xc =
            dx * (static_cast<double>(i) - static_cast<double>(half_n));
        d[i] = (cdf(xc + dx / 2.0) - cdf(xc - dx / 2.0)) / dx;
    }
    GridPdf p{-dx * static_cast<double>(half_n), dx, std::move(d)};
    p.normalize();
    return p;
}

GridPdf GridPdf::from_samples(const std::vector<double>& xs, double dx) {
    if (xs.empty()) return {};
    const auto [lo_it, hi_it] = std::minmax_element(xs.begin(), xs.end());
    const double lo = *lo_it;
    const auto n = static_cast<std::size_t>(
                       std::floor((*hi_it - lo) / dx)) + 1;
    std::vector<double> d(n, 0.0);
    for (double x : xs) {
        auto idx = static_cast<std::size_t>(std::floor((x - lo) / dx));
        if (idx >= n) idx = n - 1;
        d[idx] += 1.0;
    }
    const double norm = 1.0 / (static_cast<double>(xs.size()) * dx);
    for (auto& v : d) v *= norm;
    return GridPdf{lo, dx, std::move(d)};
}

double GridPdf::mean() const {
    double s = 0.0, m = 0.0;
    for (std::size_t i = 0; i < density_.size(); ++i) {
        s += density_[i];
        m += density_[i] * x_at(i);
    }
    return s > 0.0 ? m / s : 0.0;
}

double GridPdf::variance() const {
    const double mu = mean();
    double s = 0.0, v = 0.0;
    for (std::size_t i = 0; i < density_.size(); ++i) {
        s += density_[i];
        const double d = x_at(i) - mu;
        v += density_[i] * d * d;
    }
    return s > 0.0 ? v / s : 0.0;
}

double GridPdf::stddev() const { return std::sqrt(variance()); }

void GridPdf::normalize() {
    const double m = mass_;
    if (m <= 0.0) return;
    for (auto& v : density_) v /= m;
    rebuild_sums();
}

void GridPdf::shift(double offset) {
    x0_ += offset;
}

double GridPdf::cdf(double x) const {
    double p = 0.0;
    cdf(std::span(&x, 1), std::span(&p, 1));
    return p;
}

void GridPdf::cdf(std::span<const double> xs, std::span<double> out) const {
    assert(out.size() == xs.size());
    if (empty()) {
        std::fill(out.begin(), out.end(), 0.0);
        return;
    }
    // Copied out so the loop keeps the grid in registers. Bin indices are
    // signed: n < 2^53, and the conversions compile to one instruction.
    const double x0 = x0_;
    const double dx = dx_;
    const double inv_dx = 1.0 / dx_;
    const double* density = density_.data();
    const double* cum = cum_.data();
    const auto n = static_cast<std::int64_t>(density_.size());
    const double mass = mass_;
    constexpr int kMaxSteps = 4;
    for (std::size_t i = 0; i < xs.size(); ++i) {
        const double x = xs[i];
        // Each bin's mass is spread uniformly over [x_j - dx/2, x_j +
        // dx/2); integrate exactly, including the partial bin at x. Bins
        // [0, k) lie wholly at or below x: x >= left_edge(j) + dx, the
        // left-to-right scan's own edge test. Every operation in it
        // rounds monotonically in j, so it holds on a prefix and k, the
        // bin where the scan stops, is unique.
        auto left_edge = [&](std::int64_t j) {
            return x0 + dx * static_cast<double>(j) - dx / 2.0;
        };
        // Guess k from the bin arithmetic (NaN and x left of the grid give
        // 0, huge x gives n), then step to the scan's k with the edge
        // test: one step up or down at most, unless the grid origin
        // dwarfs dx. The test holds below lo and fails from hi on; past
        // kMaxSteps steps, bisect what is left between them.
        const double guess = (x - x0) * inv_dx + 0.5;
        std::int64_t k = guess >= static_cast<double>(n) ? n
                         : guess > 0.0 ? static_cast<std::int64_t>(guess)
                                       : 0;
        std::int64_t lo = 0;
        std::int64_t hi = n;
        double left = left_edge(k);
        int steps = 0;
        for (; steps < kMaxSteps; ++steps) {
            if (k < hi && x >= left + dx) {
                lo = ++k;
            } else if (k > lo && !(x >= left_edge(k - 1) + dx)) {
                hi = --k;
            } else {
                break;
            }
            left = left_edge(k);
        }
        if (steps == kMaxSteps) {
            for (k = lo; k < hi;) {
                const std::int64_t mid = k + (hi - k) / 2;
                if (x >= left_edge(mid) + dx) {
                    k = mid + 1;
                } else {
                    hi = mid;
                }
            }
            left = left_edge(k);
        }
        double acc = cum[k];
        if (k < n && x > left) acc += density[k] * (x - left);
        out[i] = std::min(acc, mass);
    }
}

double GridPdf::tail_below(double x) const { return cdf(x); }

double GridPdf::tail_above(double x) const {
    if (empty()) return 0.0;
    // Computed from the right so far-tail values are not lost to rounding
    // against the bulk mass.
    double acc = 0.0;
    for (std::size_t i = density_.size(); i-- > 0;) {
        const double left = x_at(i) - dx_ / 2.0;
        if (x <= left) {
            acc += density_[i] * dx_;
        } else if (x < left + dx_) {
            acc += density_[i] * (left + dx_ - x);
            break;
        } else {
            break;
        }
    }
    return acc;
}

double GridPdf::tail_outside(double lo, double hi) const {
    return tail_below(lo) + tail_above(hi);
}

GridPdf GridPdf::convolve(const GridPdf& other, double prune_floor) const {
    obs::TraceSpan span("pdf.convolve");
    if (empty() || other.empty()) return {};
    assert(std::abs(dx_ - other.dx_) < 1e-12 * dx_ &&
           "convolution requires a shared grid step");
    // FFT pays off for large kernels, but rounding in the FFT path can turn
    // ~1e-17 relative error into fake tail mass, which matters when we
    // integrate 1e-12 tails. Use direct convolution unless both operands
    // are large, then clamp tiny negatives.
    std::vector<double> conv;
    if (density_.size() > 2048 && other.density_.size() > 2048) {
        conv = convolve_fft(density_, other.density_);
        for (auto& v : conv) {
            if (v < 0.0) v = 0.0;
        }
    } else {
        conv = convolve_direct(density_, other.density_);
    }
    for (auto& v : conv) v *= dx_;  // discrete conv -> density scaling

    // Optional tail pruning: drop sub-floor bins at both ends (never the
    // whole support). Interior bins are kept even when below the floor so
    // the result stays a contiguous grid.
    std::size_t first = 0;
    std::size_t last = conv.size();
    if (prune_floor > 0.0) {
        while (first + 1 < last && conv[first] < prune_floor) ++first;
        while (last > first + 1 && conv[last - 1] < prune_floor) --last;
        conv.erase(conv.begin() + static_cast<std::ptrdiff_t>(last),
                   conv.end());
        conv.erase(conv.begin(),
                   conv.begin() + static_cast<std::ptrdiff_t>(first));
    }
    return GridPdf{x0_ + other.x0_ + dx_ * static_cast<double>(first), dx_,
                   std::move(conv)};
}

GridPdf convolve_all(const std::vector<GridPdf>& pdfs, double dx,
                     double prune_floor) {
    GridPdf acc = GridPdf::dirac(0.0, dx);
    for (const auto& p : pdfs) {
        if (p.empty() || p.size() == 1) {
            if (!p.empty()) acc.shift(p.x0());
            continue;
        }
        acc = acc.convolve(p, prune_floor);
    }
    return acc;
}

}  // namespace gcdr::stats
