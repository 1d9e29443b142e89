#include "stats/grid_pdf.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <numbers>

#include "obs/trace_span.hpp"
#include "util/fft.hpp"

namespace gcdr::stats {

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

double GridPdf::gaussian_bins(double sigma, double dx, double n_sigmas) {
    return sigma > 0.0 ? 2.0 * std::ceil(n_sigmas * sigma / dx) + 1.0 : 1.0;
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

GridPdf GridPdf::gaussian(double sigma, double dx, double n_sigmas) {
    assert(sigma >= 0.0);
    if (sigma == 0.0) return dirac(0.0, dx);
    const auto n =
        static_cast<std::size_t>(gaussian_bins(sigma, dx, n_sigmas));
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
    if (empty()) return 0.0;
    // Each bin's mass is spread uniformly over [x_i - dx/2, x_i + dx/2);
    // integrate exactly, including the partial bin at x. Bins [0, k) lie
    // wholly at or below x. The edge test is the left-to-right scan's own
    // expression; every operation in it rounds monotonically in i, so it
    // holds on a prefix and bisection finds the bin where the scan stops.
    std::size_t k = 0;
    std::size_t hi = density_.size();
    while (k < hi) {
        const std::size_t mid = k + (hi - k) / 2;
        if (x >= x_at(mid) - dx_ / 2.0 + dx_) {
            k = mid + 1;
        } else {
            hi = mid;
        }
    }
    double acc = cum_[k];
    if (k < density_.size()) {
        const double left = x_at(k) - dx_ / 2.0;
        if (x > left) acc += density_[k] * (x - left);
    }
    return std::min(acc, mass_);
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
