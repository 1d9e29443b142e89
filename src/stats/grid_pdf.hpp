#pragma once
// Probability density functions on a uniform grid, with convolution.
//
// This is the engine behind the paper's "statistical model" (Sec. 3.1): the
// exact contributions of the different jitter types are combined by
// convolving their PDFs — uniform (DJ), Gaussian (RJ), arcsine (SJ) and
// Gaussian (oscillator) — then integrating the tails that fall outside the
// timing margin to get the BER.
//
// Tail integration: each GridPdf keeps the running sum of its bin masses,
// accumulated left to right exactly as a cdf scan would, plus its total
// mass. Both are rebuilt only when the densities change (construction,
// normalize()). cdf/tail_below compute the bin of x from (x - x0)/dx and
// correct it with the scan's own edge test, so they cost O(1) (a grid
// whose origin dwarfs dx falls back to bisection, O(log n)) and return
// the same bits as the O(n) scan for every x, NaN and +-inf included.
//
// Thread safety: GridPdf is value-semantic with no global or hidden shared
// state — factories return fresh objects, const queries touch only `this`,
// and convolution allocates its result. Distinct instances can be built
// and queried concurrently (exec/ sweeps rely on this); only mutating one
// instance from several threads needs external synchronization.

#include <cstddef>
#include <span>
#include <vector>

namespace gcdr::stats {

/// A real-valued PDF sampled on a uniform grid [x0, x0 + (n-1)*dx].
/// Values are densities; sum(values)*dx ~= 1 for a normalized PDF.
class GridPdf {
public:
    GridPdf() = default;
    GridPdf(double x0, double dx, std::vector<double> density);

    /// Delta distribution at `x` (mass 1 in a single bin).
    [[nodiscard]] static GridPdf dirac(double x, double dx);
    /// Uniform on [-width/2, +width/2] (DJ with peak-peak `width`).
    [[nodiscard]] static GridPdf uniform(double width_pp, double dx);
    /// Gaussian, truncated at +/- 9 sigma (far enough for 1e-16 tail mass
    /// to be represented).
    [[nodiscard]] static GridPdf gaussian(double sigma, double dx);
    /// Arcsine on [-amp, +amp]: stationary PDF of a sinusoid with amplitude
    /// `amp` (i.e. sinusoidal jitter of peak-peak 2*amp).
    [[nodiscard]] static GridPdf arcsine(double amp, double dx);
    /// Empirical PDF from samples, binned over their range.
    [[nodiscard]] static GridPdf from_samples(const std::vector<double>& xs,
                                              double dx);

    /// Bins uniform(width_pp, dx) and gaussian(sigma, dx) hold, as doubles
    /// so outside input can be bounded before anything is allocated (a
    /// tiny dx overflows any integer count).
    [[nodiscard]] static double uniform_bins(double width_pp, double dx);
    [[nodiscard]] static double gaussian_bins(double sigma, double dx);

    [[nodiscard]] bool empty() const { return density_.size() == 0; }
    [[nodiscard]] std::size_t size() const { return density_.size(); }
    [[nodiscard]] double x0() const { return x0_; }
    [[nodiscard]] double dx() const { return dx_; }
    [[nodiscard]] double x_at(std::size_t i) const {
        return x0_ + dx_ * static_cast<double>(i);
    }
    [[nodiscard]] const std::vector<double>& density() const {
        return density_;
    }

    [[nodiscard]] double mass() const { return mass_; }
    [[nodiscard]] double mean() const;
    [[nodiscard]] double variance() const;
    [[nodiscard]] double stddev() const;

    /// Scale densities so mass() == 1.
    void normalize();

    /// Translate the support by `offset`: moves x0 directly, so the grid
    /// origin need not stay a multiple of dx (bin width is unchanged).
    void shift(double offset);

    /// P(X <= x): trapezoidal CDF evaluated from the left. The bin of x
    /// from the grid arithmetic, checked against its edges, plus one
    /// partial bin: O(1).
    [[nodiscard]] double cdf(double x) const;
    /// out[i] = cdf(xs[i]) for every i, bit for bit, with the grid read
    /// once for the batch. `out` may be `xs` itself.
    void cdf(std::span<const double> xs, std::span<double> out) const;
    /// P(X < lo) + P(X > hi): the "error tail" mass outside [lo, hi].
    [[nodiscard]] double tail_outside(double lo, double hi) const;
    /// P(X > x).
    [[nodiscard]] double tail_above(double x) const;
    /// P(X < x).
    [[nodiscard]] double tail_below(double x) const;

    /// Convolution (distribution of the sum of independent variables).
    /// Grids must share dx. Uses FFT above a size threshold.
    ///
    /// `prune_floor` > 0 trims leading/trailing result bins whose density
    /// is below it (the support shrinks; x0 shifts by the trimmed width).
    /// The default 0 keeps every bin, bit-identical to the historical
    /// behavior. Pruning at 1e-18 is safe whenever downstream tail
    /// integrals only need to resolve masses >= ~1e-15: the discarded
    /// mass is bounded by prune_floor * dx * bins. It keeps chained
    /// convolutions (convolve_all) from growing O(sum of supports) when
    /// the far tails are already below the measurement floor.
    [[nodiscard]] GridPdf convolve(const GridPdf& other,
                                   double prune_floor = 0.0) const;

private:
    /// Recompute cum_ and mass_ from density_.
    void rebuild_sums();

    double x0_ = 0.0;
    double dx_ = 1.0;
    std::vector<double> density_;
    /// cum_[k] = sum over bins i < k of density_[i] * dx_, added left to
    /// right; size() + 1 entries (empty for an empty PDF).
    std::vector<double> cum_;
    double mass_ = 0.0;  ///< sum(density_) * dx_
};

/// Convolve a set of PDFs (skipping empties); returns dirac(0) if none.
/// `prune_floor` is forwarded to each pairwise convolve (see
/// GridPdf::convolve); 0 = keep every bin.
[[nodiscard]] GridPdf convolve_all(const std::vector<GridPdf>& pdfs,
                                   double dx, double prune_floor = 0.0);

}  // namespace gcdr::stats
