// Tests for stats/: grid PDFs, moments, tails and convolution — the engine
// the statistical BER model relies on.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <limits>
#include <string>
#include <vector>

#include "statmodel/gated_osc_model.hpp"
#include "stats/grid_pdf.hpp"
#include "util/mathx.hpp"
#include "util/rng.hpp"

namespace gcdr::stats {
namespace {

constexpr double kDx = 1e-3;

TEST(GridPdf, DiracHasUnitMassAtPoint) {
    const auto p = GridPdf::dirac(0.25, kDx);
    EXPECT_NEAR(p.mass(), 1.0, 1e-12);
    EXPECT_NEAR(p.mean(), 0.25, 1e-12);
    EXPECT_NEAR(p.variance(), 0.0, 1e-15);
}

TEST(GridPdf, UniformMoments) {
    const auto p = GridPdf::uniform(0.4, kDx);
    EXPECT_NEAR(p.mass(), 1.0, 1e-9);
    EXPECT_NEAR(p.mean(), 0.0, 1e-9);
    // Var of U(-0.2, 0.2) = (0.4)^2/12.
    EXPECT_NEAR(p.variance(), 0.4 * 0.4 / 12.0, 1e-4);
}

TEST(GridPdf, GaussianMomentsAndTails) {
    const double sigma = 0.021;
    const auto p = GridPdf::gaussian(sigma, kDx);
    EXPECT_NEAR(p.mass(), 1.0, 1e-9);
    EXPECT_NEAR(p.mean(), 0.0, 1e-9);
    EXPECT_NEAR(p.stddev(), sigma, 1e-4);
    // One-sided 3-sigma tail ~ Q(3) = 1.35e-3.
    EXPECT_NEAR(p.tail_above(3.0 * sigma), q_function(3.0), 2e-4);
    EXPECT_NEAR(p.tail_below(-3.0 * sigma), q_function(3.0), 2e-4);
}

TEST(GridPdf, GaussianDeepTailRepresentable) {
    // The 1e-12 BER integration depends on far-tail fidelity.
    const double sigma = 0.02;
    const auto p = GridPdf::gaussian(sigma, 1e-4);
    const double t7 = p.tail_above(7.0 * sigma);
    EXPECT_GT(t7, 1e-13);
    EXPECT_LT(t7, 1e-11);
}

TEST(GridPdf, ArcsineMomentsAndShape) {
    const double amp = 0.15;
    const auto p = GridPdf::arcsine(amp, kDx);
    EXPECT_NEAR(p.mass(), 1.0, 1e-9);
    EXPECT_NEAR(p.mean(), 0.0, 1e-9);
    // Var of arcsine on [-a, a] is a^2/2.
    EXPECT_NEAR(p.variance(), amp * amp / 2.0, 1e-4);
    // Density at the edges exceeds density at the center.
    const auto& d = p.density();
    EXPECT_GT(d.front(), d[d.size() / 2]);
    // Strictly bounded support.
    EXPECT_NEAR(p.tail_above(amp + 2 * kDx), 0.0, 1e-15);
}

TEST(GridPdf, FromSamplesRecoversMoments) {
    Rng rng(31);
    std::vector<double> xs;
    for (int i = 0; i < 100000; ++i) xs.push_back(rng.gaussian(1.0, 0.1));
    const auto p = GridPdf::from_samples(xs, 5e-3);
    EXPECT_NEAR(p.mass(), 1.0, 1e-9);
    EXPECT_NEAR(p.mean(), 1.0, 5e-3);
    EXPECT_NEAR(p.stddev(), 0.1, 5e-3);
}

TEST(GridPdf, ConvolutionAddsMeansAndVariances) {
    const auto u = GridPdf::uniform(0.4, kDx);
    const auto g = GridPdf::gaussian(0.03, kDx);
    auto c = u.convolve(g);
    EXPECT_NEAR(c.mass(), 1.0, 1e-6);
    EXPECT_NEAR(c.mean(), u.mean() + g.mean(), 1e-6);
    EXPECT_NEAR(c.variance(), u.variance() + g.variance(), 1e-5);
}

TEST(GridPdf, ConvolveTwoUniformsGivesTriangle) {
    const auto u = GridPdf::uniform(0.4, kDx);
    const auto tri = u.convolve(u);
    // Triangular on [-0.4, 0.4]: peak at center, zero past the ends.
    EXPECT_NEAR(tri.mean(), 0.0, 1e-9);
    EXPECT_NEAR(tri.variance(), 2.0 * 0.4 * 0.4 / 12.0, 2e-4);
    EXPECT_NEAR(tri.tail_above(0.41), 0.0, 1e-12);
    EXPECT_NEAR(tri.tail_below(-0.41), 0.0, 1e-12);
    // P(X < -0.2) for the triangle = 1/8.
    EXPECT_NEAR(tri.tail_below(-0.2), 0.125, 2e-3);
}

TEST(GridPdf, ShiftMovesSupport) {
    auto g = GridPdf::gaussian(0.01, kDx);
    g.shift(0.5);
    EXPECT_NEAR(g.mean(), 0.5, 1e-9);
    EXPECT_NEAR(g.tail_below(0.4), 0.0, 1e-12);
}

TEST(GridPdf, CdfIsMonotoneFromZeroToOne) {
    const auto g = GridPdf::gaussian(0.05, kDx);
    double prev = -1.0;
    for (double x = -0.3; x <= 0.3; x += 0.01) {
        const double c = g.cdf(x);
        EXPECT_GE(c, prev - 1e-12);
        EXPECT_GE(c, 0.0);
        EXPECT_LE(c, 1.0 + 1e-9);
        prev = c;
    }
    EXPECT_NEAR(g.cdf(0.0), 0.5, 2e-3);
}

TEST(GridPdf, TailOutsideSplitsMass) {
    const auto u = GridPdf::uniform(1.0, kDx);
    EXPECT_NEAR(u.tail_outside(-0.25, 0.25), 0.5, 5e-3);
}

TEST(GridPdf, ConvolveAllHandlesDiracsAndEmpties) {
    std::vector<GridPdf> parts;
    parts.push_back(GridPdf::dirac(0.1, kDx));
    parts.push_back(GridPdf());  // empty: skipped
    parts.push_back(GridPdf::gaussian(0.02, kDx));
    parts.push_back(GridPdf::dirac(-0.3, kDx));
    const auto c = convolve_all(parts, kDx);
    EXPECT_NEAR(c.mean(), 0.1 - 0.3, 1e-6);
    EXPECT_NEAR(c.stddev(), 0.02, 1e-4);
    EXPECT_NEAR(c.mass(), 1.0, 1e-6);
}

TEST(GridPdf, ConvolveAllOfNothingIsDiracAtZero) {
    const auto c = convolve_all({}, kDx);
    EXPECT_NEAR(c.mass(), 1.0, 1e-12);
    EXPECT_NEAR(c.mean(), 0.0, 1e-12);
}

TEST(GridPdf, FftAndDirectPathsAgree) {
    // Large operands trigger the FFT path; compare against direct conv of
    // the same data through small slices of the API.
    const auto a = GridPdf::gaussian(0.3, 1e-4);   // ~ 6000 bins
    const auto b = GridPdf::uniform(0.5, 1e-4);    // ~ 5000 bins
    ASSERT_GT(a.size(), 2048u);
    ASSERT_GT(b.size(), 2048u);
    const auto c = a.convolve(b);
    EXPECT_NEAR(c.mass(), 1.0, 1e-6);
    EXPECT_NEAR(c.variance(), a.variance() + b.variance(), 1e-4);
    // No negative densities leaked from FFT rounding.
    for (double v : c.density()) EXPECT_GE(v, 0.0);
}

TEST(GridPdf, ConvolvePruneFloorTrimsOnlySubFloorTails) {
    const auto g = GridPdf::gaussian(0.02, kDx);   // tails reach ~1e-19
    const auto u = GridPdf::uniform(0.1, kDx);
    const auto full = g.convolve(u);               // default: no pruning
    const auto pruned = g.convolve(u, 1e-18);
    // Support shrinks, bulk statistics don't.
    ASSERT_LT(pruned.size(), full.size());
    EXPECT_NEAR(pruned.mass(), full.mass(), 1e-15);
    EXPECT_NEAR(pruned.mean(), full.mean(), 1e-12);
    EXPECT_NEAR(pruned.stddev(), full.stddev(), 1e-12);
    // x0 shifted by exactly the trimmed leading bins, so surviving bins
    // sit at identical positions with identical densities.
    const auto offset = static_cast<std::size_t>(
        std::round((pruned.x0() - full.x0()) / kDx));
    ASSERT_GT(offset, 0u);
    for (std::size_t i = 0; i < pruned.size(); ++i) {
        EXPECT_EQ(pruned.density()[i], full.density()[i + offset]);
        EXPECT_GE(pruned.density()[i] + 1.0, 1.0);  // finite, non-NaN
    }
    // Every trimmed bin really was below the floor.
    for (std::size_t i = 0; i < offset; ++i) {
        EXPECT_LT(full.density()[i], 1e-18);
    }
    // Interior bins stay even if pruning is requested with a huge floor:
    // the result never collapses below one bin.
    const auto extreme = g.convolve(u, 1e100);
    EXPECT_GE(extreme.size(), 1u);
}

TEST(GridPdf, ConvolvePruneFloorDefaultOffIsBitIdentical) {
    // prune_floor = 0 must take the historical path exactly: same support,
    // same bits, so seeded statmodel outputs cannot move.
    const auto g = GridPdf::gaussian(0.015, kDx);
    const auto u = GridPdf::uniform(0.2, kDx);
    const auto a = g.convolve(u);
    const auto b = g.convolve(u, 0.0);
    ASSERT_EQ(a.size(), b.size());
    EXPECT_EQ(a.x0(), b.x0());
    for (std::size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a.density()[i], b.density()[i]);
    }
}

TEST(GridPdf, ConvolveAllForwardsPruneFloor) {
    std::vector<GridPdf> parts;
    parts.push_back(GridPdf::gaussian(0.02, kDx));
    parts.push_back(GridPdf::uniform(0.1, kDx));
    parts.push_back(GridPdf::gaussian(0.01, kDx));
    const auto full = convolve_all(parts, kDx);
    const auto pruned = convolve_all(parts, kDx, 1e-18);
    ASSERT_LT(pruned.size(), full.size());
    EXPECT_NEAR(pruned.mass(), full.mass(), 1e-14);
    // Tail integrals above the measurement floor are unaffected.
    const double x = full.mean() + 6.0 * full.stddev();
    EXPECT_NEAR(pruned.tail_above(x), full.tail_above(x),
                1e-15 + 1e-9 * full.tail_above(x));
}

TEST(GridPdf, TripleConvolutionMatchesAnalyticGaussian) {
    // Sum of three Gaussians is Gaussian with summed variances; check a
    // far-tail value against the closed form.
    const auto g1 = GridPdf::gaussian(0.01, 2e-4);
    const auto g2 = GridPdf::gaussian(0.02, 2e-4);
    const auto g3 = GridPdf::gaussian(0.02, 2e-4);
    const auto c = g1.convolve(g2).convolve(g3);
    const double sigma = std::sqrt(0.01 * 0.01 + 2 * 0.02 * 0.02);
    const double tail = c.tail_below(-5.0 * sigma);
    EXPECT_NEAR(tail / q_function(5.0), 1.0, 0.05);
}

// --- tail integration: prefix sums vs the left-to-right scan -------------

/// mass() as the scan summed it: densities first, then one scale by dx.
double scan_mass(const GridPdf& p) {
    double s = 0.0;
    for (double v : p.density()) s += v;
    return s * p.dx();
}

/// The O(n) left-to-right scan cdf() replaced, kept as the oracle: the
/// binary-searched prefix sums must return its value bit for bit.
double scan_cdf(const GridPdf& p, double x) {
    if (p.empty()) return 0.0;
    const std::vector<double>& d = p.density();
    const double dx = p.dx();
    double acc = 0.0;
    for (std::size_t i = 0; i < d.size(); ++i) {
        const double left = p.x_at(i) - dx / 2.0;
        if (x >= left + dx) {
            acc += d[i] * dx;
        } else if (x > left) {
            acc += d[i] * (x - left);
            break;
        } else {
            break;
        }
    }
    return std::min(acc, scan_mass(p));
}

/// Points around every `stride`-th bin: both edges as the scan computes
/// them, each +-1 ulp, a seeded random point up to 16 ulps from the right
/// edge and one within half a bin of it, and the bin centre. Then points
/// beyond both ends of the support, +-inf, +-DBL_MAX and NaN. cdf,
/// tail_below and the batched cdf must all return the scan's bits.
void expect_tails_match_scan(const GridPdf& p, const std::string& label,
                             std::size_t stride = 1) {
    SCOPED_TRACE(label);
    ASSERT_FALSE(p.empty());
    EXPECT_EQ(p.mass(), scan_mass(p));
    constexpr double kInf = std::numeric_limits<double>::infinity();
    constexpr double kMax = std::numeric_limits<double>::max();
    const double dx = p.dx();
    std::vector<double> xs = {-kInf,
                              kInf,
                              -kMax,
                              kMax,
                              std::numeric_limits<double>::quiet_NaN(),
                              p.x_at(0) - 3.0 * dx,
                              p.x_at(p.size() - 1) + 3.0 * dx};
    Rng rng(p.size());
    for (std::size_t i = 0; i < p.size(); i += stride) {
        const double left = p.x_at(i) - dx / 2.0;
        for (double edge : {left, left + dx}) {
            xs.push_back(edge);
            xs.push_back(std::nextafter(edge, -kInf));
            xs.push_back(std::nextafter(edge, kInf));
        }
        double near = left + dx;
        const int ulps = static_cast<int>(rng.index(33)) - 16;
        for (int u = 0; u < std::abs(ulps); ++u) {
            near = std::nextafter(near, ulps < 0 ? -kInf : kInf);
        }
        xs.push_back(near);
        xs.push_back(left + dx + rng.uniform(-0.5, 0.5) * dx);
        xs.push_back(p.x_at(i));
    }
    std::vector<double> batched(xs.size());
    p.cdf(xs, batched);
    int reported = 0;
    for (std::size_t j = 0; j < xs.size(); ++j) {
        const double x = xs[j];
        const double want = scan_cdf(p, x);
        const double cdf = p.cdf(x);
        const double below = p.tail_below(x);
        EXPECT_EQ(cdf, want) << "x = " << ::testing::PrintToString(x);
        EXPECT_EQ(below, want) << "x = " << ::testing::PrintToString(x);
        EXPECT_EQ(batched[j], want)
            << "batched, x = " << ::testing::PrintToString(x);
        // A wrong edge test repeats along the whole grid; five reports
        // are enough.
        if ((cdf != want || below != want || batched[j] != want) &&
            ++reported == 5) {
            break;
        }
    }
}

TEST(GridPdfTails, FactoriesMatchTheScanBitForBit) {
    expect_tails_match_scan(GridPdf::dirac(0.3, kDx), "dirac");
    expect_tails_match_scan(GridPdf::uniform(0.4, kDx), "uniform");
    expect_tails_match_scan(GridPdf::gaussian(0.021, kDx), "gaussian");
    expect_tails_match_scan(GridPdf::arcsine(0.15, kDx), "arcsine");
    expect_tails_match_scan(GridPdf::gaussian(0.0312, 5e-4),
                            "gaussian, model grid");
}

TEST(GridPdfTails, ConvolutionsMatchTheScanBitForBit) {
    const auto u = GridPdf::uniform(0.4, kDx);
    const auto g = GridPdf::gaussian(0.03, kDx);
    expect_tails_match_scan(u.convolve(g), "direct");
    expect_tails_match_scan(g.convolve(u, 1e-18), "pruned");
    // Both operands above 2048 bins: the FFT path, with its negative
    // clamp.
    const auto wide_g = GridPdf::gaussian(0.115, kDx);
    const auto wide_u = GridPdf::uniform(2.1, kDx);
    ASSERT_GT(wide_g.size(), 2048u);
    ASSERT_GT(wide_u.size(), 2048u);
    expect_tails_match_scan(wide_g.convolve(wide_u), "fft");
}

TEST(GridPdfTails, NormalizeAndShiftKeepTheScanBitForBit) {
    // normalize() rescales the densities, so the prefix sums must follow.
    GridPdf ramp(-0.1, kDx, {1.0, 2.0, 3.0, 4.0, 5.0, 4.0, 3.0, 0.5});
    expect_tails_match_scan(ramp, "unnormalized");
    ramp.normalize();
    expect_tails_match_scan(ramp, "normalized");
    Rng rng(7);
    std::vector<double> xs;
    for (int i = 0; i < 2000; ++i) xs.push_back(rng.gaussian(0.2, 0.03));
    auto hist = GridPdf::from_samples(xs, kDx);
    hist.normalize();
    expect_tails_match_scan(hist, "from_samples + normalize");
    // shift() moves x0 off the dx lattice; the edges move, the sums don't.
    auto g = GridPdf::gaussian(0.02, kDx);
    g.shift(0.123456789);
    expect_tails_match_scan(g, "shifted");
    auto c = GridPdf::uniform(0.2, kDx).convolve(g);
    c.shift(-1.0 / 3.0);
    expect_tails_match_scan(c, "shifted convolution");
}

TEST(GridPdfTails, ExtremeGridsMatchTheScanBitForBit) {
    // Off the dx lattice by a shift that is no multiple of dx.
    auto g = GridPdf::gaussian(0.0312, 5e-4);
    g.shift(std::sqrt(2.0) * 1e-3);
    expect_tails_match_scan(g, "model grid, shifted off the lattice");
    // An origin that dwarfs dx: the edges round onto a lattice ~125 bins
    // coarse, so the bin guess misses by tens of bins and cdf has to
    // bisect after its bounded walk.
    expect_tails_match_scan(GridPdf(1e15, 1e-3, std::vector<double>(300, 3.0)),
                            "origin 1e15, dx 1e-3");
    // The widest edge PDF a statistical model may build, every 61st bin
    // (the scan oracle is O(n) per point).
    std::vector<double> d(statmodel::kMaxEdgePdfBins);
    for (std::size_t i = 0; i < d.size(); ++i) {
        d[i] = 1.5 + std::sin(static_cast<double>(i) * 1e-3);
    }
    GridPdf wide(-8.0, 5e-4, std::move(d));
    wide.normalize();
    wide.shift(-1.0 / 7.0);
    expect_tails_match_scan(wide, "kMaxEdgePdfBins wide", 61);
    // Empty: every query is 0, batched too.
    const GridPdf none;
    const std::vector<double> xs = {-1.0, 0.0, 1.0};
    std::vector<double> out(xs.size(), 9.0);
    none.cdf(xs, out);
    EXPECT_EQ(out, std::vector<double>(xs.size(), 0.0));
}

TEST(GridPdfTails, BinCountsMatchTheFactories) {
    for (double w : {0.0, 1e-4, 4e-4, 0.4, 0.4003, 2.1}) {
        EXPECT_EQ(static_cast<double>(GridPdf::uniform(w, kDx).size()),
                  GridPdf::uniform_bins(w, kDx))
            << "width " << w;
    }
    for (double sigma : {0.0, 1e-4, 0.021, 0.0312, 0.115}) {
        EXPECT_EQ(static_cast<double>(GridPdf::gaussian(sigma, kDx).size()),
                  GridPdf::gaussian_bins(sigma, kDx))
            << "sigma " << sigma;
    }
    // Far past any allocation: still a finite double, never a wrapped
    // integer.
    EXPECT_GT(GridPdf::gaussian_bins(0.03, 1e-12), 1e11);
}

}  // namespace
}  // namespace gcdr::stats
