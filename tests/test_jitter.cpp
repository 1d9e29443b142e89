// Tests for jitter/: edge-stream generation under the Table 1 jitter budget
// and the dual-Dirac decomposition.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <numbers>

#include "encoding/prbs.hpp"
#include "jitter/jitter.hpp"

namespace gcdr::jitter {
namespace {

std::vector<bool> alternating(std::size_t n) {
    std::vector<bool> bits(n);
    for (std::size_t i = 0; i < n; ++i) bits[i] = i % 2 == 0;
    return bits;
}

TEST(JitterSpec, Table1Defaults) {
    const auto spec = JitterSpec::paper_table1();
    EXPECT_DOUBLE_EQ(spec.dj_uipp, 0.4);
    EXPECT_DOUBLE_EQ(spec.rj_uirms, 0.021);
    EXPECT_DOUBLE_EQ(spec.ckj_uirms, 0.01);
    EXPECT_DOUBLE_EQ(spec.sj_uipp, 0.0);
}

TEST(SinusoidalJitter, AmplitudeAndPeriod) {
    SinusoidalJitter sj(0.2, 1e6);  // 0.2 UIpp at 1 MHz
    double peak = 0.0;
    for (int i = 0; i < 1000; ++i) {
        peak = std::max(peak, std::abs(sj.at(i * 1e-9)));
    }
    EXPECT_NEAR(peak, 0.1, 1e-3);  // half of peak-peak
    // Quarter period of 1 MHz = 250 ns: maximum of the sine.
    EXPECT_NEAR(sj.at(250e-9), 0.1, 1e-12);
    EXPECT_NEAR(sj.at(0.0), 0.0, 1e-12);
}

TEST(IdealEdges, OnlyAtTransitions) {
    const std::vector<bool> bits{0, 1, 1, 0, 1};
    const auto edges = ideal_edges(bits, kPaperRate);
    ASSERT_EQ(edges.size(), 3u);
    EXPECT_EQ(edges[0].time, SimTime::ps(400));  // bit 1 boundary
    EXPECT_TRUE(edges[0].value);
    EXPECT_EQ(edges[1].time, SimTime::ps(3 * 400));
    EXPECT_FALSE(edges[1].value);
    EXPECT_EQ(edges[2].time, SimTime::ps(4 * 400));
}

TEST(JitteredEdges, CleanSpecMatchesIdeal) {
    StreamParams p;
    p.spec = JitterSpec{};
    p.spec.dj_uipp = p.spec.rj_uirms = p.spec.sj_uipp = 0.0;
    Rng rng(1);
    encoding::PrbsGenerator gen(encoding::PrbsOrder::kPrbs7);
    const auto bits = gen.bits(100);
    const auto jittered = jittered_edges(bits, p, rng);
    const auto ideal = ideal_edges(bits, p.rate);
    ASSERT_EQ(jittered.size(), ideal.size());
    for (std::size_t i = 0; i < ideal.size(); ++i) {
        EXPECT_EQ(jittered[i].time, ideal[i].time);
        EXPECT_EQ(jittered[i].value, ideal[i].value);
    }
}

TEST(JitteredEdges, MonotonicEvenUnderHeavyJitter) {
    StreamParams p;
    p.spec.dj_uipp = 0.8;
    p.spec.rj_uirms = 0.2;
    p.spec.sj_uipp = 1.0;
    p.spec.sj_freq_hz = 250e6;
    Rng rng(5);
    const auto edges = jittered_edges(alternating(2000), p, rng);
    for (std::size_t i = 1; i < edges.size(); ++i) {
        EXPECT_LT(edges[i - 1].time, edges[i].time);
    }
}

TEST(JitteredEdges, DjBoundedUniform) {
    StreamParams p;
    p.spec = JitterSpec{};
    p.spec.rj_uirms = 0.0;
    p.spec.dj_uipp = 0.4;
    Rng rng(7);
    const auto bits = alternating(20000);
    const auto edges = jittered_edges(bits, p, rng);
    const double ui = p.rate.ui_seconds();
    double max_dev = 0.0;
    for (std::size_t i = 0; i < edges.size(); ++i) {
        const double nominal = static_cast<double>(i) * ui;
        const double dev_ui =
            (edges[i].time.seconds() - nominal) / ui;
        max_dev = std::max(max_dev, std::abs(dev_ui));
    }
    EXPECT_LE(max_dev, 0.2 + 1e-9);   // bounded by DJ/2
    EXPECT_GT(max_dev, 0.18);         // and actually exercises the bound
}

TEST(JitteredEdges, RjStatisticsMatchSpec) {
    StreamParams p;
    p.spec = JitterSpec{};
    p.spec.dj_uipp = 0.0;
    p.spec.rj_uirms = 0.05;
    Rng rng(11);
    const auto bits = alternating(50000);
    const auto edges = jittered_edges(bits, p, rng);
    const double ui = p.rate.ui_seconds();
    double sum = 0.0, sum2 = 0.0;
    for (std::size_t i = 0; i < edges.size(); ++i) {
        const double dev =
            (edges[i].time.seconds() - static_cast<double>(i) * ui) / ui;
        sum += dev;
        sum2 += dev * dev;
    }
    const double n = static_cast<double>(edges.size());
    const double mean = sum / n;
    EXPECT_NEAR(mean, 0.0, 0.002);
    EXPECT_NEAR(std::sqrt(sum2 / n - mean * mean), 0.05, 0.003);
}

TEST(JitteredEdges, DataRateOffsetStretchesPeriod) {
    StreamParams p;
    p.spec = JitterSpec{};
    p.spec.dj_uipp = p.spec.rj_uirms = 0.0;
    p.data_rate_offset = 100e-6;  // +100 ppm faster data
    Rng rng(13);
    const auto edges = jittered_edges(alternating(10001), p, rng);
    const double measured_ui = edges.back().time.seconds() /
                               static_cast<double>(edges.size() - 1);
    EXPECT_NEAR(measured_ui, p.rate.ui_seconds() / (1.0 + 100e-6),
                1e-18 + measured_ui * 1e-9);
}

TEST(JitteredEdges, SjShiftsEdgesCoherently) {
    StreamParams p;
    p.spec = JitterSpec{};
    p.spec.dj_uipp = p.spec.rj_uirms = 0.0;
    p.spec.sj_uipp = 0.2;
    p.spec.sj_freq_hz = 2.5e9 / 100.0;  // period = 100 UI
    Rng rng(17);
    const auto edges = jittered_edges(alternating(400), p, rng);
    const double ui = p.rate.ui_seconds();
    // Deviation at edge i must equal the sinusoid evaluated at its nominal
    // time (deterministic, no randomness configured).
    SinusoidalJitter sj(0.2, p.spec.sj_freq_hz);
    for (std::size_t i = 0; i < edges.size(); i += 37) {
        const double nominal = static_cast<double>(i) * ui;
        const double dev_ui = (edges[i].time.seconds() - nominal) / ui;
        EXPECT_NEAR(dev_ui, sj.at(nominal), 1e-4);
    }
}

// jittered_edges as a per-edge loop: one branch per bit, one
// rng.gaussian(0, sigma) per edge, std::llround onto the fs grid. The
// library's block-drawn version must reproduce it bit for bit, edges and
// generator state alike.
std::vector<Edge> reference_edges(const std::vector<bool>& bits,
                                  const StreamParams& params, Rng& rng) {
    std::vector<Edge> out;
    const double ui_s = params.rate.ui_seconds() /
                        (1.0 + params.data_rate_offset);
    const SinusoidalJitter sj(params.spec.sj_uipp, params.spec.sj_freq_hz);
    bool level = params.initial_level;
    SimTime prev_time = params.start - SimTime::fs(1);
    std::size_t run_start = 0;
    for (std::size_t i = 0; i < bits.size(); ++i) {
        if (bits[i] == level) continue;
        const double nominal_s =
            params.start.seconds() + static_cast<double>(i) * ui_s;
        double disp_ui = 0.0;
        if (params.spec.dj_uipp > 0.0) {
            const double half = params.spec.dj_uipp / 2.0;
            switch (params.dj_model) {
                case DjModel::kTriangleSweep: {
                    const double x = 2.0 * std::numbers::pi *
                                     params.dj_sweep_freq_hz * nominal_s;
                    disp_ui += half * (2.0 / std::numbers::pi) *
                               std::asin(std::sin(x));
                    break;
                }
                case DjModel::kIndependent:
                    disp_ui += rng.uniform(-half, half);
                    break;
                case DjModel::kIsi: {
                    const double r = std::max<std::size_t>(1, i - run_start);
                    disp_ui += half * (1.0 - std::pow(2.0, 2.0 - r));
                    break;
                }
            }
        }
        if (params.spec.rj_uirms > 0.0) {
            disp_ui += rng.gaussian(0.0, params.spec.rj_uirms);
        }
        disp_ui += sj.at(nominal_s);
        SimTime t{static_cast<std::int64_t>(
            std::llround((nominal_s + disp_ui * ui_s) * 1e15))};
        if (t <= prev_time) t = prev_time + SimTime::fs(1);
        out.push_back(Edge{t, bits[i]});
        prev_time = t;
        level = bits[i];
        run_start = i;
    }
    return out;
}

TEST(JitteredEdges, MatchesPerEdgeReferenceBitForBit) {
    encoding::PrbsGenerator gen(encoding::PrbsOrder::kPrbs7);
    std::vector<bool> bits = gen.bits(3000);
    // Long runs as well, for the ISI model's run lengths.
    bits.insert(bits.end(), 9, true);
    bits.insert(bits.end(), 7, false);
    const std::vector<bool> alt = alternating(41);
    bits.insert(bits.end(), alt.begin(), alt.end());
    int cases = 0;
    for (const DjModel model :
         {DjModel::kTriangleSweep, DjModel::kIndependent, DjModel::kIsi}) {
        for (const double dj : {0.0, 0.4}) {
            for (const double rj : {0.0, 0.021}) {
                for (const double sj : {0.0, 0.3}) {
                    for (const bool initial : {false, true}) {
                        for (const double offset : {0.0, 1e-4, -3e-4}) {
                            StreamParams sp;
                            sp.dj_model = model;
                            sp.spec.dj_uipp = dj;
                            sp.spec.rj_uirms = rj;
                            sp.spec.sj_uipp = sj;
                            sp.spec.sj_freq_hz = 25e6;
                            sp.initial_level = initial;
                            sp.data_rate_offset = offset;
                            sp.start = SimTime::ps(1234);
                            const std::uint64_t seed = 100 + cases++;
                            Rng a(seed), b(seed);
                            // Start mid-pair: a cached deviate goes first.
                            (void)a.gaussian();
                            (void)b.gaussian();
                            const auto got = jittered_edges(bits, sp, a);
                            const auto want = reference_edges(bits, sp, b);
                            ASSERT_EQ(got.size(), want.size());
                            for (std::size_t k = 0; k < got.size(); ++k) {
                                ASSERT_EQ(got[k].time, want[k].time)
                                    << "case " << cases << " edge " << k;
                                ASSERT_EQ(got[k].value, want[k].value)
                                    << "case " << cases << " edge " << k;
                            }
                            // Same generator state, cached deviate included.
                            EXPECT_EQ(a.gaussian(), b.gaussian());
                            EXPECT_EQ(a.generator()(), b.generator()());
                        }
                    }
                }
            }
        }
    }
    // No transitions at all: nothing drawn, nothing emitted.
    for (const bool initial : {false, true}) {
        StreamParams sp;
        sp.initial_level = initial;
        Rng a(5), b(5);
        const std::vector<bool> flat(64, initial);
        EXPECT_TRUE(jittered_edges(flat, sp, a).empty());
        EXPECT_TRUE(jittered_edges({}, sp, a).empty());
        EXPECT_EQ(a.generator()(), b.generator()());
    }
}

TEST(DualDirac, RecoversPureGaussian) {
    Rng rng(23);
    std::vector<double> samples;
    for (int i = 0; i < 200000; ++i) samples.push_back(rng.gaussian(0.0, 0.02));
    const auto fit = fit_dual_dirac(samples);
    EXPECT_NEAR(fit.rj_rms, 0.02, 0.004);
    EXPECT_LT(fit.dj_pp, 0.01);
}

TEST(DualDirac, RecoversBimodalDjPlusRj) {
    Rng rng(29);
    std::vector<double> samples;
    for (int i = 0; i < 200000; ++i) {
        samples.push_back(rng.dual_dirac(0.1) + rng.gaussian(0.0, 0.02));
    }
    const auto fit = fit_dual_dirac(samples);
    EXPECT_NEAR(fit.dj_pp, 0.2, 0.03);
    EXPECT_NEAR(fit.rj_rms, 0.02, 0.006);
}

TEST(DualDirac, TjAtBerGrowsAsBerShrinks) {
    DualDiracFit fit{0.2, 0.02};
    const double tj9 = fit.tj_at_ber(1e-9);
    const double tj12 = fit.tj_at_ber(1e-12);
    EXPECT_GT(tj12, tj9);
    EXPECT_NEAR(tj12, 0.2 + 2.0 * 7.034 * 0.02, 1e-3);
}

TEST(DualDirac, TooFewSamplesReturnsZeros) {
    const auto fit = fit_dual_dirac({0.1, -0.1, 0.0});
    EXPECT_EQ(fit.dj_pp, 0.0);
    EXPECT_EQ(fit.rj_rms, 0.0);
}

}  // namespace
}  // namespace gcdr::jitter
