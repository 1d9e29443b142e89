#include "jitter/jitter.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <numbers>

#include "util/mathx.hpp"

namespace gcdr::jitter {

double SinusoidalJitter::at(double t_seconds) const {
    if (amp_ui_ == 0.0 || freq_hz_ == 0.0) return 0.0;
    return amp_ui_ * std::sin(2.0 * std::numbers::pi * freq_hz_ * t_seconds +
                              phase0_);
}

std::vector<Edge> jittered_edges(const std::vector<bool>& bits,
                                 const StreamParams& params, Rng& rng) {
    // Neither scan below branches on a bit's value: a transition adds one
    // to a count instead of taking a jump the predictor would miss on
    // about half of all bits.
    std::size_t n = 0;
    bool level = params.initial_level;
    for (std::size_t i = 0; i < bits.size(); ++i) {
        n += bits[i] != level ? 1 : 0;
        level = bits[i];
    }
    std::vector<Edge> out;
    out.reserve(n);

    const double ui_s = params.rate.ui_seconds() /
                        (1.0 + params.data_rate_offset);
    const SinusoidalJitter sj(params.spec.sj_uipp, params.spec.sj_freq_hz);
    const double half = params.spec.dj_uipp / 2.0;
    const double rj = params.spec.rj_uirms;
    // The RJ normals are the only draws, one per edge in edge order,
    // unless the DJ model draws too: then they come in blocks.
    const bool dj_draws = params.spec.dj_uipp > 0.0 &&
                          params.dj_model == DjModel::kIndependent;
    const bool block_rj = rj > 0.0 && !dj_draws;

    constexpr std::size_t kBlock = 256;
    std::size_t at[kBlock] = {};  // bit index of each transition in the block
    double z[kBlock] = {};
    SimTime prev_time = params.start - SimTime::fs(1);
    std::size_t run_start = 0;
    level = params.initial_level;
    for (std::size_t i = 0; i < bits.size();) {
        // The next block of transitions: every index is stored, and the
        // count moves past it only where the level changes.
        std::size_t m = 0;
        for (; i < bits.size() && m < kBlock; ++i) {
            at[m] = i;
            m += bits[i] != level ? 1 : 0;
            level = bits[i];
        }
        if (block_rj) rng.gaussians(z, m);
        for (std::size_t k = 0; k < m; ++k) {
            const double nominal_s =
                params.start.seconds() + static_cast<double>(at[k]) * ui_s;
            double disp_ui = 0.0;
            if (params.spec.dj_uipp > 0.0) {
                switch (params.dj_model) {
                    case DjModel::kTriangleSweep: {
                        // Triangle wave in [-1, 1]: uniform stationary PDF.
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
                        const double r =
                            std::max<std::size_t>(1, at[k] - run_start);
                        disp_ui += half * (1.0 - std::pow(2.0, 2.0 - r));
                        break;
                    }
                }
            }
            if (rj > 0.0) {
                // rng.gaussian(0.0, rj) is 0.0 + rj * z; keep its exact sum.
                disp_ui += 0.0 + rj * (block_rj ? z[k] : rng.gaussian());
            }
            disp_ui += sj.at(nominal_s);

            const SimTime t = std::max(
                SimTime::from_seconds(nominal_s + disp_ui * ui_s),
                prev_time + SimTime::fs(1));
            // Levels alternate from the initial one: edge 0 leaves it.
            out.push_back(
                Edge{t, params.initial_level == (out.size() % 2 == 1)});
            prev_time = t;
            run_start = at[k];
        }
    }
    return out;
}

std::vector<Edge> ideal_edges(const std::vector<bool>& bits, LinkRate rate,
                              SimTime start, bool initial_level) {
    std::vector<Edge> out;
    bool level = initial_level;
    for (std::size_t i = 0; i < bits.size(); ++i) {
        if (bits[i] == level) continue;
        out.push_back(Edge{
            start + SimTime::from_seconds(static_cast<double>(i) *
                                          rate.ui_seconds()),
            bits[i]});
        level = bits[i];
    }
    return out;
}

double DualDiracFit::tj_at_ber(double ber) const {
    return dj_pp + 2.0 * q_inverse(ber) * rj_rms;
}

DualDiracFit fit_dual_dirac(std::vector<double> samples) {
    DualDiracFit fit;
    if (samples.size() < 16) return fit;
    std::sort(samples.begin(), samples.end());
    const auto n = samples.size();

    // Tail-fit at two quantile pairs: map the empirical quantiles to the
    // Gaussian Q-scale; the slope gives RJ sigma, the intercept offset DJ.
    const double p1 = 0.05, p2 = 0.005;
    const double q1 = q_inverse(p1), q2 = q_inverse(p2);
    auto at = [&](double p) {
        const auto idx = static_cast<std::size_t>(
            std::clamp(p * static_cast<double>(n - 1), 0.0,
                       static_cast<double>(n - 1)));
        return samples[idx];
    };
    const double left1 = at(p1), left2 = at(p2);
    const double right1 = at(1.0 - p1), right2 = at(1.0 - p2);

    const double sigma_l = (left1 - left2) / (q2 - q1);
    const double sigma_r = (right2 - right1) / (q2 - q1);
    fit.rj_rms = std::max(0.0, 0.5 * (sigma_l + sigma_r));
    const double mu_l = left1 + q1 * sigma_l;
    const double mu_r = right1 - q1 * sigma_r;
    fit.dj_pp = std::max(0.0, mu_r - mu_l);
    return fit;
}

}  // namespace gcdr::jitter
