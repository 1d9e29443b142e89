#include "cdr/baseline.hpp"

#include <algorithm>
#include <cmath>
#include <numbers>

#include "ber/bert.hpp"
#include "encoding/prbs.hpp"
#include "util/mathx.hpp"

namespace gcdr::cdr {

namespace {

/// Per-edge data jitter sample (UI): DJ uniform + RJ Gaussian + coherent SJ.
double edge_jitter_ui(std::size_t bit_index, const jitter::JitterSpec& spec,
                      LinkRate rate, Rng& rng) {
    double j = 0.0;
    if (spec.dj_uipp > 0.0) {
        j += rng.uniform(-spec.dj_uipp / 2.0, spec.dj_uipp / 2.0);
    }
    if (spec.rj_uirms > 0.0) {
        j += rng.gaussian(0.0, spec.rj_uirms);
    }
    if (spec.sj_uipp > 0.0 && spec.sj_freq_hz > 0.0) {
        const double f_norm = spec.sj_freq_hz / rate.bits_per_second();
        j += spec.sj_uipp / 2.0 *
             std::sin(2.0 * std::numbers::pi * f_norm *
                      static_cast<double>(bit_index));
    }
    return j;
}

/// Record one bit's sampling outcome: phase is the sampler position within
/// the current bit cell whose boundaries sit at j_left and 1 + j_right.
void score_sample(BaselineResult& res, double sample_pos, double j_left,
                  double j_right, bool left_is_edge, bool right_is_edge) {
    ++res.bits;
    double margin = 1.0;  // no bounding transition -> wide margin cap
    bool error = false;
    if (left_is_edge) {
        const double m = sample_pos - j_left;
        margin = std::min(margin, m);
        if (m < 0.0) error = true;
    }
    if (right_is_edge) {
        const double m = (1.0 + j_right) - sample_pos;
        margin = std::min(margin, m);
        if (m < 0.0) error = true;
    }
    if (error) ++res.errors;
    res.margins_ui.push_back(margin);
}

}  // namespace

double BaselineResult::extrapolated_ber() const {
    return ber::extrapolate_ber_from_margins(margins_ui);
}

BaselineResult BangBangCdr::run(const std::vector<bool>& bits,
                                const jitter::JitterSpec& spec,
                                LinkRate rate, Rng& rng) const {
    BaselineResult res;
    if (bits.size() < 2) return res;

    double phi = cfg_.initial_phase_ui;  // clock edge position within UI
    double integ = 0.0;
    // Precompute each boundary's jitter (boundary n sits before bit n).
    for (std::size_t n = 1; n < bits.size(); ++n) {
        const bool left_edge = bits[n] != bits[n - 1];
        const bool right_edge = (n + 1 < bits.size()) && bits[n + 1] != bits[n];
        const double j_left =
            left_edge ? edge_jitter_ui(n, spec, rate, rng) : 0.0;
        const double j_right =
            right_edge ? edge_jitter_ui(n + 1, spec, rate, rng) : 0.0;

        // VCO period offset accumulates every bit; the loop must absorb it.
        phi += cfg_.freq_offset;

        // Alexander PD: on a transition, compare the edge-sampling clock
        // (at phi) against the actual data edge (at j_left).
        if (left_edge) {
            const double err = (j_left > phi) ? +1.0 : -1.0;
            integ += cfg_.ki_ui * err;
            phi += cfg_.kp_ui * err + integ;
        } else {
            phi += integ;  // integral path free-runs between edges
        }

        score_sample(res, phi + 0.5, j_left, j_right, left_edge, right_edge);
    }
    return res;
}

BaselineResult PhaseInterpolatorCdr::run(const std::vector<bool>& bits,
                                         const jitter::JitterSpec& spec,
                                         LinkRate rate, Rng& rng) const {
    BaselineResult res;
    if (bits.size() < 2) return res;

    const double step_ui = 1.0 / static_cast<double>(cfg_.phase_steps);
    double phi_frac = cfg_.initial_phase_ui;  // analog part: freq drift
    int code = 0;                             // interpolator code (steps)
    int vote = 0;                             // early/late accumulator
    int bits_since_update = 0;
    int freq_reg = 0;  // 2nd-order path, in 2^-shift steps per update

    for (std::size_t n = 1; n < bits.size(); ++n) {
        const bool left_edge = bits[n] != bits[n - 1];
        const bool right_edge = (n + 1 < bits.size()) && bits[n + 1] != bits[n];
        const double j_left =
            left_edge ? edge_jitter_ui(n, spec, rate, rng) : 0.0;
        const double j_right =
            right_edge ? edge_jitter_ui(n + 1, spec, rate, rng) : 0.0;

        phi_frac += cfg_.freq_offset;
        const double phi = phi_frac + static_cast<double>(code) * step_ui;

        if (left_edge) {
            vote += (j_left > phi) ? +1 : -1;
        }
        if (++bits_since_update >= cfg_.update_divider) {
            bits_since_update = 0;
            const int dir = (vote > 0) ? +1 : (vote < 0 ? -1 : 0);
            vote = 0;
            freq_reg += dir;
            code += dir + (freq_reg >> cfg_.freq_gain_shift);
        }

        score_sample(res, phi + 0.5, j_left, j_right, left_edge, right_edge);
    }
    return res;
}

template <typename CdrT>
double baseline_jtol_amplitude(const CdrT& cdr, double sj_freq_norm,
                               const jitter::JitterSpec& base, LinkRate rate,
                               std::size_t n_bits, std::uint64_t seed,
                               double ber_target, double amp_cap) {
    return bisect_largest_passing(amp_cap, 24, [&](double amp) {
        jitter::JitterSpec spec = base;
        spec.sj_uipp = amp;
        spec.sj_freq_hz = sj_freq_norm * rate.bits_per_second();
        Rng rng(seed);
        encoding::PrbsGenerator prbs(encoding::PrbsOrder::kPrbs7);
        const auto result = cdr.run(prbs.bits(n_bits), spec, rate, rng);
        // A hard failure dominates the extrapolated BER.
        const double ber =
            result.errors > 0 ? 1.0 : result.extrapolated_ber();
        return ber <= ber_target;
    });
}

// Explicit instantiations for the two baseline architectures.
template double baseline_jtol_amplitude<BangBangCdr>(
    const BangBangCdr&, double, const jitter::JitterSpec&, LinkRate,
    std::size_t, std::uint64_t, double, double);
template double baseline_jtol_amplitude<PhaseInterpolatorCdr>(
    const PhaseInterpolatorCdr&, double, const jitter::JitterSpec&, LinkRate,
    std::size_t, std::uint64_t, double, double);

}  // namespace gcdr::cdr
