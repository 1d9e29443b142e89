#pragma once
// The gated-oscillator model's timing equations (derived in
// gated_osc_model.hpp): the run-length law, the sample instants, the
// oscillator jitter accumulated by a sample and the effective SJ
// amplitude of a run. The statistical model integrates them over gridded
// PDFs; mc::AnalyticMarginModel samples them. Both read this one copy,
// header-inline because the importance sampler evaluates them millions of
// times per estimate.

#include <algorithm>
#include <cassert>
#include <cmath>
#include <numbers>
#include <vector>

#include "statmodel/gated_osc_model.hpp"

namespace gcdr::statmodel {

/// Truncated-geometric run-length probabilities P(L = l), l = 1..cap.
/// Random data forces P(l) = 2^-l; the encoding folds the tail onto the cap
/// (a transition is inserted at the latest after `cap` identical bits).
[[nodiscard]] inline std::vector<double> run_length_probs(int cap) {
    assert(cap >= 1);
    std::vector<double> p(cap);
    for (int l = 1; l < cap; ++l) {
        p[l - 1] = std::pow(0.5, l);
    }
    p[cap - 1] = std::pow(0.5, cap - 1);  // P(L >= cap)
    return p;
}

/// E[L] under run_length_probs' law `p`.
[[nodiscard]] inline double mean_run_length(const std::vector<double>& p) {
    double m = 0.0;
    for (std::size_t i = 0; i < p.size(); ++i) {
        m += static_cast<double>(i + 1) * p[i];
    }
    return m;
}

/// s_k: the k-th sample instant after the triggering edge, UI.
[[nodiscard]] inline double sample_instant_ui(const ModelConfig& c, int k) {
    return (static_cast<double>(k) - 0.5 - c.sampling_advance_ui) *
           (1.0 + c.freq_offset);
}

/// s_L - L: the last sample of a run of length L against its closing
/// transition. The bit is lost when the closing edge's relative jitter
/// falls below it.
[[nodiscard]] inline double late_threshold_ui(const ModelConfig& c,
                                              int run_length) {
    return sample_instant_ui(c, run_length) -
           static_cast<double>(run_length);
}

/// Oscillator jitter accumulated by the k-th sample, UI rms.
[[nodiscard]] inline double osc_sigma_ui(const ModelConfig& c, int k) {
    // CKJ is quoted at cid_ref bit periods of free run; white-noise
    // accumulation scales as sqrt(elapsed time).
    const double elapsed_ui =
        std::max(0.0, static_cast<double>(k) - 0.5 - c.sampling_advance_ui);
    return c.spec.ckj_uirms *
           std::sqrt(elapsed_ui / static_cast<double>(c.cid_ref));
}

/// sigma of the first sample of a run against its own trigger: the
/// trigger is the common time reference, so only the oscillator's
/// short-horizon jitter and the EDET/DDIN path mismatch apply.
[[nodiscard]] inline double early_sigma_ui(const ModelConfig& c) {
    const double osc = osc_sigma_ui(c, 1);
    const double mm = c.trigger_mismatch_uirms;
    return std::sqrt(osc * osc + mm * mm);
}

/// Effective SJ amplitude between the edges of a run, UIpp.
[[nodiscard]] inline double sj_effective_amplitude(const ModelConfig& c,
                                                   int run_length) {
    // Coherent sinusoid sampled `run_length` UI apart: the difference is a
    // sinusoid of amplitude A_pp * |sin(pi * f_norm * L)|. (A_pp because
    // the jitter sinusoid's own amplitude is A_pp/2 and the difference
    // doubles it at the resonant spacing.)
    if (c.spec.sj_uipp <= 0.0 || c.sj_freq_norm <= 0.0) return 0.0;
    return c.spec.sj_uipp *
           std::abs(std::sin(std::numbers::pi * c.sj_freq_norm *
                             static_cast<double>(run_length)));
}

}  // namespace gcdr::statmodel
