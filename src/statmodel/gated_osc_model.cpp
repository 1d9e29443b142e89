#include "statmodel/gated_osc_model.hpp"

#include <algorithm>
#include <array>
#include <cassert>
#include <cmath>
#include <cstdio>
#include <numbers>
#include <stdexcept>
#include <utility>

#include "statmodel/timing.hpp"
#include "util/mathx.hpp"

namespace gcdr::statmodel {

namespace {

/// RJ of both edges and the oscillator's accumulated jitter are
/// independent Gaussians; combined into one.
double edge_sigma_ui(const ModelConfig& c, int run_length) {
    const double rj2 = 2.0 * c.spec.rj_uirms * c.spec.rj_uirms;
    const double osc = osc_sigma_ui(c, run_length);
    return std::sqrt(rj2 + osc * osc);
}

stats::GridPdf relative_edge_pdf(const ModelConfig& c, int run_length) {
    // PDF of (closing-edge jitter) - (sample-instant jitter), in UI.
    const double dx = c.grid_dx;
    std::vector<stats::GridPdf> parts;

    // DJ enters once, not from both edges: deterministic jitter in serial
    // links is pattern-correlated (ISI, duty-cycle distortion), and the
    // Table 1 DJ number quantifies the total deterministic eye closure
    // relative to the recovered clock. Treating the trigger and closing
    // edges' DJ as independent would double-count it and push the Table 1
    // budget's BER floor to ~1e-7, contradicting the paper's Fig 9.
    if (c.spec.dj_uipp > 0.0) {
        parts.push_back(stats::GridPdf::uniform(c.spec.dj_uipp, dx));
    }
    const double sigma = edge_sigma_ui(c, run_length);
    if (sigma > 0.0) {
        parts.push_back(stats::GridPdf::gaussian(sigma, dx));
    }
    return stats::convolve_all(parts, dx, c.pdf_prune_floor);
}

/// P(first bit of a run sampled before its own trigger).
double early_error(const ModelConfig& c) {
    const double s1 = sample_instant_ui(c, 1);
    const double sigma = early_sigma_ui(c);
    if (sigma <= 0.0) return s1 < 0.0 ? 1.0 : 0.0;
    return q_function(s1 / sigma);
}

/// sin(theta_i) at the N sinusoid phases theta_i = 2*pi*(i + 1/2)/N of the
/// rectangle-rule SJ phase average.
template <std::size_t N>
std::array<double, N> sj_phase_sines() {
    std::array<double, N> s{};
    for (std::size_t i = 0; i < N; ++i) {
        const double theta = 2.0 * std::numbers::pi *
                             (static_cast<double>(i) + 0.5) /
                             static_cast<double>(N);
        s[i] = std::sin(theta);
    }
    return s;
}

}  // namespace

std::string check_model_config(const ModelConfig& cfg) {
    // Negated comparisons so NaN fails too.
    if (!(cfg.grid_dx > 0.0)) return "grid_dx: want > 0";
    const std::pair<const char*, double> terms[] = {
        {"dj_uipp", cfg.spec.dj_uipp},
        {"rj_uirms", cfg.spec.rj_uirms},
        {"sj_uipp", cfg.spec.sj_uipp},
        {"ckj_uirms", cfg.spec.ckj_uirms},
    };
    for (const auto& [name, value] : terms) {
        if (!(value >= 0.0)) return std::string(name) + ": want >= 0";
    }
    if (cfg.max_cid < 1) return "max_cid: want >= 1";
    if (cfg.cid_ref < 1) return "cid_ref: want >= 1";
    // The widest PDF is the longest run's (its oscillator jitter has
    // accumulated longest): the DJ uniform convolved with the Gaussian.
    const double bins =
        stats::GridPdf::uniform_bins(cfg.spec.dj_uipp, cfg.grid_dx) +
        stats::GridPdf::gaussian_bins(edge_sigma_ui(cfg, cfg.max_cid),
                                      cfg.grid_dx) -
        1.0;
    if (!(bins <= static_cast<double>(kMaxEdgePdfBins))) {
        char msg[160];
        std::snprintf(msg, sizeof msg,
                      "grid_dx: too fine for the jitter budget, an edge "
                      "PDF would need %.3g bins (cap %zu)",
                      bins, kMaxEdgePdfBins);
        return msg;
    }
    return {};
}

GatedOscStatModel::GatedOscStatModel(const ModelConfig& cfg) : cfg_(cfg) {
    assert(cfg_.max_cid >= 1);
    assert(cfg_.grid_dx > 0.0);
    edge_pdfs_.reserve(static_cast<std::size_t>(cfg_.max_cid));
    for (int l = 1; l <= cfg_.max_cid; ++l) {
        edge_pdfs_.push_back(relative_edge_pdf(cfg_, l));
    }
}

bool shares_edge_pdfs(const ModelConfig& a, const ModelConfig& b) {
    ModelConfig same_pdfs = b;
    same_pdfs.spec.sj_uipp = a.spec.sj_uipp;
    same_pdfs.spec.sj_freq_hz = a.spec.sj_freq_hz;
    same_pdfs.sj_freq_norm = a.sj_freq_norm;
    same_pdfs.freq_offset = a.freq_offset;
    same_pdfs.trigger_mismatch_uirms = a.trigger_mismatch_uirms;
    same_pdfs.run_model = a.run_model;
    return same_pdfs == a;
}

bool GatedOscStatModel::shares_pdfs(const ModelConfig& point) const {
    return shares_edge_pdfs(cfg_, point);
}

double GatedOscStatModel::ber_at(const ModelConfig& point) const {
    return shares_pdfs(point) ? ber(point) : ber_of(point);
}

double GatedOscStatModel::late_error_prob(int run_length) const {
    if (run_length < 1 || run_length > cfg_.max_cid) {
        throw std::out_of_range("late_error_prob: run length outside "
                                "[1, max_cid]");
    }
    return late_error_prob(cfg_, run_length);
}

double GatedOscStatModel::late_error_prob(const ModelConfig& c,
                                          int run_length) const {
    // Error when  L + dJ  <  s_L  + osc_jitter:  P(X + S < margin)  with
    // X = (DJ + RJ + osc) relative PDF, S the effective SJ sinusoid and
    // margin = s_L - L (in UI). The SJ average is taken exactly over the
    // sinusoid phase (512-point rectangle rule) instead of convolving an
    // arcsine PDF — same math, no grid blow-up at multi-UI amplitudes.
    const double margin = late_threshold_ui(c, run_length);
    const stats::GridPdf& pdf =
        edge_pdfs_[static_cast<std::size_t>(run_length - 1)];
    const double a_eff = sj_effective_amplitude(c, run_length);
    if (a_eff <= 0.0) {
        return std::min(1.0, pdf.tail_below(margin));
    }
    constexpr std::size_t kPhases = 512;
    static const std::array<double, kPhases> kSines =
        sj_phase_sines<kPhases>();
    // Batched cdf calls over the phases, kChunk at a time so the buffer
    // stays small on every pool lane's stack, summed in phase order.
    constexpr std::size_t kChunk = 64;
    static_assert(kPhases % kChunk == 0);
    double acc = 0.0;
    for (std::size_t i0 = 0; i0 < kPhases; i0 += kChunk) {
        std::array<double, kChunk> tails;
        for (std::size_t i = 0; i < kChunk; ++i) {
            tails[i] = margin - a_eff * kSines[i0 + i];
        }
        pdf.cdf(tails, tails);
        for (double t : tails) acc += t;
    }
    return std::min(1.0, acc / static_cast<double>(kPhases));
}

double GatedOscStatModel::early_error_prob() const {
    return early_error(cfg_);
}

double GatedOscStatModel::ber() const { return ber(cfg_); }

double GatedOscStatModel::ber(const ModelConfig& c) const {
    if (c.run_model == RunModel::kWorstCase) {
        return std::min(1.0,
                        late_error_prob(c, c.max_cid) + early_error(c));
    }
    const auto probs = run_length_probs(c.max_cid);
    const double mean_l = mean_run_length(probs);
    double errors_per_run = early_error(c);
    for (int l = 1; l <= c.max_cid; ++l) {
        errors_per_run += probs[l - 1] * late_error_prob(c, l);
    }
    return std::min(1.0, errors_per_run / mean_l);
}

double GatedOscStatModel::eye_margin_ui(double ber_target) const {
    const int L = cfg_.max_cid;
    const stats::GridPdf& pdf = edge_pdfs_.back();
    const double a_eff = sj_effective_amplitude(cfg_, L);
    // SJ-phase-averaged lower tail at offset x.
    constexpr std::size_t kPhases = 128;
    const std::array<double, kPhases> sines = sj_phase_sines<kPhases>();
    auto tail_at = [&](double x) {
        if (a_eff <= 0.0) return pdf.tail_below(x);
        double acc = 0.0;
        for (double s : sines) acc += pdf.tail_below(x - a_eff * s);
        return acc / static_cast<double>(kPhases);
    };
    const double margin = late_threshold_ui(cfg_, L);
    // Walk the margin left until the tail mass drops below target: the
    // distance walked is the margin to the 1e-12 contour.
    const double dx = cfg_.grid_dx;
    double x = margin;
    if (tail_at(x) <= ber_target) {
        // Already compliant: how much later could we sample?
        while (tail_at(x + dx) <= ber_target && x < 2.0) x += dx;
        return x - margin;
    }
    while (tail_at(x) > ber_target && x > -2.0) x -= dx;
    return x - margin;  // negative: how far the eye is closed
}

double ber_of(const ModelConfig& cfg) {
    return GatedOscStatModel(cfg).ber();
}

namespace {

/// jtol_amplitude's bisection at `base`, every step evaluated through
/// `model` (GatedOscStatModel::ber_at: on its PDFs when `base` shares
/// them, else on a fresh model per step).
double jtol_search(const GatedOscStatModel& model, ModelConfig base,
                   double sj_freq_norm, double ber_target, double amp_cap) {
    base.sj_freq_norm = sj_freq_norm;
    return bisect_largest_passing(amp_cap, 60, [&](double amp) {
        ModelConfig c = base;
        c.spec.sj_uipp = amp;
        return model.ber_at(c) <= ber_target;
    });
}

}  // namespace

double jtol_amplitude(ModelConfig base, double sj_freq_norm,
                      double ber_target, double amp_cap) {
    return jtol_search(GatedOscStatModel(base), base, sj_freq_norm,
                       ber_target, amp_cap);
}

double jtol_amplitude(const GatedOscStatModel& model, const ModelConfig& base,
                      double sj_freq_norm, double ber_target,
                      double amp_cap) {
    return jtol_search(model, base, sj_freq_norm, ber_target, amp_cap);
}

std::vector<masks::MaskPoint> jtol_curve(const ModelConfig& base,
                                         const std::vector<double>& sj_freq_norms,
                                         LinkRate rate, double ber_target,
                                         exec::ThreadPool* pool) {
    return jtol_curve(GatedOscStatModel(base), base, sj_freq_norms, rate,
                      ber_target, pool);
}

std::vector<masks::MaskPoint> jtol_curve(const GatedOscStatModel& model,
                                         const ModelConfig& base,
                                         const std::vector<double>& sj_freq_norms,
                                         LinkRate rate, double ber_target,
                                         exec::ThreadPool* pool) {
    std::vector<masks::MaskPoint> out(sj_freq_norms.size());
    auto eval_point = [&](std::size_t i) {
        const double fn = sj_freq_norms[i];
        // 100 UIpp: jtol_amplitude's default search cap.
        out[i] = masks::MaskPoint{
            fn * rate.bits_per_second(),
            jtol_search(model, base, fn, ber_target, 100.0)};
    };
    if (pool) {
        pool->parallel_for(out.size(), eval_point);
    } else {
        for (std::size_t i = 0; i < out.size(); ++i) eval_point(i);
    }
    return out;
}

double ftol(ModelConfig base, double ber_target) {
    const GatedOscStatModel model(base);
    // FTOL is quoted as a symmetric bound: the smaller of the two one-sided
    // tolerances (a slow oscillator fails sooner than a fast one at the
    // mid-bit sampling point, and vice versa for the advanced one).
    double worst = 0.5;
    for (double sign : {+1.0, -1.0}) {
        const double tol = bisect_largest_passing(0.5, 60, [&](double d) {
            ModelConfig c = base;
            c.freq_offset = sign * d;
            return model.ber_at(c) <= ber_target;
        });
        // A zero one-sided tolerance (the zero-offset point already
        // fails) is the answer; the other side need not run.
        if (tol == 0.0) return 0.0;
        worst = std::min(worst, tol);
    }
    return worst;
}

}  // namespace gcdr::statmodel
