#include "mc/importance.hpp"

#include <algorithm>
#include <cmath>
#include <memory>
#include <numbers>

#include "exec/sweep.hpp"
#include "obs/progress.hpp"
#include "obs/trace_span.hpp"
#include "statmodel/timing.hpp"
#include "util/rng.hpp"

namespace gcdr::mc {

namespace {

// Draws added to every stratum per adaptive round.
constexpr std::uint64_t kSamplesPerStratumRound = 4096;
// SJ phase strata per run length (1 when the config has no SJ).
constexpr int kPhaseBins = 8;

}  // namespace

ImportanceSampler::ImportanceSampler(const AnalyticMarginModel& model,
                                     Config cfg,
                                     obs::MetricsRegistry* metrics)
    : model_(&model), cfg_(cfg), metrics_(metrics) {
    pmf_ = statmodel::run_length_probs(model.max_run_length());
    mean_len_ = statmodel::mean_run_length(pmf_);
    const bool has_sj = model.config().spec.sj_uipp > 0.0 &&
                        model.config().sj_freq_norm > 0.0;
    bins_ = has_sj ? kPhaseBins : 1;
    build_strata();
}

void ImportanceSampler::build_strata() {
    strata_.clear();
    const statmodel::ModelConfig& mcfg = model_->config();
    for (int l = 1; l <= model_->max_run_length(); ++l) {
        const double sigma_rj = mcfg.spec.rj_uirms;
        const double sigma_osc = statmodel::osc_sigma_ui(mcfg, l);
        const double amp = statmodel::sj_effective_amplitude(mcfg, l);
        // Margin = c.z + DJ + SJ - threshold with c the gradient below.
        const double c[3] = {sigma_rj, -sigma_rj, -sigma_osc};
        const double c2 = c[0] * c[0] + c[1] * c[1] + c[2] * c[2];
        for (int b = 0; b < bins_; ++b) {
            Stratum st;
            st.run_length = l;
            st.phase_bin = b;
            // Distance from the *nearest* point of the stratum's bounded
            // box (DJ in +-DJpp/2, phase anywhere in the bin) to the
            // error boundary at z = 0. Tilting by less than the distance
            // of every box point keeps the proposal overlapping the whole
            // failure region; tilting to a midpoint distance instead can
            // park the proposal sigmas away from where the bounded-jitter
            // corner already fails at z ~ 0, and the estimator then never
            // sees that (dominant) mass in any finite run.
            const double u_lo =
                static_cast<double>(b) / static_cast<double>(bins_);
            const double u_hi =
                static_cast<double>(b + 1) / static_cast<double>(bins_);
            double sin_min =
                std::min(std::sin(2.0 * std::numbers::pi * u_lo),
                         std::sin(2.0 * std::numbers::pi * u_hi));
            if (u_lo <= 0.75 && 0.75 < u_hi) sin_min = -1.0;  // interior min
            const double g_min = -0.5 * mcfg.spec.dj_uipp +
                                 amp * sin_min -
                                 statmodel::late_threshold_ui(mcfg, l);
            if (g_min > 0.0 && c2 > 0.0) {
                for (int i = 0; i < 3; ++i) st.mu[i] = -g_min * c[i] / c2;
            }
            strata_.push_back(st);
        }
    }
    Stratum early;
    early.early = true;
    const double s1 = statmodel::sample_instant_ui(mcfg, 1);
    const double se = statmodel::early_sigma_ui(mcfg);
    if (s1 > 0.0 && se > 0.0) early.mu_early = -s1 / se;
    strata_.push_back(early);
}

double ImportanceSampler::shift_norm(std::size_t s) const {
    const Stratum& st = strata_[s];
    if (st.early) return std::abs(st.mu_early);
    return std::sqrt(st.mu[0] * st.mu[0] + st.mu[1] * st.mu[1] +
                     st.mu[2] * st.mu[2]);
}

void ImportanceSampler::sample_stratum(const Stratum& st,
                                       std::uint64_t seed, std::uint64_t n,
                                       WeightedTally& tally) const {
    Rng rng(seed);
    if (st.early) {
        const double mu = st.mu_early;
        for (std::uint64_t i = 0; i < n; ++i) {
            const double z = rng.gaussian();
            const double w = std::exp(-mu * z - 0.5 * mu * mu);
            const double m = model_->early_margin_ui(z + mu);
            tally.add(m < 0.0 ? w : 0.0);
        }
        return;
    }
    const double* mu = st.mu;
    const double mu2 =
        mu[0] * mu[0] + mu[1] * mu[1] + mu[2] * mu[2];
    // Buffer coordinates and likelihood ratios, batch-evaluate the margin,
    // then tally in draw order — same rng stream and same tally sequence
    // as the one-at-a-time loop, but the margin evaluation goes through
    // the model's buffered entry point. Chunking only bounds memory.
    constexpr std::uint64_t kChunk = 1024;
    std::vector<RunSample> buf;
    std::vector<double> weights;
    std::vector<double> margins;
    for (std::uint64_t done = 0; done < n;) {
        const std::uint64_t c = std::min(kChunk, n - done);
        buf.resize(c);
        weights.resize(c);
        margins.resize(c);
        for (std::uint64_t i = 0; i < c; ++i) {
            RunSample& s = buf[i];
            s.run_length = st.run_length;
            s.u_dj = rng.uniform();
            s.u_phase = (static_cast<double>(st.phase_bin) + rng.uniform()) /
                        static_cast<double>(bins_);
            const double z0 = rng.gaussian();
            const double z1 = rng.gaussian();
            const double z2 = rng.gaussian();
            s.z_edge = z0 + mu[0];
            s.z_trig = z1 + mu[1];
            s.z_osc = z2 + mu[2];
            weights[i] = std::exp(
                -(mu[0] * z0 + mu[1] * z1 + mu[2] * z2) - 0.5 * mu2);
        }
        model_->late_margin_ui_batch(buf.data(), c, margins.data());
        for (std::uint64_t i = 0; i < c; ++i) {
            tally.add(margins[i] < 0.0 ? weights[i] : 0.0);
        }
        done += c;
    }
}

McEstimate ImportanceSampler::assemble(
    const std::vector<WeightedTally>& tallies,
    std::uint64_t total_evals) const {
    // Late strata: p_late(L) = (1/B) sum_b mean_b; early is the last
    // tally. Variances combine with the same (fixed) weights.
    double p_sum = 0.0;
    double var_sum = 0.0;
    double ess = 0.0;
    const double inv_b = 1.0 / static_cast<double>(bins_);
    for (std::size_t s = 0; s < strata_.size(); ++s) {
        const Stratum& st = strata_[s];
        const double weight =
            st.early ? 1.0 : pmf_[static_cast<std::size_t>(st.run_length) - 1] * inv_b;
        const double se = tallies[s].std_err();
        p_sum += weight * tallies[s].mean();
        var_sum += weight * weight * se * se;
        ess += tallies[s].ess();
    }
    McEstimate est;
    est.confidence = cfg_.budget.confidence;
    est.mean = p_sum / mean_len_;
    est.std_err = std::sqrt(var_sum) / mean_len_;
    est.ci = normal_interval(est.mean, est.std_err, est.confidence);
    est.ess = ess;
    est.n_samples = total_evals;
    est.converged = est.rel_err() <= cfg_.budget.target_rel_err;
    return est;
}

McEstimate ImportanceSampler::estimate(exec::ThreadPool& pool) const {
    const std::size_t n_strata = strata_.size();
    const std::uint64_t round_evals = kSamplesPerStratumRound * n_strata;
    std::vector<WeightedTally> cum(n_strata);
    std::uint64_t total = 0;
    McEstimate est;
    std::uint64_t round = 0;
    // Opt-in live progress against the eval budget (the loop may exit
    // early on convergence — finish() emits the final count either way).
    std::unique_ptr<obs::ProgressReporter> progress;
    if (obs::ProgressReporter::enabled() &&
        round_evals <= cfg_.budget.max_evals) {
        progress = std::make_unique<obs::ProgressReporter>(
            "mc.is", cfg_.budget.max_evals);
    }
    while (total + round_evals <= cfg_.budget.max_evals) {
        obs::TraceSpan round_span("mc.is.round");
        std::vector<WeightedTally> round_tallies(n_strata);
        pool.parallel_for(n_strata, [&](std::size_t s) {
            const std::uint64_t seed = exec::derive_seed(
                cfg_.budget.base_seed, round * n_strata + s);
            sample_stratum(strata_[s], seed, kSamplesPerStratumRound,
                           round_tallies[s]);
        });
        for (std::size_t s = 0; s < n_strata; ++s) {
            cum[s].merge(round_tallies[s]);  // fixed order: determinism
        }
        total += round_evals;
        ++round;
        est = assemble(cum, total);
        if (progress) progress->add(round_evals);
        if (metrics_) {
            metrics_->counter("mc.is.samples").inc(round_evals);
            metrics_->gauge("mc.is.rounds").set(static_cast<double>(round));
            metrics_->gauge("mc.is.ber").set(est.mean);
            metrics_->gauge("mc.is.rel_err").set(est.rel_err());
            metrics_->gauge("mc.is.ess").set(est.ess);
        }
        if (est.converged) break;
    }
    if (progress) progress->finish();
    if (total == 0) est = assemble(cum, 0);  // budget below one round
    return est;
}

}  // namespace gcdr::mc
