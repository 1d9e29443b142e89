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
// Pool items a job should carry at least: whole rounds are added until a
// job has this many, so the 6 strata of a config without SJ do not leave
// lanes idle in a second, part-filled wave. Fixed, never the pool width,
// so the job and item counts do not depend on the thread count.
constexpr std::size_t kMinItemsPerJob = 8;

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
        const AnalyticMarginModel::LateRun late = model_->late_run(l);
        const double sigma_rj = mcfg.spec.rj_uirms;
        // Margin = c.z + DJ + SJ - threshold with c the gradient below.
        const double c[3] = {sigma_rj, -sigma_rj, -late.osc_sigma};
        const double c2 = c[0] * c[0] + c[1] * c[1] + c[2] * c[2];
        for (int b = 0; b < bins_; ++b) {
            Stratum st;
            st.run_length = l;
            st.phase_bin = b;
            st.late = late;
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
                                 late.sj_amp * sin_min - late.threshold;
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

WeightedTally ImportanceSampler::sample_stratum(const Stratum& st,
                                               std::uint64_t seed,
                                               std::uint64_t n) const {
    // The tally lives on this lane's stack and is stored once: the slots
    // of different items share cache lines, and adding into one per draw
    // makes the lanes contend for them. A passing draw adds 0, so the
    // likelihood ratio is evaluated for failing draws only.
    WeightedTally tally;
    Rng rng(seed);
    if (st.early) {
        const double mu = st.mu_early;
        for (std::uint64_t i = 0; i < n; ++i) {
            const double z = rng.gaussian();
            const double m = model_->early_margin_ui(z + mu);
            tally.add(m < 0.0 ? std::exp(-mu * z - 0.5 * mu * mu) : 0.0);
        }
        return tally;
    }
    const AnalyticMarginModel::LateRun& late = st.late;
    const double* mu = st.mu;
    const double mu2 =
        mu[0] * mu[0] + mu[1] * mu[1] + mu[2] * mu[2];
    for (std::uint64_t i = 0; i < n; ++i) {
        const double u_dj = rng.uniform();
        const double u = rng.uniform();
        const double z0 = rng.gaussian();
        const double z1 = rng.gaussian();
        const double z2 = rng.gaussian();
        // u is drawn either way, so the stream does not depend on the
        // amplitude. With no effective SJ the term would be +-0, which
        // cannot change the sign test below, so the sine is skipped.
        double sj = 0.0;
        if (late.sj_amp != 0.0) {
            const double u_phase =
                (static_cast<double>(st.phase_bin) + u) /
                static_cast<double>(bins_);
            sj = late.sj_amp * std::sin(2.0 * std::numbers::pi * u_phase);
        }
        const double m = model_->late_margin_ui(late, u_dj, z0 + mu[0],
                                                z1 + mu[1], z2 + mu[2], sj);
        tally.add(m < 0.0 ? std::exp(-(mu[0] * z0 + mu[1] * z1 +
                                       mu[2] * z2) -
                                     0.5 * mu2)
                          : 0.0);
    }
    return tally;
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
    const std::uint64_t max_rounds = cfg_.budget.max_evals / round_evals;
    const std::uint64_t rounds_per_job =
        (kMinItemsPerJob + n_strata - 1) / n_strata;
    std::vector<WeightedTally> cum(n_strata);
    std::vector<WeightedTally> job_tallies;
    std::uint64_t total = 0;
    McEstimate est;
    std::uint64_t round = 0;
    // Opt-in live progress against the eval budget (the loop may exit
    // early on convergence — finish() emits the final count either way).
    std::unique_ptr<obs::ProgressReporter> progress;
    if (obs::ProgressReporter::enabled() && max_rounds > 0) {
        progress = std::make_unique<obs::ProgressReporter>(
            "mc.is", cfg_.budget.max_evals);
    }
    while (round < max_rounds && !est.converged) {
        obs::TraceSpan job_span("mc.is.round");
        const std::uint64_t job_rounds =
            std::min(rounds_per_job, max_rounds - round);
        const std::uint64_t first_item = round * n_strata;
        job_tallies.assign(job_rounds * n_strata, WeightedTally{});
        pool.parallel_for(job_tallies.size(), [&](std::size_t i) {
            job_tallies[i] = sample_stratum(
                strata_[i % n_strata],
                exec::derive_seed(cfg_.budget.base_seed, first_item + i),
                kSamplesPerStratumRound);
        });
        // Commit the job's rounds in order, each under the stop test; the
        // rounds after a converged one are dropped.
        for (std::uint64_t r = 0; r < job_rounds && !est.converged; ++r) {
            const WeightedTally* tallies = &job_tallies[r * n_strata];
            for (std::size_t s = 0; s < n_strata; ++s) {
                cum[s].merge(tallies[s]);  // fixed order: determinism
            }
            total += round_evals;
            ++round;
            est = assemble(cum, total);
            if (progress) progress->add(round_evals);
            if (metrics_) {
                metrics_->counter("mc.is.samples").inc(round_evals);
                metrics_->gauge("mc.is.rounds")
                    .set(static_cast<double>(round));
                metrics_->gauge("mc.is.ber").set(est.mean);
                metrics_->gauge("mc.is.rel_err").set(est.rel_err());
                metrics_->gauge("mc.is.ess").set(est.ess);
            }
        }
    }
    if (progress) progress->finish();
    if (total == 0) est = assemble(cum, 0);  // budget below one round
    return est;
}

}  // namespace gcdr::mc
