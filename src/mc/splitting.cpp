#include "mc/splitting.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <memory>
#include <numeric>

#include "exec/sweep.hpp"
#include "obs/progress.hpp"
#include "obs/trace_span.hpp"
#include "statmodel/timing.hpp"
#include "util/rng.hpp"

namespace gcdr::mc {

namespace {

// Seed-space stride between levels; particle indices stay far below it.
constexpr std::uint64_t kLevelStride = 1ull << 32;

// Chains per pool item in a pCN level. Only scheduling depends on it:
// every chain's draws and accepts are its own.
constexpr std::size_t kChainBlock = 16;

// Survivor fraction per level.
constexpr double kP0 = 0.1;

// Starting pCN autocorrelation (0 = independent, 1 = frozen). The step
// size is re-tuned between levels toward ~0.44 acceptance (adaptive
// conditional sampling), so this only seeds level 1.
constexpr double kPcnRho = 0.85;

// Safety net against non-progressing chains.
constexpr int kMaxLevels = 40;

double std_normal_cdf(double z) {
    return 0.5 * std::erfc(-z / std::sqrt(2.0));
}

// Map a latent normal to a uniform strictly inside [0, 1).
double to_uniform(double z) {
    const double u = std_normal_cdf(z);
    return std::min(std::max(u, 0.0), 0x1.fffffffffffffp-1);
}

}  // namespace

SplittingEngine::SplittingEngine(const MarginModel& model, Config cfg,
                                 obs::MetricsRegistry* metrics)
    : model_(&model), cfg_(cfg), metrics_(metrics) {
    assert(cfg_.n_particles >= 8);
    pmf_ = statmodel::run_length_probs(model.max_run_length());
    mean_len_ = statmodel::mean_run_length(pmf_);
}

RunSample SplittingEngine::to_sample(const Particle& p) const {
    RunSample s;
    s.run_length = run_length_from_uniform(pmf_, to_uniform(p.z[0]));
    s.u_dj = to_uniform(p.z[1]);
    s.z_edge = p.z[2];
    s.z_trig = p.z[3];
    s.z_osc = p.z[4];
    s.u_phase = to_uniform(p.z[5]);
    s.z_early = p.z[6];
    s.noise_seed = p.noise_seed;
    return s;
}

void SplittingEngine::eval_h_batch(Particle* particles,
                                   std::size_t n) const {
    std::vector<RunSample> samples(n);
    std::vector<double> margins(n);
    for (std::size_t i = 0; i < n; ++i) samples[i] = to_sample(particles[i]);
    model_->margin_ui_batch(samples.data(), n, margins.data());
    for (std::size_t i = 0; i < n; ++i) particles[i].h = -margins[i];
}

McEstimate SplittingEngine::estimate(exec::ThreadPool& pool) const {
    obs::TraceSpan span("mc.split");
    const std::size_t n = cfg_.n_particles;
    const std::size_t ns = std::max<std::size_t>(
        1, static_cast<std::size_t>(kP0 * static_cast<double>(n)));
    const std::size_t chain_len = (n + ns - 1) / ns;  // ceil(n / ns)

    McEstimate est;
    est.confidence = cfg_.budget.confidence;
    if (cfg_.budget.max_evals < n) return est;  // can't even seed level 0

    std::vector<Particle> particles(n);
    {
        obs::TraceSpan seed_span("mc.split.seed");
        // Draw first (cheap, per-particle seeds), then evaluate the i.i.d.
        // population through the batched oracle in pool-tiled blocks. The
        // block size only shapes scheduling — particles are already fixed,
        // so results are identical for any blocking or thread count.
        pool.parallel_for(n, [&](std::size_t i) {
            Rng rng(exec::derive_seed(cfg_.budget.base_seed, i));
            Particle& p = particles[i];
            for (double& z : p.z) z = rng.gaussian();
            p.noise_seed = rng.generator()();
        });
        constexpr std::size_t kBlock = 64;
        const std::size_t n_blocks = (n + kBlock - 1) / kBlock;
        pool.parallel_for(n_blocks, [&](std::size_t b) {
            const std::size_t lo = b * kBlock;
            eval_h_batch(&particles[lo], std::min(kBlock, n - lo));
        });
    }
    std::uint64_t total = n;

    // Evaluations one repopulation costs: every slot except each active
    // chain's seed copy.
    std::size_t level_evals = 0;
    for (std::size_t j = 0; j < ns; ++j) {
        const std::size_t lo = j * chain_len;
        const std::size_t hi = std::min(lo + chain_len, n);
        if (hi > lo) level_evals += hi - lo - 1;
    }

    std::vector<double> level_probs;
    std::vector<double> level_gammas;
    std::vector<std::size_t> order(n);
    double final_fraction = 0.0;
    double final_gamma = 0.0;
    bool reached = false;
    // pCN step size; kPcnRho sets the starting correlation and the
    // acceptance-rate feedback below re-tunes it between levels.
    double beta = std::sqrt(1.0 - kPcnRho * kPcnRho);
    int level = 0;
    // Opt-in live progress against the eval budget; the run usually ends
    // well short of it (on reaching the target set), so finish() stamps
    // the actual total.
    std::unique_ptr<obs::ProgressReporter> progress;
    if (obs::ProgressReporter::enabled()) {
        progress = std::make_unique<obs::ProgressReporter>(
            "mc.split", cfg_.budget.max_evals);
        progress->add(total);
    }

    // Au & Beck's gamma: variance inflation of a level-probability
    // estimate from the indicator autocorrelation along the chains that
    // generated the current population. Level 0 is i.i.d. (gamma = 0).
    auto chain_gamma = [&](double thr) -> double {
        if (level == 0) return 0.0;
        double pbar = 0.0;
        for (const Particle& p : particles) {
            if (p.h >= thr) pbar += 1.0;
        }
        pbar /= static_cast<double>(n);
        const double r0 = pbar * (1.0 - pbar);
        if (r0 <= 0.0) return 0.0;
        double gamma = 0.0;
        for (std::size_t k = 1; k < chain_len; ++k) {
            double acc = 0.0;
            std::size_t pairs = 0;
            for (std::size_t j = 0; j < ns; ++j) {
                const std::size_t lo = j * chain_len;
                const std::size_t hi = std::min(lo + chain_len, n);
                for (std::size_t t = lo; t + k < hi; ++t) {
                    acc += (particles[t].h >= thr ? 1.0 : 0.0) *
                           (particles[t + k].h >= thr ? 1.0 : 0.0);
                    ++pairs;
                }
            }
            if (pairs == 0) break;
            const double rho_k =
                (acc / static_cast<double>(pairs) - pbar * pbar) / r0;
            gamma += 2.0 *
                     (1.0 - static_cast<double>(k) /
                                static_cast<double>(chain_len)) *
                     rho_k;
        }
        return std::max(0.0, gamma);
    };
    for (;; ++level) {
        obs::TraceSpan level_span("mc.split.level");
        std::iota(order.begin(), order.end(), 0);
        std::sort(order.begin(), order.end(),
                  [&](std::size_t a, std::size_t b) {
                      if (particles[a].h != particles[b].h) {
                          return particles[a].h > particles[b].h;
                      }
                      return a < b;  // deterministic tie-break
                  });
        const double tau = particles[order[ns - 1]].h;
        std::size_t n_target = 0;
        for (const Particle& p : particles) {
            if (p.h >= 0.0) ++n_target;
        }
        if (tau >= 0.0) {
            // The p0-quantile itself is in the error region: finish.
            final_fraction =
                static_cast<double>(n_target) / static_cast<double>(n);
            final_gamma = chain_gamma(0.0);
            reached = true;
            break;
        }
        if (level >= kMaxLevels ||
            total + level_evals > cfg_.budget.max_evals) {
            final_fraction =
                static_cast<double>(n_target) / static_cast<double>(n);
            final_gamma = chain_gamma(0.0);
            break;
        }
        level_probs.push_back(static_cast<double>(ns) /
                              static_cast<double>(n));
        level_gammas.push_back(chain_gamma(tau));

        std::vector<Particle> next(n);
        std::vector<std::uint32_t> accepts(ns, 0);
        const double rho = std::sqrt(1.0 - beta * beta);
        // Chain j fills slots [j * chain_len, min((j + 1) * chain_len, n)).
        // Its draws do not depend on what it accepts, so step s of every
        // chain in a block is one batch, and one pool item runs all of a
        // block's steps with no barrier between them.
        const std::size_t n_blocks = (ns + kChainBlock - 1) / kChainBlock;
        pool.parallel_for(n_blocks, [&](std::size_t b) {
            const std::size_t j0 = b * kChainBlock;
            const std::size_t nb = std::min(kChainBlock, ns - j0);
            std::vector<Rng> rngs(nb);
            std::vector<Particle> cur(nb);
            std::vector<Particle> cand(nb);
            for (std::size_t k = 0; k < nb; ++k) {
                const std::size_t j = j0 + k;
                rngs[k] = Rng(exec::derive_seed(
                    cfg_.budget.base_seed,
                    static_cast<std::uint64_t>(level + 1) * kLevelStride +
                        j));
                cur[k] = particles[order[j]];
                // The survivor itself stays in the population (a spare
                // survivor, when ns doesn't divide n, has no slot).
                if (j * chain_len < n) next[j * chain_len] = cur[k];
            }
            for (std::size_t s = 1; s < chain_len; ++s) {
                // Slots grow with j, so the chains that still have a slot
                // at step s are a prefix of the block.
                std::size_t live = 0;
                while (live < nb && (j0 + live) * chain_len + s < n) ++live;
                for (std::size_t k = 0; k < live; ++k) {
                    for (int d = 0; d < 7; ++d) {
                        cand[k].z[d] =
                            rho * cur[k].z[d] + beta * rngs[k].gaussian();
                    }
                    cand[k].noise_seed = rngs[k].generator()();
                }
                eval_h_batch(cand.data(), live);
                for (std::size_t k = 0; k < live; ++k) {
                    if (cand[k].h >= tau) {
                        cur[k] = cand[k];
                        ++accepts[j0 + k];
                    }
                    next[(j0 + k) * chain_len + s] = cur[k];
                }
            }
        });
        particles.swap(next);
        total += level_evals;
        if (progress) progress->add(level_evals);
        // Adaptive conditional sampling: steer the pCN step size toward
        // the ~0.44 acceptance sweet spot (Papaioannou et al.). The
        // statistic is merged in fixed order after the barrier, so the
        // adaptation — like everything else — is thread-count invariant.
        if (level_evals > 0) {
            std::uint64_t acc_total = 0;
            for (std::size_t j = 0; j < ns; ++j) acc_total += accepts[j];
            const double acc_rate = static_cast<double>(acc_total) /
                                    static_cast<double>(level_evals);
            beta = std::clamp(beta * std::exp(acc_rate - 0.44), 0.02, 1.0);
            if (metrics_) {
                metrics_->gauge("mc.split.acceptance_rate").set(acc_rate);
                metrics_->gauge("mc.split.pcn_beta").set(beta);
            }
        }
    }
    if (progress) progress->finish();

    double p = final_fraction;
    for (double pl : level_probs) p *= pl;
    est.mean = p / mean_len_;
    est.n_samples = total;
    est.ess = static_cast<double>(n);
    if (metrics_) {
        metrics_->counter("mc.split.evals").inc(total);
        metrics_->gauge("mc.split.levels").set(level_probs.size() + 1.0);
        metrics_->gauge("mc.split.ber").set(est.mean);
    }
    if (p <= 0.0) {
        // Nothing reached the error region within budget: report a
        // rule-of-3 style upper bound at the deepest level attained.
        double bound = -std::log(1.0 - est.confidence) /
                       static_cast<double>(n);
        for (double pl : level_probs) bound *= pl;
        est.ci = Interval{0.0, bound / mean_len_};
        est.converged = false;
        return est;
    }
    // Per-level binomial variance inflated by the measured chain
    // correlation (Au & Beck's (1 + gamma) factor per level).
    double rel_var = 0.0;
    for (std::size_t l = 0; l < level_probs.size(); ++l) {
        const double pl = level_probs[l];
        rel_var += (1.0 + level_gammas[l]) * (1.0 - pl) /
                   (pl * static_cast<double>(n));
    }
    if (final_fraction < 1.0) {
        rel_var += (1.0 + final_gamma) * (1.0 - final_fraction) /
                   (final_fraction * static_cast<double>(n));
    }
    est.std_err = est.mean * std::sqrt(rel_var);
    // The estimate's error is multiplicative (a product of level
    // fractions), so a symmetric linear-scale CI undercovers badly once
    // the spread reaches a sizable fraction of a decade. Delta method on
    // log X: sd(log X) ~ rel std, hence the log-normal interval.
    const double z = z_value(est.confidence);
    const double sig_log = std::sqrt(rel_var);
    est.ci = Interval{est.mean * std::exp(-z * sig_log),
                      est.mean * std::exp(z * sig_log)};
    est.converged =
        reached && est.rel_err() <= cfg_.budget.target_rel_err;
    if (metrics_) {
        metrics_->gauge("mc.split.rel_err").set(est.rel_err());
    }
    return est;
}

}  // namespace gcdr::mc
