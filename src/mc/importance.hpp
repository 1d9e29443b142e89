#pragma once
// Importance sampling of the gated-oscillator run-error probability via
// exponential tilting (mean shift) of the Gaussian jitter coordinates.
//
// The estimand mirrors statmodel's decomposition exactly:
//
//     BER = ( sum_L P(L) * p_late(L) + p_early ) / E[L]
//
// with one stratum per (run length, SJ phase bin) for the late mechanism
// plus one for the early mechanism. Within a stratum the Gaussian block
// (z_edge, z_trig, z_osc) is sampled from N(mu, I) where mu is the
// minimum-norm shift that moves the mean onto the error boundary of the
// *nearest* point of the stratum's bounded-jitter box (DJ extreme, phase
// extremum of the bin) — never past it, so the proposal always overlaps
// the failure region; each draw carries the exact likelihood ratio
// w = exp(-mu.z - |mu|^2/2), so the weighted indicator mean is unbiased
// for the true stratum probability at any shift. DJ stays uniform and the
// SJ phase is stratified (uniform within its bin) — the unbounded Gaussian
// directions do all the tilting work.
//
// Determinism: rounds x strata form a flat index space; stratum s of
// round r draws only from derive_seed(base_seed, r * n_strata + s), each
// parallel item sums into its own stack tally and stores it once in its
// slot, and round tallies merge into the cumulative ones in stratum order
// after the barrier — estimates are bit-identical for any thread count
// (the exec/ contract). One pool job carries ceil(8 / n_strata) rounds,
// a count fixed by the strata alone, and commits them in order under the
// per-round budget and stop test; rounds after the converged one are
// dropped uncounted, so the estimate equals a round-per-job loop's.

#include <cstdint>
#include <vector>

#include "exec/thread_pool.hpp"
#include "mc/estimator.hpp"
#include "mc/margin_model.hpp"
#include "obs/metrics.hpp"

namespace gcdr::mc {

class ImportanceSampler {
public:
    struct Config {
        McBudget budget;
    };

    ImportanceSampler(const AnalyticMarginModel& model, Config cfg,
                      obs::MetricsRegistry* metrics = nullptr);

    /// Adaptive estimate of the BER: rounds of stratified tilted draws
    /// until the normal-theory relative error meets the budget target or
    /// the evaluation budget is exhausted.
    [[nodiscard]] McEstimate estimate(exec::ThreadPool& pool) const;

    /// Number of strata ((phase bins) x (run lengths) + early).
    [[nodiscard]] std::size_t n_strata() const { return strata_.size(); }

    /// Mean shift applied in stratum s (|mu|, exposed for tests: rare
    /// operating points must actually tilt).
    [[nodiscard]] double shift_norm(std::size_t s) const;

private:
    struct Stratum {
        bool early = false;
        int run_length = 1;
        int phase_bin = 0;
        /// The late-margin terms of the run length, computed once.
        AnalyticMarginModel::LateRun late;
        /// Mean shift on (z_edge, z_trig, z_osc), or on z_early.
        double mu[3] = {0.0, 0.0, 0.0};
        double mu_early = 0.0;
    };

    void build_strata();
    [[nodiscard]] WeightedTally sample_stratum(const Stratum& st,
                                               std::uint64_t seed,
                                               std::uint64_t n) const;
    [[nodiscard]] McEstimate assemble(
        const std::vector<WeightedTally>& tallies,
        std::uint64_t total_evals) const;

    const AnalyticMarginModel* model_;
    Config cfg_;
    obs::MetricsRegistry* metrics_;
    std::vector<Stratum> strata_;
    std::vector<double> pmf_;
    double mean_len_ = 1.0;
    int bins_ = 1;
};

}  // namespace gcdr::mc
