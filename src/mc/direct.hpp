#pragma once
// Stratified direct (crude) Monte Carlo over a MarginModel — the unbiased
// control the variance-reduced engines are validated against.
//
// Strata are run lengths with *exactly* proportional allocation: the
// truncated-geometric run-length law is dyadic (1/2, 1/4, ..., two tail
// atoms of 2^-(cap-1)), so a round size that is a multiple of 2^(cap-1)
// splits into integer per-stratum counts n_l = N * P(l). The design is
// then self-weighting: the pooled error fraction k/n equals the
// stratified estimate sum_l P(l) * k_l/n_l, which keeps the exact
// Clopper-Pearson machinery applicable to the pooled counts while the
// standard error still benefits from the stratification.
//
// Every remaining coordinate (DJ, RJ, SJ phase, early-path noise, channel
// noise seed) is drawn from its nominal law, and the indicator is
// margin_ui < 0 — late and early mechanisms jointly, i.e. the union
// probability rather than statmodel's sum of the two (they differ by a
// product of two rare probabilities, far below every tolerance here).
//
// Execution: a round visits the strata in order. Each stratum draws its
// runs serially, one bounded chunk at a time, from its own stream; the
// chunk is evaluated across the whole pool in fixed blocks through
// MarginModel::margin_ui_batch, so even the half-round L = 1 stratum
// keeps every lane busy.
//
// Determinism: (round, stratum) -> derive_seed(base, r * cap + l), slot
// writes only, fixed-order merges — bit-identical for any thread count
// and block size.

#include <cstdint>
#include <vector>

#include "exec/thread_pool.hpp"
#include "mc/estimator.hpp"
#include "mc/margin_model.hpp"
#include "obs/metrics.hpp"

namespace gcdr::mc {

class DirectSampler {
public:
    struct Config {
        McBudget budget;
        /// Runs added per adaptive round; rounded up to a multiple of
        /// 2^(max_cid - 1) so the dyadic allocation is exact.
        std::uint64_t runs_per_round = 1u << 16;
    };

    DirectSampler(const MarginModel& model, Config cfg,
                  obs::MetricsRegistry* metrics = nullptr);

    /// Rounds of stratified direct runs until the Clopper-Pearson
    /// interval's implied relative error meets the target or the budget
    /// runs out. `ci` is exact Clopper-Pearson on the pooled counts
    /// (scaled to BER); `std_err` is the stratified binomial SE.
    [[nodiscard]] McEstimate estimate(exec::ThreadPool& pool) const;

    [[nodiscard]] std::uint64_t runs_per_round() const {
        return runs_per_round_;
    }

private:
    const MarginModel* model_;
    Config cfg_;
    obs::MetricsRegistry* metrics_;
    std::vector<double> pmf_;
    double mean_len_ = 1.0;
    std::uint64_t runs_per_round_ = 0;
    std::vector<std::uint64_t> alloc_;  ///< per-stratum runs per round
};

}  // namespace gcdr::mc
