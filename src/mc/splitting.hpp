#pragma once
// Multilevel splitting (subset simulation, Au & Beck) on a MarginModel —
// the engine that reaches 1e-12 on the *behavioral* channel, where no
// closed-form tilt exists.
//
// The chain lives in a standard-normal latent space: seven N(0,1)
// coordinates map through Phi / inverse-CDF onto (run length, DJ, edge
// RJ, trigger RJ, oscillator jitter, SJ phase, early-path noise), plus a
// noise_seed integer that feeds the behavioral channel's internal draws.
// Because the margin is a *deterministic* function of this latent state,
// "clone and restart from a checkpointed channel state" reduces to
// cloning the latent vector and evaluating it again — no live
// event-queue state is ever serialized (see mc/margin_model.hpp).
//
// Importance function h = -margin (error <=> h >= 0). Each level keeps
// the p0-fraction of particles with the highest h, sets the next
// threshold at that quantile, and repopulates by pCN Metropolis moves
//     z' = rho * z + sqrt(1 - rho^2) * xi,   accept iff h(z') >= tau
// (indicator acceptance targets the prior conditioned on h >= tau; the
// noise_seed coordinate uses an independence proposal, which is likewise
// reversible under its uniform prior). P(error) = prod_l p_l * f_final.
//
// Every evaluation goes through MarginModel::margin_ui_batch. Level 0's
// i.i.d. particles are evaluated in pool-tiled blocks. In a level's pCN
// phase a chain's proposals do not depend on what it accepts, so each
// pool item takes a fixed block of chains and runs every step for them:
// the block's step-s proposals are one margin_ui_batch call, then each
// chain accepts or rejects its own.
//
// Determinism: level-0 particle i draws from derive_seed(base, i); the
// chain grown from survivor slot j of level l draws from
// derive_seed(base, (l+1) * kLevelStride + j); survivor selection sorts
// by (h desc, index asc); every parallel item writes only its own slots.
// Bit-identical for any thread count and block size.

#include <cstdint>
#include <vector>

#include "exec/thread_pool.hpp"
#include "mc/estimator.hpp"
#include "mc/margin_model.hpp"
#include "obs/metrics.hpp"

namespace gcdr::mc {

class SplittingEngine {
public:
    struct Config {
        McBudget budget;  ///< max_evals caps total margin evaluations
        std::size_t n_particles = 1024;
    };

    SplittingEngine(const MarginModel& model, Config cfg,
                    obs::MetricsRegistry* metrics = nullptr);

    /// Run the cascade and return the BER estimate. std_err uses the
    /// per-level binomial approximation inflated by Au & Beck's gamma
    /// factor, estimated from the indicator autocorrelation along each
    /// level's chains — adequate for cross-checking orders of magnitude
    /// and CI overlap, not a certified bound.
    [[nodiscard]] McEstimate estimate(exec::ThreadPool& pool) const;

    /// Levels used by the last estimate are reported via metrics
    /// ("mc.split.levels"); the engine itself is stateless/const.

private:
    struct Particle {
        double z[7];             ///< latent normals
        std::uint64_t noise_seed = 0;
        double h = 0.0;          ///< -margin at this latent state
    };

    [[nodiscard]] RunSample to_sample(const Particle& p) const;
    /// h for a contiguous block of particles via the model's batched
    /// oracle: level 0's seeds, or one pCN step of a block of chains.
    void eval_h_batch(Particle* particles, std::size_t n) const;

    const MarginModel* model_;
    Config cfg_;
    obs::MetricsRegistry* metrics_;
    std::vector<double> pmf_;
    double mean_len_ = 1.0;
};

}  // namespace gcdr::mc
