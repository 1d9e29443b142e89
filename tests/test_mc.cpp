// Tests for src/mc/: interval math against externally computed reference
// values, tally merge semantics, the run-length law, and the three
// rare-event engines cross-validated against the statistical model.

#include <gtest/gtest.h>

#include <cmath>

#include "exec/thread_pool.hpp"
#include "mc/direct.hpp"
#include "mc/estimator.hpp"
#include "mc/importance.hpp"
#include "mc/margin_model.hpp"
#include "mc/splitting.hpp"
#include "statmodel/gated_osc_model.hpp"
#include "statmodel/timing.hpp"

namespace gcdr::mc {
namespace {

// ---------------------------------------------------------------------------
// Intervals (references computed with arbitrary-precision binomial sums)

TEST(Intervals, ClopperPearsonReferenceValues) {
    struct Case {
        std::uint64_t k, n;
        double lo, hi;
    };
    const Case cases[] = {
        {0, 30, 0.0, 0.1157033082},
        {1, 10, 0.002528578544, 0.445016117},
        {5, 100, 0.01643187918, 0.1128349111},
        {3, 1000000, 6.186725502e-7, 8.767247788e-6},
        {10, 100000, 4.795489514e-5, 1.838958454e-4},
        {50, 1000, 0.0373353976, 0.06539048792},
    };
    for (const Case& c : cases) {
        const Interval iv = clopper_pearson_interval(c.k, c.n, 0.95);
        EXPECT_NEAR(iv.lo, c.lo, 1e-8 * (c.lo > 0 ? c.lo : 1.0))
            << "k=" << c.k << " n=" << c.n;
        EXPECT_NEAR(iv.hi, c.hi, 1e-8 * c.hi) << "k=" << c.k << " n=" << c.n;
    }
}

TEST(Intervals, WilsonReferenceValues) {
    const Interval a = wilson_interval(5, 100, 0.95);
    EXPECT_NEAR(a.lo, 0.02154367915, 1e-9);
    EXPECT_NEAR(a.hi, 0.1117504692, 1e-9);
    const Interval b = wilson_interval(0, 30, 0.95);
    EXPECT_DOUBLE_EQ(b.lo, 0.0);
    EXPECT_NEAR(b.hi, 0.1135133932, 1e-9);
    const Interval c = wilson_interval(10, 100000, 0.95);
    EXPECT_NEAR(c.lo, 5.432073451e-5, 1e-12);
    EXPECT_NEAR(c.hi, 1.840846955e-4, 1e-12);
}

TEST(Intervals, WilsonNarrowerThanClopperPearson) {
    // CP is exact hence conservative; the Wilson approximation is
    // strictly narrower (its endpoints can poke past CP's at very low
    // counts, so the invariant is on the width, not nesting).
    for (std::uint64_t k : {2ull, 10ull, 40ull}) {
        const Interval cp = clopper_pearson_interval(k, 200, 0.95);
        const Interval w = wilson_interval(k, 200, 0.95);
        EXPECT_LT(w.hi - w.lo, cp.hi - cp.lo) << "k=" << k;
    }
}

TEST(Intervals, ZValueMatchesStandardQuantiles) {
    EXPECT_NEAR(z_value(0.95), 1.959963985, 1e-6);
    EXPECT_NEAR(z_value(0.99), 2.575829304, 1e-6);
}

// ---------------------------------------------------------------------------
// WeightedTally

TEST(WeightedTally, MomentsAndEss) {
    WeightedTally t;
    t.add(0.0);
    t.add(2.0);
    t.add(2.0);
    t.add(0.0);
    EXPECT_EQ(t.n(), 4u);
    EXPECT_DOUBLE_EQ(t.mean(), 1.0);
    // ESS = (sum w)^2 / sum w^2 = 16 / 8.
    EXPECT_DOUBLE_EQ(t.ess(), 2.0);
}

TEST(WeightedTally, MergeMatchesSequentialAdds) {
    WeightedTally seq, a, b;
    for (int i = 0; i < 10; ++i) {
        const double w = 0.1 * i;
        seq.add(w);
        (i < 5 ? a : b).add(w);
    }
    a.merge(b);
    EXPECT_EQ(a.n(), seq.n());
    EXPECT_DOUBLE_EQ(a.sum(), seq.sum());
    EXPECT_DOUBLE_EQ(a.sum_sq(), seq.sum_sq());
}

// ---------------------------------------------------------------------------
// Run-length law

TEST(RunLength, PmfSumsToOneWithCapAtom) {
    const auto pmf = statmodel::run_length_probs(5);
    ASSERT_EQ(pmf.size(), 5u);
    double sum = 0.0;
    for (double p : pmf) sum += p;
    EXPECT_DOUBLE_EQ(sum, 1.0);
    EXPECT_DOUBLE_EQ(pmf[0], 0.5);
    EXPECT_DOUBLE_EQ(pmf[4], 0.0625);       // 2^-(cap-1) atom
    EXPECT_DOUBLE_EQ(statmodel::mean_run_length(pmf), 1.9375);
}

TEST(RunLength, InverseCdfCoversSupport) {
    const auto pmf = statmodel::run_length_probs(5);
    EXPECT_EQ(run_length_from_uniform(pmf, 0.0), 1);
    EXPECT_EQ(run_length_from_uniform(pmf, 0.49), 1);
    EXPECT_EQ(run_length_from_uniform(pmf, 0.51), 2);
    EXPECT_EQ(run_length_from_uniform(pmf, 0.999), 5);
}

// ---------------------------------------------------------------------------
// Engines vs the statistical model (all deterministic: fixed seeds)

TEST(ImportanceSampling, AgreesWithStatmodelAtRarePoint) {
    // Mid-bit sampling with a 3% frequency offset: BER ~ 3e-11, far
    // beyond direct counting. The IS estimate must land inside its own
    // 95% CI around the closed-form value with rel err well under 0.3.
    statmodel::ModelConfig cfg;
    cfg.freq_offset = 0.03;
    const double sm = statmodel::ber_of(cfg);
    ASSERT_GT(sm, 0.0);
    ASSERT_LT(sm, 1e-10);

    AnalyticMarginModel model(cfg);
    ImportanceSampler::Config ic;
    ic.budget.target_rel_err = 0.1;
    ic.budget.max_evals = 1'500'000;
    ImportanceSampler is(model, ic);
    exec::ThreadPool pool(2);
    const McEstimate e = is.estimate(pool);
    EXPECT_TRUE(e.converged);
    EXPECT_LE(e.rel_err(), 0.3);
    EXPECT_TRUE(e.contains(sm))
        << "IS " << e.mean << " ci=[" << e.ci.lo << "," << e.ci.hi
        << "] statmodel " << sm;
}

TEST(ImportanceSampling, BitIdenticalAcrossThreadCounts) {
    statmodel::ModelConfig cfg;
    cfg.spec.sj_uipp = 0.20;
    cfg.sj_freq_norm = 0.5;
    AnalyticMarginModel model(cfg);
    ImportanceSampler::Config ic;
    ic.budget.target_rel_err = 0.15;
    ic.budget.max_evals = 600'000;
    ImportanceSampler is(model, ic);
    exec::ThreadPool serial(1);
    exec::ThreadPool wide(4);
    const McEstimate a = is.estimate(serial);
    const McEstimate b = is.estimate(wide);
    EXPECT_EQ(a.mean, b.mean);  // exact, not approximate
    EXPECT_EQ(a.std_err, b.std_err);
    EXPECT_EQ(a.n_samples, b.n_samples);
}

TEST(DirectSampler, MatchesStatmodelAtEasyPoint) {
    statmodel::ModelConfig cfg;
    cfg.spec.sj_uipp = 0.30;
    cfg.sj_freq_norm = 0.5;
    const double sm = statmodel::ber_of(cfg);
    AnalyticMarginModel model(cfg);
    DirectSampler::Config dc;
    dc.budget.max_evals = 1u << 18;
    DirectSampler direct(model, dc);
    exec::ThreadPool pool(2);
    const McEstimate e = direct.estimate(pool);
    // Unbiased control: the exact-CP interval around the counted
    // fraction must cover the closed-form value (the statmodel's grid
    // discretization sits well inside the ~10% interval here).
    EXPECT_TRUE(e.contains(sm))
        << "direct " << e.mean << " ci=[" << e.ci.lo << "," << e.ci.hi
        << "] statmodel " << sm;
    EXPECT_GT(e.mean, 0.0);
}

TEST(DirectSampler, BitIdenticalAcrossThreadCounts) {
    statmodel::ModelConfig cfg;
    cfg.spec.sj_uipp = 0.30;
    cfg.sj_freq_norm = 0.5;
    AnalyticMarginModel model(cfg);
    DirectSampler::Config dc;
    dc.budget.max_evals = 1u << 16;
    DirectSampler direct(model, dc);
    exec::ThreadPool serial(1);
    exec::ThreadPool wide(4);
    const McEstimate a = direct.estimate(serial);
    const McEstimate b = direct.estimate(wide);
    EXPECT_EQ(a.mean, b.mean);
    EXPECT_EQ(a.n_samples, b.n_samples);
}

TEST(Splitting, OrderOfMagnitudeAtRarePoint) {
    // Splitting's CI is approximate (chain correlation), so the gate is
    // deliberately coarse: within a factor of 6 of the closed form at a
    // ~3e-7 point, under the default fixed seed.
    statmodel::ModelConfig cfg;
    cfg.spec.sj_uipp = 0.20;
    cfg.sj_freq_norm = 0.5;
    const double sm = statmodel::ber_of(cfg);
    AnalyticMarginModel model(cfg);
    SplittingEngine::Config sc;
    sc.budget.max_evals = 400'000;
    SplittingEngine split(model, sc);
    exec::ThreadPool pool(2);
    const McEstimate e = split.estimate(pool);
    EXPECT_GT(e.mean, sm / 6.0);
    EXPECT_LT(e.mean, sm * 6.0);
}

TEST(Splitting, BitIdenticalAcrossThreadCounts) {
    statmodel::ModelConfig cfg;
    cfg.spec.sj_uipp = 0.20;
    cfg.sj_freq_norm = 0.5;
    AnalyticMarginModel model(cfg);
    SplittingEngine::Config sc;
    sc.budget.max_evals = 200'000;
    SplittingEngine split(model, sc);
    exec::ThreadPool serial(1);
    exec::ThreadPool wide(4);
    const McEstimate a = split.estimate(serial);
    const McEstimate b = split.estimate(wide);
    EXPECT_EQ(a.mean, b.mean);
    EXPECT_EQ(a.n_samples, b.n_samples);
}

// ---------------------------------------------------------------------------
// Behavioral engines on both kernels: the batched SoA kernel must give the
// scalar event kernel's estimate exactly, at any thread count, and every
// evaluation of a BehavioralMarginModel must run on the batch kernel.

BehavioralMarginModel::Params sj030_params() {
    statmodel::ModelConfig cfg;
    cfg.spec.sj_uipp = 0.30;
    cfg.sj_freq_norm = 0.5;
    return BehavioralMarginModel::params_from(cfg);
}

/// The event-kernel reference: margin_ui forwards to the behavioral
/// model's event kernel, and MarginModel's per-sample margin_ui_batch
/// keeps every evaluation there.
class EventKernelOracle : public MarginModel {
public:
    explicit EventKernelOracle(const BehavioralMarginModel& model)
        : model_(model) {}
    [[nodiscard]] double margin_ui(const RunSample& s) const override {
        return model_.margin_ui(s);
    }
    [[nodiscard]] int max_run_length() const override {
        return model_.max_run_length();
    }

private:
    const BehavioralMarginModel& model_;
};

void expect_same_estimate(const McEstimate& a, const McEstimate& b) {
    EXPECT_EQ(a.mean, b.mean);
    EXPECT_EQ(a.std_err, b.std_err);
    EXPECT_EQ(a.ci.lo, b.ci.lo);
    EXPECT_EQ(a.ci.hi, b.ci.hi);
    EXPECT_EQ(a.n_samples, b.n_samples);
}

SplittingEngine::Config small_split_config() {
    SplittingEngine::Config sc;
    sc.n_particles = 128;
    sc.budget.max_evals = 600;
    return sc;
}

DirectSampler::Config small_direct_config() {
    DirectSampler::Config dc;
    dc.runs_per_round = 640;
    dc.budget.max_evals = 1280;
    return dc;
}

TEST(Splitting, BehavioralBatchedOracleMatchesScalar) {
    const BehavioralMarginModel reference(sj030_params());
    const EventKernelOracle scalar(reference);
    const BehavioralMarginModel batched(sj030_params());
    exec::ThreadPool pool(4);
    const McEstimate a =
        SplittingEngine(scalar, small_split_config()).estimate(pool);
    const McEstimate b =
        SplittingEngine(batched, small_split_config()).estimate(pool);
    expect_same_estimate(a, b);
    EXPECT_GT(b.n_samples, 128u);  // pCN levels ran, not only level 0
    EXPECT_EQ(batched.batch_stats().evals.load(), b.n_samples);
    EXPECT_EQ(reference.batch_stats().evals.load(), 0u);
}

TEST(Splitting, BehavioralBitIdenticalAcrossThreadCounts) {
    const BehavioralMarginModel beh(sj030_params());
    const SplittingEngine split(beh, small_split_config());
    exec::ThreadPool serial(1);
    exec::ThreadPool wide(4);
    expect_same_estimate(split.estimate(serial), split.estimate(wide));
}

TEST(DirectSampler, BehavioralBatchedOracleMatchesScalar) {
    const BehavioralMarginModel reference(sj030_params());
    const EventKernelOracle scalar(reference);
    const BehavioralMarginModel batched(sj030_params());
    exec::ThreadPool pool(4);
    const McEstimate a =
        DirectSampler(scalar, small_direct_config()).estimate(pool);
    const McEstimate b =
        DirectSampler(batched, small_direct_config()).estimate(pool);
    expect_same_estimate(a, b);
    EXPECT_EQ(b.n_samples, 1280u);
    EXPECT_EQ(batched.batch_stats().evals.load(), b.n_samples);
    EXPECT_EQ(reference.batch_stats().evals.load(), 0u);
}

TEST(DirectSampler, BehavioralBitIdenticalAcrossThreadCounts) {
    const BehavioralMarginModel beh(sj030_params());
    const DirectSampler direct(beh, small_direct_config());
    exec::ThreadPool serial(1);
    exec::ThreadPool wide(4);
    expect_same_estimate(direct.estimate(serial), direct.estimate(wide));
}

// ---------------------------------------------------------------------------
// Behavioral margin model (event-driven channel as the sampled oracle)

TEST(BehavioralModel, NominalRunsHaveHealthyMargins) {
    statmodel::ModelConfig cfg;
    BehavioralMarginModel beh(BehavioralMarginModel::params_from(cfg));
    RunSample s;  // all latent coordinates nominal
    for (int l = 1; l <= beh.max_run_length(); ++l) {
        s.run_length = l;
        s.noise_seed = 100 + static_cast<std::uint64_t>(l);
        EXPECT_GT(beh.margin_ui(s), 0.0) << "run length " << l;
    }
}

TEST(BehavioralModel, DeterministicReplayFromLatentState) {
    // Clone-and-restart contract: the margin is a pure function of
    // (latent vector, noise_seed) — two fresh evaluations bit-match.
    statmodel::ModelConfig cfg;
    cfg.spec.sj_uipp = 0.30;
    cfg.sj_freq_norm = 0.5;
    BehavioralMarginModel beh(BehavioralMarginModel::params_from(cfg));
    RunSample s;
    s.run_length = 3;
    s.u_dj = 0.1;
    s.z_edge = -1.5;
    s.u_phase = 0.7;
    s.noise_seed = 777;
    const double a = beh.margin_ui(s);
    const double b = beh.margin_ui(s);
    EXPECT_EQ(a, b);
}

TEST(BehavioralModel, DeepEdgeDisplacementFlipsTheBit) {
    // Push the closing edge far enough and the recovered word changes:
    // the indicator must report an error (negative margin).
    statmodel::ModelConfig cfg;
    BehavioralMarginModel beh(BehavioralMarginModel::params_from(cfg));
    RunSample s;
    s.run_length = 1;
    s.noise_seed = 5;
    s.z_edge = -30.0;  // -30 sigma of RJ ~ -0.63 UI: past the eye edge
    EXPECT_LT(beh.margin_ui(s), 0.0);
}

}  // namespace
}  // namespace gcdr::mc
