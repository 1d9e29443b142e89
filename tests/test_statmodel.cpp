// Tests for statmodel/: the statistical BER model's qualitative behaviour
// must match the paper's findings — low-frequency SJ is harmless to the
// gated-oscillator topology, near-rate SJ is not (Fig 9); frequency offset
// degrades BER through CID accumulation (Fig 10); the advanced sampling
// point recovers margin (Fig 17).

#include <gtest/gtest.h>

#include <cmath>
#include <functional>
#include <limits>
#include <stdexcept>
#include <string>
#include <vector>

#include "exec/thread_pool.hpp"
#include "statmodel/gated_osc_model.hpp"

namespace gcdr::statmodel {
namespace {

ModelConfig base_config() {
    ModelConfig cfg;  // Table 1 jitter, CID cap 5, mid-bit sampling
    return cfg;
}

TEST(StatModel, CleanChannelIsErrorFree) {
    ModelConfig cfg = base_config();
    cfg.spec.dj_uipp = 0.0;
    cfg.spec.rj_uirms = 0.0;
    cfg.spec.ckj_uirms = 0.001;
    EXPECT_LT(ber_of(cfg), 1e-30);
}

TEST(StatModel, Table1BudgetMeetsTargetWithoutSj) {
    // The design point: Table 1 DJ/RJ/CKJ with no sinusoidal jitter must
    // clear 1e-12 comfortably (the margin the paper's Fig 9 shows).
    EXPECT_LT(ber_of(base_config()), 1e-12);
}

TEST(StatModel, BerIncreasesWithSjAmplitude) {
    ModelConfig cfg = base_config();
    cfg.sj_freq_norm = 0.1;
    double prev = 0.0;
    for (double amp : {0.0, 0.1, 0.2, 0.4, 0.8}) {
        cfg.spec.sj_uipp = amp;
        const double b = ber_of(cfg);
        EXPECT_GE(b, prev * 0.999) << "amp " << amp;
        prev = b;
    }
    EXPECT_GT(prev, 1e-12);  // 0.8 UIpp near-rate SJ must close the eye
}

TEST(StatModel, LowFrequencySjIsHarmless) {
    // f_SJ/f_data = 1e-4: over a 5-bit run the sinusoid barely moves, so
    // even a huge amplitude is tracked by the retriggering.
    ModelConfig cfg = base_config();
    cfg.spec.sj_uipp = 10.0;
    cfg.sj_freq_norm = 1e-4;
    EXPECT_LT(ber_of(cfg), 1e-12);
}

TEST(StatModel, NearRateSjIsHarmful) {
    ModelConfig cfg = base_config();
    cfg.spec.sj_uipp = 0.5;
    cfg.sj_freq_norm = 0.1;  // accumulates visibly over a run
    const double near_rate = ber_of(cfg);
    cfg.sj_freq_norm = 1e-4;
    const double low_freq = ber_of(cfg);
    EXPECT_GT(near_rate, low_freq * 1e3);
}

TEST(StatModel, SjEffectDependsOnRunLengthResonance) {
    // At f_norm = 1/L the closing edge of an L-run sees zero effective SJ
    // (sin(pi * f * L) = 0); compare with f_norm = 1/(2L) (maximum).
    ModelConfig cfg = base_config();
    cfg.run_model = RunModel::kWorstCase;
    cfg.max_cid = 4;
    cfg.spec.sj_uipp = 0.6;
    cfg.sj_freq_norm = 1.0 / 4.0;  // null for L = 4
    const double at_null = ber_of(cfg);
    cfg.sj_freq_norm = 1.0 / 8.0;  // peak for L = 4
    const double at_peak = ber_of(cfg);
    EXPECT_GT(at_peak, at_null * 10.0);
}

TEST(StatModel, FrequencyOffsetDegradesBer) {
    ModelConfig cfg = base_config();
    cfg.spec.sj_uipp = 0.2;
    cfg.sj_freq_norm = 0.1;
    const double no_off = ber_of(cfg);
    cfg.freq_offset = 0.01;  // the paper's 1% case (Fig 10)
    const double with_off = ber_of(cfg);
    EXPECT_GT(with_off, no_off);
}

TEST(StatModel, OffsetSignMattersAtMidBitSampling) {
    // A slow oscillator (delta > 0) drifts the sample toward the closing
    // edge; a fast one drifts it away (toward the freshly-triggered edge,
    // which is clean). Slow must therefore be worse.
    ModelConfig cfg = base_config();
    cfg.spec.sj_uipp = 0.3;
    cfg.sj_freq_norm = 0.1;
    cfg.freq_offset = +0.02;
    const double slow = ber_of(cfg);
    cfg.freq_offset = -0.02;
    const double fast = ber_of(cfg);
    EXPECT_GT(slow, fast);
}

TEST(StatModel, ImprovedSamplingHelpsUnderPositiveOffset) {
    // Fig 17 vs Fig 10: the T/8 advance restores margin against the
    // accumulated drift at the run end.
    ModelConfig cfg = base_config();
    cfg.spec.sj_uipp = 0.3;
    cfg.sj_freq_norm = 0.1;
    cfg.freq_offset = 0.01;
    const double mid_bit = ber_of(cfg);
    cfg.sampling_advance_ui = 1.0 / 8.0;
    const double advanced = ber_of(cfg);
    EXPECT_LT(advanced, mid_bit);
}

TEST(StatModel, LongerCidCapIsWorse) {
    // PRBS7 (cap 7) stresses the design harder than 8b/10b (cap 5) — the
    // reason the paper's eye diagrams are conservative (Sec. 3.3b).
    ModelConfig cfg = base_config();
    cfg.spec.sj_uipp = 0.3;
    cfg.sj_freq_norm = 0.07;
    cfg.freq_offset = 0.01;
    cfg.max_cid = 5;
    const double cid5 = ber_of(cfg);
    cfg.max_cid = 7;
    const double cid7 = ber_of(cfg);
    EXPECT_GT(cid7, cid5);
}

TEST(StatModel, WorstCaseBoundsWeighted) {
    ModelConfig cfg = base_config();
    cfg.spec.sj_uipp = 0.4;
    cfg.sj_freq_norm = 0.09;
    cfg.run_model = RunModel::kWeighted;
    const double weighted = ber_of(cfg);
    cfg.run_model = RunModel::kWorstCase;
    const double worst = ber_of(cfg);
    EXPECT_GE(worst, weighted);
}

TEST(StatModel, EarlyErrorNegligibleAtMidBit) {
    GatedOscStatModel m(base_config());
    EXPECT_LT(m.early_error_prob(), 1e-30);
}

TEST(StatModel, LateErrorGrowsWithRunLength) {
    ModelConfig cfg = base_config();
    cfg.freq_offset = 0.02;
    cfg.max_cid = 7;
    GatedOscStatModel m(cfg);
    EXPECT_LT(m.late_error_prob(1), m.late_error_prob(5));
    EXPECT_LE(m.late_error_prob(5), m.late_error_prob(7));
}

TEST(StatModel, EyeMarginPositiveAtDesignPoint) {
    GatedOscStatModel m(base_config());
    EXPECT_GT(m.eye_margin_ui(1e-12), 0.0);
}

TEST(StatModel, EyeMarginShrinksWithOffset) {
    ModelConfig cfg = base_config();
    GatedOscStatModel m0(cfg);
    cfg.freq_offset = 0.02;
    GatedOscStatModel m1(cfg);
    EXPECT_LT(m1.eye_margin_ui(), m0.eye_margin_ui());
}

TEST(Jtol, ToleranceIsLargeAtLowFrequencyAndDropsNearRate) {
    const ModelConfig cfg = base_config();
    const double lo = jtol_amplitude(cfg, 1e-4);
    const double hi = jtol_amplitude(cfg, 0.2);
    EXPECT_GT(lo, 10.0);
    EXPECT_LT(hi, 2.0);
    EXPECT_GT(hi, 0.0);
}

TEST(Jtol, CurveHasOnePointPerFrequency) {
    const auto curve =
        jtol_curve(base_config(), {1e-3, 1e-2, 1e-1}, kPaperRate);
    ASSERT_EQ(curve.size(), 3u);
    EXPECT_NEAR(curve[0].freq_hz, 2.5e6, 1.0);
    EXPECT_GE(curve[0].amp_uipp, curve[2].amp_uipp);
}

TEST(StatModel, PruneFloorLeavesBerUnchanged) {
    // A 1e-18 density floor sits ~5 decades below anything the 1e-12 BER
    // integral touches; enabling it must not move the answer measurably.
    ModelConfig cfg = base_config();
    cfg.spec.sj_uipp = 0.3;      // stressed enough that BER is far from 0
    cfg.sj_freq_norm = 0.1;
    const double reference = ber_of(cfg);
    cfg.pdf_prune_floor = 1e-18;
    const double pruned = ber_of(cfg);
    ASSERT_GT(reference, 0.0);
    EXPECT_NEAR(pruned / reference, 1.0, 1e-9);
}

TEST(Ftol, PositiveAndDegradedByJitter) {
    ModelConfig cfg = base_config();
    const double clean_tol = ftol(cfg);
    EXPECT_GT(clean_tol, 0.0);
    cfg.spec.sj_uipp = 0.3;
    cfg.sj_freq_norm = 0.1;
    const double jittery_tol = ftol(cfg);
    EXPECT_LE(jittery_tol, clean_tol);
}

TEST(Ftol, ImprovedSamplingExtendsPositiveOffsetTolerance) {
    ModelConfig cfg = base_config();
    cfg.spec.sj_uipp = 0.2;
    cfg.sj_freq_norm = 0.1;
    const double base_tol = ftol(cfg);
    cfg.sampling_advance_ui = 1.0 / 8.0;
    const double improved_tol = ftol(cfg);
    EXPECT_GE(improved_tol, base_tol);
}

// --- PDF reuse: one model per search ------------------------------------

/// A field edit applied to a config, named for failure messages.
struct ConfigEdit {
    const char* field;
    std::function<void(ModelConfig&)> apply;
};

ModelConfig stressed_config() {
    // SJ on, so every late-error term takes the 512-phase average and the
    // BER sits well above zero (0 == 0 would prove nothing).
    ModelConfig cfg = base_config();
    cfg.spec.sj_uipp = 0.3;
    cfg.sj_freq_norm = 0.1;
    return cfg;
}

TEST(ModelReuse, BerAtReusesPdfsBitIdenticallyForIntegrationFields) {
    const ModelConfig base = stressed_config();
    const GatedOscStatModel model(base);
    ASSERT_GT(model.ber(), 0.0);
    EXPECT_EQ(model.ber_at(base), ber_of(base));
    const ConfigEdit edits[] = {
        {"sj_uipp", [](ModelConfig& c) { c.spec.sj_uipp = 0.55; }},
        {"sj_uipp = 0", [](ModelConfig& c) { c.spec.sj_uipp = 0.0; }},
        {"sj_freq_norm", [](ModelConfig& c) { c.sj_freq_norm = 0.23; }},
        {"sj_freq_hz", [](ModelConfig& c) { c.spec.sj_freq_hz = 2.5e8; }},
        {"freq_offset", [](ModelConfig& c) { c.freq_offset = 0.013; }},
        {"negative freq_offset",
         [](ModelConfig& c) { c.freq_offset = -0.02; }},
        {"trigger_mismatch_uirms",
         [](ModelConfig& c) { c.trigger_mismatch_uirms = 0.2; }},
        {"run_model",
         [](ModelConfig& c) { c.run_model = RunModel::kWorstCase; }},
        {"all at once",
         [](ModelConfig& c) {
             c.spec.sj_uipp = 0.7;
             c.sj_freq_norm = 0.31;
             c.freq_offset = 0.02;
             c.trigger_mismatch_uirms = 0.05;
             c.run_model = RunModel::kWorstCase;
         }},
    };
    for (const ConfigEdit& e : edits) {
        ModelConfig point = base;
        e.apply(point);
        EXPECT_TRUE(model.shares_pdfs(point)) << e.field;
        EXPECT_EQ(model.ber_at(point), ber_of(point)) << e.field;
    }
}

TEST(ModelReuse, BerAtFallsBackForPdfShapingFields) {
    const ModelConfig base = stressed_config();
    const GatedOscStatModel model(base);
    const ConfigEdit edits[] = {
        {"dj_uipp", [](ModelConfig& c) { c.spec.dj_uipp = 0.3; }},
        {"rj_uirms", [](ModelConfig& c) { c.spec.rj_uirms = 0.025; }},
        {"ckj_uirms", [](ModelConfig& c) { c.spec.ckj_uirms = 0.02; }},
        {"sampling_advance_ui",
         [](ModelConfig& c) { c.sampling_advance_ui = 0.125; }},
        {"max_cid", [](ModelConfig& c) { c.max_cid = 7; }},
        {"cid_ref", [](ModelConfig& c) { c.cid_ref = 3; }},
        {"grid_dx", [](ModelConfig& c) { c.grid_dx = 1e-3; }},
        {"pdf_prune_floor",
         [](ModelConfig& c) { c.pdf_prune_floor = 1e-18; }},
    };
    for (const ConfigEdit& e : edits) {
        ModelConfig point = base;
        e.apply(point);
        EXPECT_FALSE(model.shares_pdfs(point)) << e.field;
        const double ber = ber_of(point);
        EXPECT_GT(ber, 0.0) << e.field;
        EXPECT_EQ(model.ber_at(point), ber) << e.field;
    }
}

TEST(ModelReuse, LateErrorProbRejectsRunLengthsWithoutAPdf) {
    const GatedOscStatModel m(base_config());
    EXPECT_THROW((void)m.late_error_prob(0), std::out_of_range);
    EXPECT_THROW((void)m.late_error_prob(6), std::out_of_range);
    EXPECT_NO_THROW((void)m.late_error_prob(5));
}

TEST(Jtol, PooledCurveMatchesSerialSearchesBitForBit) {
    // All lanes read one shared model; each lane's bisection must land on
    // exactly the amplitude a serial, model-per-search run finds.
    const ModelConfig cfg = base_config();
    const std::vector<double> freqs = {1e-3, 0.02, 0.1, 0.2, 0.35, 0.5};
    exec::ThreadPool pool(4);
    const auto curve = jtol_curve(cfg, freqs, kPaperRate, 1e-12, &pool);
    ASSERT_EQ(curve.size(), freqs.size());
    for (std::size_t i = 0; i < freqs.size(); ++i) {
        EXPECT_EQ(curve[i].amp_uipp, jtol_amplitude(cfg, freqs[i]))
            << "f/fd = " << freqs[i];
    }
}

// --- config checks for outside input -------------------------------------

TEST(ModelConfigCheck, AcceptsCommittedConfigs) {
    EXPECT_EQ(check_model_config(base_config()), "");
    // The widest committed budget: statmodel_sweep's +15% terms at the
    // default grid, with the longest run any parser admits.
    ModelConfig wide = base_config();
    wide.spec.dj_uipp = 0.46;
    wide.spec.rj_uirms = 0.02415;
    wide.spec.ckj_uirms = 0.0115;
    wide.spec.sj_uipp = 100.0;  // SJ is phase-averaged, never gridded
    wide.max_cid = 16;
    EXPECT_EQ(check_model_config(wide), "");
}

TEST(ModelConfigCheck, RejectsWhatGridPdfCannotHold) {
    constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
    const struct {
        ConfigEdit edit;
        const char* expect;  ///< prefix of the reason
    } rows[] = {
        {{"grid_dx = 0", [](ModelConfig& c) { c.grid_dx = 0.0; }},
         "grid_dx: want > 0"},
        {{"negative grid_dx", [](ModelConfig& c) { c.grid_dx = -1e-3; }},
         "grid_dx: want > 0"},
        {{"NaN grid_dx", [](ModelConfig& c) { c.grid_dx = kNaN; }},
         "grid_dx: want > 0"},
        {{"negative dj", [](ModelConfig& c) { c.spec.dj_uipp = -0.1; }},
         "dj_uipp: want >= 0"},
        {{"negative rj", [](ModelConfig& c) { c.spec.rj_uirms = -0.01; }},
         "rj_uirms: want >= 0"},
        {{"negative sj", [](ModelConfig& c) { c.spec.sj_uipp = -0.2; }},
         "sj_uipp: want >= 0"},
        {{"negative ckj", [](ModelConfig& c) { c.spec.ckj_uirms = -1e-3; }},
         "ckj_uirms: want >= 0"},
        {{"NaN rj", [](ModelConfig& c) { c.spec.rj_uirms = kNaN; }},
         "rj_uirms: want >= 0"},
        {{"max_cid = 0", [](ModelConfig& c) { c.max_cid = 0; }},
         "max_cid: want >= 1"},
        {{"cid_ref = 0", [](ModelConfig& c) { c.cid_ref = 0; }},
         "cid_ref: want >= 1"},
        {{"1e-9 grid", [](ModelConfig& c) { c.grid_dx = 1e-9; }},
         "grid_dx: too fine for the jitter budget"},
        {{"grid just over the cap",
          [](ModelConfig& c) { c.grid_dx = 2.5e-5; }},
         "grid_dx: too fine for the jitter budget"},
        {{"huge RJ", [](ModelConfig& c) { c.spec.rj_uirms = 5.0; }},
         "grid_dx: too fine for the jitter budget"},
    };
    for (const auto& row : rows) {
        ModelConfig cfg = base_config();
        row.edit.apply(cfg);
        const std::string why = check_model_config(cfg);
        EXPECT_EQ(why.rfind(row.expect, 0), 0u)
            << row.edit.field << ": got \"" << why << "\"";
    }
}

}  // namespace
}  // namespace gcdr::statmodel
