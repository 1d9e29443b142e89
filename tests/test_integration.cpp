// Cross-model integration tests: the statistical model (statmodel/) and
// the event-driven behavioral model (cdr/ on sim/) are independent
// implementations of the same system — they must agree on trends, and the
// full receiver must carry real 8b/10b payload end to end.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "ber/bert.hpp"
#include "cdr/channel.hpp"
#include "cdr/multichannel.hpp"
#include "encoding/enc8b10b.hpp"
#include "encoding/prbs.hpp"
#include "statmodel/gated_osc_model.hpp"

namespace gcdr {
namespace {

struct BehavioralRun {
    double mean_margin = 0.0;
    double worst_margin = 1.0;
    double ber = 0.0;
};

BehavioralRun run_channel(double f_osc, double sj_uipp, double sj_freq_hz,
                          bool improved, std::uint64_t seed = 33,
                          std::size_t n_bits = 12000) {
    sim::Scheduler sched;
    Rng rng(seed);
    auto cfg = cdr::ChannelConfig::nominal(f_osc);
    cfg.improved_sampling = improved;
    cdr::GccoChannel ch(sched, rng, cfg);
    encoding::PrbsGenerator gen(encoding::PrbsOrder::kPrbs7);
    jitter::StreamParams sp;
    sp.spec = jitter::JitterSpec::paper_table1();
    sp.spec.sj_uipp = sj_uipp;
    sp.spec.sj_freq_hz = sj_freq_hz;
    sp.start = SimTime::ns(4);
    ch.drive(jitter::jittered_edges(gen.bits(n_bits), sp, rng));
    sched.run_until(sp.start +
                    cfg.rate.ui_to_time(static_cast<double>(n_bits) - 4));
    BehavioralRun r;
    r.ber = ch.measured_prbs_ber(encoding::PrbsOrder::kPrbs7);
    for (double m : ch.margins_ui()) {
        r.mean_margin += m;
        r.worst_margin = std::min(r.worst_margin, m);
    }
    r.mean_margin /= static_cast<double>(ch.margins_ui().size());
    return r;
}

TEST(CrossModel, FrequencyOffsetTrendsAgree) {
    // Statistical: BER grows with |offset|; behavioral: worst margin
    // shrinks in lockstep.
    double prev_stat = 0.0;
    double prev_margin = 1.0;
    for (double off : {0.0, 0.02, 0.04}) {
        statmodel::ModelConfig cfg;
        cfg.grid_dx = 1e-3;
        cfg.max_cid = 7;
        cfg.freq_offset = off;
        const double stat_ber = statmodel::ber_of(cfg);
        EXPECT_GE(stat_ber, prev_stat * 0.999) << off;
        prev_stat = stat_ber;

        // Mean margin is the robust behavioral counterpart (the worst
        // margin is a single extreme draw).
        const auto beh = run_channel(2.5e9 / (1.0 + off), 0.0, 0.0, false);
        EXPECT_LE(beh.mean_margin, prev_margin + 0.005) << off;
        prev_margin = beh.mean_margin;
    }
}

TEST(CrossModel, SjFrequencyShapeAgrees) {
    // Low-frequency SJ of the same amplitude must hurt both models less
    // than near-rate SJ.
    statmodel::ModelConfig cfg;
    cfg.grid_dx = 1e-3;
    cfg.max_cid = 7;
    cfg.spec.sj_uipp = 0.5;
    cfg.sj_freq_norm = 1e-4;
    const double stat_low = statmodel::ber_of(cfg);
    cfg.sj_freq_norm = 0.1;
    const double stat_high = statmodel::ber_of(cfg);
    EXPECT_GT(stat_high, stat_low);

    const auto beh_low = run_channel(2.5e9, 0.5, 250e3, false);
    const auto beh_high = run_channel(2.5e9, 0.5, 250e6, false);
    EXPECT_LT(beh_high.worst_margin, beh_low.worst_margin);
}

TEST(CrossModel, ImprovedSamplingShiftMatchesTheoryWithin3Percent) {
    // Both models place the advanced sampling point T/8 earlier; the
    // behavioral mean margin must shift by the same amount the statistical
    // sample-instant arithmetic predicts.
    const auto base = run_channel(2.5e9, 0.0, 0.0, false);
    const auto improved = run_channel(2.5e9, 0.0, 0.0, true);
    EXPECT_NEAR(improved.mean_margin - base.mean_margin, 0.125, 0.03);
}

TEST(CrossModel, StatModelIsConservativeVsBehavioralAtDesignPoint) {
    // The statistical model books the full Table 1 DJ once per run; the
    // behavioral triangle-sweep DJ is tracked by the retrigger. So the
    // statistical BER must upper-bound the behavioral extrapolation at the
    // design point.
    statmodel::ModelConfig cfg;
    cfg.grid_dx = 1e-3;
    cfg.max_cid = 7;
    const double stat_ber = statmodel::ber_of(cfg);

    sim::Scheduler sched;
    Rng rng(3);
    auto ch_cfg = cdr::ChannelConfig::nominal(2.5e9);
    cdr::GccoChannel ch(sched, rng, ch_cfg);
    encoding::PrbsGenerator gen(encoding::PrbsOrder::kPrbs7);
    jitter::StreamParams sp;
    sp.spec = jitter::JitterSpec::paper_table1();
    sp.start = SimTime::ns(4);
    ch.drive(jitter::jittered_edges(gen.bits(20000), sp, rng));
    sched.run_until(sp.start + ch_cfg.rate.ui_to_time(19996.0));
    const double beh_ber =
        ber::extrapolate_ber_from_margins(ch.margins_ui());
    EXPECT_LE(beh_ber, std::max(stat_ber, 1e-12) * 1e3);
}

TEST(MultiChannel, FourLanesRecoverSkewedPayload) {
    Rng rng(17);  // drives the lane payload jitter realizations
    auto cfg = cdr::MultiChannelConfig::paper_receiver();
    cdr::MultiChannelCdr rx(/*seed=*/17, cfg);
    ASSERT_NEAR(rx.pll().vco_frequency_hz(), 2.5e9, 2.5e9 * 1e-5);

    const SimTime skews[4] = {SimTime::ps(0), SimTime::ps(610),
                              SimTime::ps(1240), SimTime::ps(90)};
    std::vector<std::vector<bool>> tx(4);
    for (int lane = 0; lane < 4; ++lane) {
        encoding::PrbsGenerator gen(encoding::PrbsOrder::kPrbs7,
                                    17 + lane);
        tx[lane] = gen.bits(4000);
        jitter::StreamParams sp;
        sp.spec = jitter::JitterSpec::paper_table1();
        sp.start = SimTime::ns(4) + skews[lane];
        rx.drive(lane, jitter::jittered_edges(tx[lane], sp, rng));
    }
    rx.run_until(SimTime::ns(4) + kPaperRate.ui_to_time(3990));
    for (int lane = 0; lane < 4; ++lane) {
        EXPECT_LT(rx.channel(lane).measured_prbs_ber(
                      encoding::PrbsOrder::kPrbs7),
                  1e-3)
            << "lane " << lane;
        EXPECT_GT(rx.channel(lane).decisions().size(), 3000u);
    }
}

TEST(MultiChannel, ElasticDrainPreservesStreams) {
    Rng rng(19);
    auto cfg = cdr::MultiChannelConfig::paper_receiver();
    cfg.n_channels = 2;
    cdr::MultiChannelCdr rx(/*seed=*/19, cfg);
    for (int lane = 0; lane < 2; ++lane) {
        encoding::PrbsGenerator gen(encoding::PrbsOrder::kPrbs7, 5 + lane);
        jitter::StreamParams sp;
        sp.start = SimTime::ns(4);
        rx.drive(lane, jitter::jittered_edges(gen.bits(2000), sp, rng));
    }
    rx.run_until(SimTime::ns(4) + kPaperRate.ui_to_time(1996));
    const auto lanes = rx.drain_elastic();
    for (int lane = 0; lane < 2; ++lane) {
        // All recovered bits present after the priming zeros.
        EXPECT_GE(lanes[lane].size(),
                  rx.channel(lane).decisions().size());
        EXPECT_EQ(rx.elastic(lane).overflows(), 0u);
    }
}

TEST(EndToEnd, EncodedPayloadSurvivesChannelAndDecode) {
    // 8b/10b bytes -> serializer -> jittered channel -> CDR -> comma
    // alignment -> decoder: the payload must round-trip.
    sim::Scheduler sched;
    Rng rng(23);
    auto cfg = cdr::ChannelConfig::nominal(2.4995e9);  // -200 ppm
    cdr::GccoChannel ch(sched, rng, cfg);

    encoding::Encoder8b10b enc;
    std::vector<encoding::CodePoint> cps;
    for (int i = 0; i < 6; ++i) cps.push_back(encoding::kK28_5);
    const std::string payload = "gated oscillator";
    for (char c : payload) {
        cps.push_back({static_cast<std::uint8_t>(c), false});
    }
    for (int i = 0; i < 4; ++i) cps.push_back(encoding::kK28_5);
    const auto bits = enc.encode_stream(cps);

    jitter::StreamParams sp;
    sp.spec = jitter::JitterSpec::paper_table1();
    sp.start = SimTime::ns(4);
    ch.drive(jitter::jittered_edges(bits, sp, rng));
    sched.run_until(sp.start +
                    cfg.rate.ui_to_time(static_cast<double>(bits.size())));

    const auto rec = ch.recovered_bits();
    const auto align = encoding::find_comma_alignment(rec);
    ASSERT_TRUE(align.has_value());
    encoding::Decoder8b10b dec;
    std::string text;
    for (std::size_t i = *align; i + 10 <= rec.size(); i += 10) {
        std::uint16_t sym = 0;
        for (int b = 0; b < 10; ++b) {
            sym = static_cast<std::uint16_t>((sym << 1) | rec[i + b]);
        }
        const auto res = dec.decode(sym);
        if (res && !res->code.is_control &&
            std::isprint(res->code.byte)) {
            text.push_back(static_cast<char>(res->code.byte));
        }
    }
    EXPECT_NE(text.find(payload), std::string::npos) << "got: " << text;
}

}  // namespace
}  // namespace gcdr
