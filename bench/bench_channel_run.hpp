#pragma once
// The one behavioral channel run of the figure benches (Figs 13, 14 and
// 16, the FTOL scan, the DJ-model ablation): n_bits of jittered PRBS7
// through one cdr::GccoChannel on its own Scheduler and Rng, plus the
// eye report Figs 14 and 16 print.

#include <algorithm>
#include <cstdio>
#include <memory>

#include "ber/bert.hpp"
#include "bench_common.hpp"
#include "cdr/channel.hpp"
#include "encoding/prbs.hpp"
#include "jitter/jitter.hpp"

namespace gcdr::bench {

/// A finished run. The channel keeps references to its Scheduler and
/// Rng, so the three are held together; the channel is destroyed first.
struct ChannelRun {
    std::unique_ptr<sim::Scheduler> sched;
    std::unique_ptr<Rng> rng;
    std::unique_ptr<cdr::GccoChannel> channel;
};

/// Drive `n_bits` of PRBS7, jittered by `sp` (whose start becomes 4 ns),
/// through a channel built from `cfg` and run it to n_bits - 4 UI past
/// the start. The channel is built before the edges are drawn from the
/// same Rng(seed); that order is part of every result.
inline ChannelRun run_prbs7(const cdr::ChannelConfig& cfg,
                            jitter::StreamParams sp, std::size_t n_bits,
                            std::uint64_t seed) {
    ChannelRun r;
    sp.start = SimTime::ns(4);
    r.sched = std::make_unique<sim::Scheduler>();
    r.rng = std::make_unique<Rng>(seed);
    r.channel = std::make_unique<cdr::GccoChannel>(*r.sched, *r.rng, cfg);
    encoding::PrbsGenerator gen(encoding::PrbsOrder::kPrbs7);
    r.channel->drive(jitter::jittered_edges(gen.bits(n_bits), sp, *r.rng));
    r.sched->run_until(sp.start + cfg.rate.ui_to_time(
                                      static_cast<double>(n_bits) - 4));
    return r;
}

/// Figs 14 and 16's stress condition: 25k unit intervals of PRBS7 with
/// the CCO free-running at 2.375 GHz against 2.5 Gb/s data (-5%
/// frequency), sinusoidal jitter 0.10 UIpp at 250 MHz, plus the Table 1
/// DJ/RJ/CKJ budget.
inline ChannelRun run_fig14_conditions(bool improved_sampling) {
    cdr::ChannelConfig cfg = cdr::ChannelConfig::nominal(2.375e9);
    cfg.improved_sampling = improved_sampling;
    cfg.eye_bins = 128;
    jitter::StreamParams sp;
    sp.spec = jitter::JitterSpec::paper_table1();
    sp.spec.sj_uipp = 0.10;
    sp.spec.sj_freq_hz = 250e6;
    return run_prbs7(cfg, sp, 25000, 2005);
}

inline void print_eye_report(const cdr::GccoChannel& ch) {
    const auto& eye = ch.eye();
    section("clock-aligned eye (sampling instant at the left edge, 1 UI)");
    std::printf("%s", eye.ascii_art(10, 0.0).c_str());

    section("eye metrics");
    std::printf("transitions folded : %llu\n",
                static_cast<unsigned long long>(eye.total_transitions()));
    std::printf("eye opening (hits) : %.3f UI\n", eye.eye_opening_ui());
    std::printf("eye center         : %.3f UI\n", eye.eye_center_ui());
    std::printf("opening at 1e-12   : %.3f UI (dual-Dirac edge fit)\n",
                eye.eye_opening_at_ber(1e-12));

    section("margins and BER");
    const auto& margins = ch.margins_ui();
    double mean = 0.0, worst = 1.0;
    for (double m : margins) {
        mean += m;
        worst = std::min(worst, m);
    }
    if (!margins.empty()) mean /= static_cast<double>(margins.size());
    std::printf("closing-edge margin: mean %.3f UI, worst %.3f UI\n", mean,
                worst);
    std::printf("counted BER        : %.3g\n",
                ch.measured_prbs_ber(encoding::PrbsOrder::kPrbs7));
    std::printf("extrapolated BER   : %.3g (margin tail fit)\n",
                ber::extrapolate_ber_from_margins(margins));
}

}  // namespace gcdr::bench
