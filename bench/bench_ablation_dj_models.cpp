// Ablation: how the time-domain realization of the 0.4 UIpp deterministic
// jitter changes the behavioral results. All three DjModel variants have
// the Table 1 uniform PDF/bound; they differ in edge-to-edge correlation,
// which a retriggered CDR — unlike a sampling scope — cares about deeply:
//  - kTriangleSweep (default): slowly swept, tracked by the retrigger;
//  - kIsi: pattern-correlated (first-order ISI), partially tracked;
//  - kIndependent: white per-edge, the worst case — it also shrinks
//    single-bit pulses below tau and provokes EDET merge slips.

#include <algorithm>
#include <cstdio>

#include "bench_channel_run.hpp"

using namespace gcdr;

namespace {

struct Row {
    double eye_open;
    double mean_margin;
    double worst_margin;
    double ber;
    double xber;
};

Row run_model(jitter::DjModel model, double f_osc) {
    jitter::StreamParams sp;
    sp.spec = jitter::JitterSpec::paper_table1();
    sp.dj_model = model;
    const auto run = bench::run_prbs7(cdr::ChannelConfig::nominal(f_osc), sp,
                                      20000, 2005);
    const cdr::GccoChannel& ch = *run.channel;
    Row r{};
    r.eye_open = ch.eye().eye_opening_ui();
    r.worst_margin = 1.0;
    for (double m : ch.margins_ui()) {
        r.mean_margin += m;
        r.worst_margin = std::min(r.worst_margin, m);
    }
    r.mean_margin /= static_cast<double>(ch.margins_ui().size());
    r.ber = ch.measured_prbs_ber(encoding::PrbsOrder::kPrbs7);
    r.xber = ber::extrapolate_ber_from_margins(ch.margins_ui());
    return r;
}

const char* name_of(jitter::DjModel m) {
    switch (m) {
        case jitter::DjModel::kTriangleSweep: return "triangle sweep";
        case jitter::DjModel::kIsi: return "first-order ISI";
        case jitter::DjModel::kIndependent: return "independent";
    }
    return "?";
}

}  // namespace

int main(int argc, char** argv) {
    if (argc > 1) return bench::unknown_flag(argv[1]);  // takes no flags
    bench::header("Ablation", "deterministic-jitter realization (0.4 UIpp)");

    for (double f_osc : {2.5e9, 2.45e9}) {
        std::printf("\nOscillator %.3f GHz (%+.1f%% period offset):\n",
                    f_osc / 1e9, (2.5e9 / f_osc - 1.0) * 100);
        std::printf("%18s %10s %12s %12s %10s %10s\n", "DJ model", "eye[UI]",
                    "mean marg", "worst marg", "BER", "extrapBER");
        for (auto m : {jitter::DjModel::kTriangleSweep,
                       jitter::DjModel::kIsi,
                       jitter::DjModel::kIndependent}) {
            const auto r = run_model(m, f_osc);
            std::printf("%18s %10.3f %12.3f %12.3f %10.2g %10.2g\n",
                        name_of(m), r.eye_open, r.mean_margin,
                        r.worst_margin, r.ber, r.xber);
        }
    }
    std::printf(
        "\nReading: the retriggered CDR tracks correlated DJ almost\n"
        "entirely (sweep/ISI rows) but pays full price for white DJ —\n"
        "including EDET pulse-merge bit slips when two edges close to\n"
        "within tau. The paper's Table 1 spec behaves like the correlated\n"
        "rows; the independent row is this model's worst-case bound.\n");
    return 0;
}
