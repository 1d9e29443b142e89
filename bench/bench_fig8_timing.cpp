// Fig 8 — "Timing diagram of GCCO".
// Prints the paper figure as an ASCII waveform (DIN, EDET, DDIN, ring
// nodes, CKOUT around a resynchronizing edge) and the delay from each
// EDET release to the next CKOUT rise, which the figure puts at T/2. It
// runs one 12-bit jitter-free scalar channel on its own scheduler.
//
// The measured half of the figure is scenarios/fig8_timing.json: one lane
// under in-situ health monitors, driven by the figure's 1100101111(01)
// pattern tiled 150x so the monitors complete enough 64-sample windows to
// lock.
//   bench_scenario --scenario scenarios/fig8_timing.json --json out.json

#include <cstdio>

#include "bench_common.hpp"
#include "cdr/channel.hpp"
#include "sim/vcd.hpp"

using namespace gcdr;

int main(int argc, char** argv) {
    if (argc > 1) return bench::unknown_flag(argv[1]);  // takes no flags
    bench::header("Fig 8", "timing diagram of the gated oscillator");

    sim::Scheduler sched;
    Rng rng(3);
    cdr::ChannelConfig cfg = cdr::ChannelConfig::nominal(2.5e9, 0.0);
    cfg.gcco.jitter_sigma = 0.0;
    cfg.edge_detector.cell_jitter_rel = 0.0;
    cdr::GccoChannel ch(sched, rng, cfg);

    sim::VcdWriter vcd;
    vcd.watch(ch.din());
    vcd.watch(ch.edge_detector().edet());
    vcd.watch(ch.edge_detector().ddin());
    vcd.watch(ch.gcco().stage(0));
    vcd.watch(ch.gcco().stage(3));
    vcd.watch(ch.gcco().ckout());

    const std::vector<bool> bits{1, 1, 0, 0, 1, 0, 1, 1, 1, 1, 0, 1};
    jitter::StreamParams sp;
    sp.spec = jitter::JitterSpec{};
    sp.spec.dj_uipp = sp.spec.rj_uirms = sp.spec.ckj_uirms = 0.0;
    sp.start = SimTime::ns(4);
    Rng stream_rng(1);
    ch.drive(jitter::jittered_edges(bits, sp, stream_rng));
    sched.run_until(SimTime::ns(4) + kPaperRate.ui_to_time(12));

    bench::section(
        "waveforms (window: 2 UI before the first edge .. bit 12)");
    std::printf("%s\n",
                vcd.ascii_diagram(SimTime::ns(4) - SimTime::ps(800),
                                  SimTime::ns(4) + kPaperRate.ui_to_time(12),
                                  112)
                    .c_str());
    std::printf(
        "Reading the diagram (as in Fig 8): EDET drops for tau after "
        "each\nDIN edge; the ring freezes within T/2; CKOUT rises T/2 "
        "after the\nEDET release, i.e. mid-bit of the delayed data "
        "DDIN.\n");

    bench::section(
        "recovered-clock rise after each EDET release (expected: T/2)");
    const auto rises = vcd.edges_of("ch0_gcco_ckout", true);
    const auto releases = vcd.edges_of("ch0_ed_edet", true);
    std::printf("%18s %16s %12s\n", "EDET release [ps]", "CK rise [ps]",
                "delta [UI]");
    for (SimTime rel : releases) {
        for (SimTime r : rises) {
            if (r > rel) {
                std::printf("%18.1f %16.1f %12.3f\n", rel.picoseconds(),
                            r.picoseconds(),
                            kPaperRate.time_to_ui(r - rel));
                break;
            }
        }
    }
    return 0;
}
