// Ablation: bathtub curves and the optimum sampling phase.
// Quantifies the design choice behind Figs 15-17: the sampling-point
// bathtub under zero / +1% / +2% period offset, for the standard CID cap
// (5, 8b/10b) and the PRBS7 cap (7). Shows the asymmetry unique to the
// retriggered topology — a steep, mismatch-limited left wall and a
// drift/jitter-limited right wall — and where the optimum phase sits
// relative to the paper's mid-bit and -T/8 choices.

#include <cstdio>

#include "bench_common.hpp"
#include "statmodel/bathtub.hpp"

using namespace gcdr;

int main(int argc, char** argv) {
    if (argc > 1) return bench::unknown_flag(argv[1]);  // takes no flags
    bench::header("Ablation", "sampling-phase bathtub curves");

    for (int cid : {5, 7}) {
        for (double off : {0.0, 0.01, 0.02}) {
            statmodel::ModelConfig cfg;
            cfg.grid_dx = 1e-3;
            cfg.max_cid = cid;
            cfg.freq_offset = off;
            std::printf("\nCID cap %d, period offset %+0.0f%%:\n", cid,
                        off * 100);
            std::printf("%8s %10s\n", "phase", "log10BER");
            for (const auto& p :
                 statmodel::bathtub_curve(cfg, 19, 0.05, 0.95)) {
                std::printf("%8.3f %10s\n", p.phase_ui,
                            bench::log_ber(p.ber).c_str());
            }
            const auto best = statmodel::optimal_sampling_phase(cfg, 49);
            std::printf("optimum phase %.3f UI (mid-bit = 0.500, paper's "
                        "advanced point = 0.375); opening@1e-12 = %.3f UI\n",
                        best.phase_ui,
                        statmodel::bathtub_opening_ui(cfg, 1e-12));
        }
    }
    std::printf(
        "\nReading: frequency offset erodes the right wall and drags the\n"
        "optimum early — at 1-2%% offset it sits near the paper's -T/8\n"
        "point (0.375 UI), which is exactly the Fig 15 modification.\n");
    return 0;
}
