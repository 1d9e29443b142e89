// Fig 14 — "25k cycles PRBS7 eye diagram simulated in VHDL with CCO
// frequency = 2.375 GHz, sin. jitter amp = 0.10 UIpp, freq = 250 MHz".
// Base topology (Fig 7): mid-bit sampling. The paper's observation to
// reproduce: the left data edge is narrow (each edge retriggers the
// oscillator) while the right edge is smeared by jitter and the -5%
// frequency drift accumulated over the run — the eye is asymmetric around
// the sampling instant.

#include "bench_channel_run.hpp"

using namespace gcdr;

int main(int argc, char** argv) {
    if (argc > 1) return bench::unknown_flag(argv[1]);  // takes no flags
    bench::header("Fig 14",
                  "behavioral eye, base topology (mid-bit sampling)");
    const auto run = bench::run_fig14_conditions(/*improved=*/false);
    bench::print_eye_report(*run.channel);

    bench::section("edge asymmetry (the paper's key observation)");
    const auto& eye = run.channel->eye();
    // Boundary cluster sits at ~0.5 UI from the sampling clock edge: its
    // left flank is the retriggered (narrow) population, the right flank
    // accumulates run-length drift.
    std::printf("edge sigma near the boundary cluster: %.4f UI\n",
                eye.edge_sigma_ui(0.5));
    std::printf(
        "Expected shape: opening biased toward the right of the sampling\n"
        "instant (drift pushes closing edges early relative to late\n"
        "samples); compare with Fig 16's recentered eye.\n");
    return 0;
}
