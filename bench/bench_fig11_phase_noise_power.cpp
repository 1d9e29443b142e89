// Fig 11 — "Phase noise – power consumption trade-off".
// Sweeps the per-stage bias current of the 4-stage CML ring and prints the
// jitter constant kappa from Hajimiri's eq. 1 (the paper's formula),
// McNeill's first-order form and Weigandt's kT/C form, together with the
// ring power and the resulting sampling-clock jitter at CID = 5. Ends with
// the bias point selected for the 0.01 UIrms budget (Sec. 3.2).

#include <algorithm>
#include <cstdio>

#include "bench_common.hpp"
#include "noise/phase_noise.hpp"
#include "util/mathx.hpp"

using namespace gcdr;

int main(int argc, char** argv) {
    if (argc > 1) return bench::unknown_flag(argv[1]);  // takes no flags
    bench::header("Fig 11", "phase noise (kappa) vs power trade-off");

    noise::RingOscParams proto;
    proto.n_stages = 4;
    proto.f_osc_hz = 2.5e9;
    proto.delta_v_v = 0.4;
    proto.gamma = 1.5;
    proto.eta = 1.0;

    bench::section(
        "kappa [sqrt(s)] and sigma(CID=5) [UIrms] vs per-stage bias");
    std::printf("%10s %10s %12s %12s %12s %12s\n", "Iss [uA]", "P [mW]",
                "k_Hajimiri", "k_McNeill", "k_Weigandt", "sigma5 [UI]");
    for (double iss_ua : {25.0, 50.0, 100.0, 150.0, 200.0, 300.0, 400.0,
                          600.0, 800.0}) {
        noise::RingOscParams p = proto;
        p.i_ss_a = iss_ua * 1e-6;
        const double kh = noise::kappa_hajimiri(p);
        std::printf("%10.0f %10.3f %12.3e %12.3e %12.3e %12.4f\n", iss_ua,
                    p.power_w() * 1e3, kh, noise::kappa_mcneill(p),
                    noise::kappa_weigandt(p),
                    noise::jitter_ui_at_cid(kh, kPaperRate, 5));
    }

    bench::section("implied single-sideband phase noise (Hajimiri kappa)");
    noise::RingOscParams at200 = proto;
    at200.i_ss_a = 200e-6;
    const double k200 = noise::kappa_hajimiri(at200);
    std::printf("%14s %14s\n", "offset [Hz]", "L(f) [dBc/Hz]");
    for (double f : {1e5, 1e6, 1e7, 1e8}) {
        std::printf("%14.3g %14.1f\n", f,
                    noise::phase_noise_dbc_hz(k200, 2.5e9, f));
    }

    bench::section("bias point selected for the 0.01 UIrms @ CID=5 budget");
    auto sized = noise::size_for_jitter(proto, 0.01, 5, kPaperRate);
    // The thermal bound alone would allow an unbuildably weak cell; real
    // delay cells carry >= ~30 fF of wiring/gate load at 2.5 GHz.
    sized.i_ss_a = std::max(
        sized.i_ss_a, noise::min_bias_for_parasitics(proto, 30e-15));
    std::printf("Iss = %.1f uA, R_L = %.0f ohm, C_L = %.1f fF\n",
                sized.i_ss_a * 1e6, sized.r_load_ohm(),
                sized.c_load_f() * 1e15);
    std::printf("kappa = %.3e sqrt(s), ring power = %.3f mW\n",
                noise::kappa_hajimiri(sized), sized.power_w() * 1e3);
    std::printf("achieved sigma(CID=5) = %.4f UIrms (target 0.0100)\n",
                noise::jitter_ui_at_cid(noise::kappa_hajimiri(sized),
                                        kPaperRate, 5));
    return 0;
}
