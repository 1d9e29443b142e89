// Power claim (Abstract / Sec. 1 / Sec. 5): "power consumption as low as
// 5 mW/Gbit/s". Sizes the oscillator from the jitter budget (Fig 11 flow),
// rolls up a full channel (GCCO + delay line + XOR/NAND/dummies + sampler
// + shared-PLL share) and prints mW/Gbit/s for 1..8 channels, plus the
// comparison against representative PLL-based CDR power.

#include <algorithm>
#include <cstdio>

#include "bench_common.hpp"
#include "noise/phase_noise.hpp"

using namespace gcdr;

int main(int argc, char** argv) {
    if (argc > 1) return bench::unknown_flag(argv[1]);  // takes no flags
    bench::header("Power budget", "the <= 5 mW/Gbit/s claim");

    noise::RingOscParams proto;
    proto.n_stages = 4;
    proto.f_osc_hz = 2.5e9;
    proto.delta_v_v = 0.4;
    proto.gamma = 1.5;
    proto.eta = 1.0;
    auto sized = noise::size_for_jitter(proto, 0.01, 5, kPaperRate);
    const double i_thermal = sized.i_ss_a;
    const double i_parasitic =
        noise::min_bias_for_parasitics(proto, /*c_min=*/30e-15);
    sized.i_ss_a = std::max(i_thermal, i_parasitic);

    bench::section("oscillator sizing: jitter budget + parasitic floor");
    std::printf("thermal-noise bound: %.1f uA, parasitic bound (30 fF): "
                "%.1f uA -> bias %.1f uA\n",
                i_thermal * 1e6, i_parasitic * 1e6, sized.i_ss_a * 1e6);
    std::printf("kappa %.3e sqrt(s), sigma@CID5 %.4f UI (target 0.0100)\n",
                noise::kappa_hajimiri(sized),
                noise::jitter_ui_at_cid(noise::kappa_hajimiri(sized),
                                        kPaperRate, 5));

    // Shared PLL: CCO (4 stages at the same bias) + dividers/PFD/CP,
    // conservatively 3x the bare ring.
    const double pll_power =
        3.0 * sized.n_stages * sized.i_ss_a * sized.vdd_v;

    bench::section("per-channel roll-up vs channel count");
    std::printf("%10s %12s %12s %12s %14s\n", "channels", "chan [mW]",
                "PLL/ch [mW]", "total [mW]", "mW/Gbit/s");
    for (int n : {1, 2, 4, 8}) {
        const auto b = noise::channel_power_budget(sized, /*delay_cells=*/4,
                                                   /*logic_cells=*/3,
                                                   pll_power, n);
        std::printf("%10d %12.3f %12.3f %12.3f %14.3f %s\n", n,
                    (b.total_w() - b.pll_share_w) * 1e3,
                    b.pll_share_w * 1e3, b.total_w() * 1e3,
                    b.mw_per_gbps(kPaperRate),
                    b.mw_per_gbps(kPaperRate) <= 5.0 ? "(<= 5: OK)"
                                                      : "(exceeds 5!)");
    }

    bench::section("block breakdown (4-channel case)");
    const auto b4 = noise::channel_power_budget(sized, 4, 3, pll_power, 4);
    std::printf("oscillator  %.3f mW\n", b4.oscillator_w * 1e3);
    std::printf("delay line  %.3f mW\n", b4.delay_line_w * 1e3);
    std::printf("logic       %.3f mW\n", b4.logic_w * 1e3);
    std::printf("sampler     %.3f mW\n", b4.sampler_w * 1e3);
    std::printf("PLL share   %.3f mW\n", b4.pll_share_w * 1e3);

    bench::section("context: why not a PLL per channel (Sec. 1)");
    // A per-channel PLL repeats the full loop (CCO + filter + PFD/CP) in
    // every lane instead of amortizing it.
    const double pll_cdr_per_channel =
        (pll_power + 8 * sized.i_ss_a * sized.vdd_v);
    std::printf("gated-oscillator channel: %.2f mW\n",
                (b4.total_w()) * 1e3);
    std::printf("PLL-based channel (loop replicated): ~%.2f mW (%.1fx)\n",
                pll_cdr_per_channel * 1e3,
                pll_cdr_per_channel / b4.total_w());
    return 0;
}
