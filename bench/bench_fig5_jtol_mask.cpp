// Fig 5 — "InfiniBand jitter tolerance specification".
// Prints the mask template (breakpoints and a log-frequency sweep) that the
// JTOL results of Figs 9/10 are judged against.

#include <cstdio>

#include "bench_common.hpp"
#include "masks/jtol_mask.hpp"
#include "util/mathx.hpp"

using namespace gcdr;

int main(int argc, char** argv) {
    if (argc > 1) return bench::unknown_flag(argv[1]);  // takes no flags
    bench::header("Fig 5", "InfiniBand 2.5 Gb/s RX jitter tolerance mask");

    const auto mask = masks::JtolMask::infiniband_2g5();
    bench::section("mask breakpoints");
    std::printf("%14s %14s\n", "freq [Hz]", "SJ [UIpp]");
    for (const auto& p : mask.points()) {
        std::printf("%14.4g %14.3f\n", p.freq_hz, p.amp_uipp);
    }

    bench::section("log-frequency sweep (template the CDR must exceed)");
    std::printf("%14s %14s\n", "freq [Hz]", "SJ [UIpp]");
    for (double f : logspace(1e3, 1e9, 25)) {
        std::printf("%14.4g %14.3f\n", f, mask.amplitude_at(f));
    }

    bench::section("reference: SONET OC-48 RX mask");
    const auto sonet = masks::JtolMask::sonet_oc48();
    for (const auto& p : sonet.points()) {
        std::printf("%14.4g %14.3f\n", p.freq_hz, p.amp_uipp);
    }

    std::printf(
        "\nNote: values approximate the InfiniBand 1.0a template "
        "(corner bitrate/1667, -20 dB/dec, 0.35 UIpp HF plateau); see "
        "EXPERIMENTS.md.\n");
    return 0;
}
