// Fig 16 — "Eye diagram with improved oscillator output (same
// conditions)". The modified topology of Fig 15: the recovered clock is
// taken from the (differentially inverted) third ring stage, advancing the
// sampling instant by T/8. The paper's claim: timing margin on the right
// data edge improves and the eye opening becomes almost symmetrical
// around UI/2.

#include "bench_channel_run.hpp"

using namespace gcdr;

int main(int argc, char** argv) {
    if (argc > 1) return bench::unknown_flag(argv[1]);  // takes no flags
    bench::header("Fig 16",
                  "behavioral eye, improved topology (T/8 advanced clock)");
    const auto improved = bench::run_fig14_conditions(/*improved=*/true);
    bench::print_eye_report(*improved.channel);

    bench::section("comparison against the base topology (Fig 14)");
    const auto base = bench::run_fig14_conditions(/*improved=*/false);
    auto mean_worst = [](const cdr::GccoChannel& ch) {
        double mean = 0.0, worst = 1.0;
        for (double m : ch.margins_ui()) {
            mean += m;
            worst = std::min(worst, m);
        }
        mean /= static_cast<double>(ch.margins_ui().size());
        return std::pair{mean, worst};
    };
    const auto [mean_b, worst_b] = mean_worst(*base.channel);
    const auto [mean_i, worst_i] = mean_worst(*improved.channel);
    std::printf("%22s %12s %12s\n", "", "base", "improved");
    std::printf("%22s %12.3f %12.3f\n", "mean closing margin", mean_b, mean_i);
    std::printf("%22s %12.3f %12.3f\n", "worst closing margin", worst_b,
                worst_i);
    std::printf("%22s %12.3g %12.3g\n", "extrapolated BER",
                ber::extrapolate_ber_from_margins(base.channel->margins_ui()),
                ber::extrapolate_ber_from_margins(
                    improved.channel->margins_ui()));
    std::printf(
        "\nPaper's claim reproduced when the improved margin exceeds the\n"
        "base margin by ~T/8 = 0.125 UI: measured %+0.3f UI.\n",
        mean_i - mean_b);
    return 0;
}
