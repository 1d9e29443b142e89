// Fig 17 — "BER estimation with frequency error of 1% with improved
// sampling point". The Fig 10 statistical surface re-evaluated with the
// sampling instant advanced by T/8 (Fig 15 topology). Shows the recovered
// margin, and quantifies the paper's caveat: the advanced point trades
// late-sample margin for early-sample margin under *negative* period
// offset ("may increase the probability of erroneous sampling of the next
// bit"), which Fig 17 itself did not consider.
// All four scans run as SweepRunner sweeps on the bench pool (--threads).

#include <cstdio>
#include <vector>

#include "bench_common.hpp"
#include "exec/sweep.hpp"
#include "statmodel/gated_osc_model.hpp"
#include "util/mathx.hpp"

using namespace gcdr;

int main(int argc, char** argv) {
    const auto opts = bench::Options::parse(argc, argv);
    if (argc > 1) return bench::unknown_flag(argv[1]);
    bench::RunReport report(opts, "fig17_ber_improved",
                            "BER with 1% offset, improved sampling point");
    auto& reg = report.metrics();
    auto& pool = report.pool();
    if (!opts.quiet) {
        bench::header("Fig 17",
                      "BER with 1% offset, improved sampling point");
    }

    statmodel::ModelConfig base;
    base.grid_dx = 1e-3;
    base.freq_offset = 0.01;
    base.sampling_advance_ui = 1.0 / 8.0;

    const auto freqs = logspace(1e-4, 0.5, 13);
    const std::vector<double> amps = {0.1, 0.2, 0.35, 0.5, 0.7, 1.0, 1.5};

    std::vector<double> surface;
    {
        obs::ScopedTimer t(&reg, "fig17.surface_seconds");
        exec::SweepGrid grid;
        grid.axis("sj_freq_norm", freqs).axis("sj_uipp", amps);
        surface = exec::SweepRunner(pool, grid, report.seed())
                      .map_values<double>([&](const std::vector<double>& v) {
                          statmodel::ModelConfig cfg = base;
                          cfg.sj_freq_norm = v[0];
                          cfg.spec.sj_uipp = v[1];
                          return statmodel::ber_of(cfg);
                      });
    }
    for (double ber : surface) reg.histogram("fig17.ber").record(ber);
    if (!opts.quiet) {
        bench::section(
            "log10(BER), 1% offset, T/8 advance (rows: f_SJ/f_data, cols: "
            "SJ UIpp)");
        std::printf("%10s", "f/fd");
        for (double a : amps) std::printf(" %6.2f", a);
        std::printf("\n");
        for (std::size_t r = 0; r < freqs.size(); ++r) {
            std::printf("%10.2e", freqs[r]);
            for (std::size_t c = 0; c < amps.size(); ++c) {
                std::printf(
                    " %s",
                    bench::log_ber(surface[r * amps.size() + c]).c_str());
            }
            std::printf("\n");
        }
    }

    // Mid-bit vs advanced at SJ 0.35 UIpp: axis 0 = frequency, axis 1 =
    // sampling advance {0, 1/8} — the comparison becomes one 13x2 sweep.
    std::vector<double> compare;
    {
        obs::ScopedTimer t(&reg, "fig17.compare_seconds");
        exec::SweepGrid grid;
        grid.axis("sj_freq_norm", freqs)
            .axis("sampling_advance_ui", {0.0, 1.0 / 8.0});
        compare = exec::SweepRunner(pool, grid, report.seed())
                      .map_values<double>([&](const std::vector<double>& v) {
                          statmodel::ModelConfig cfg = base;
                          cfg.sj_freq_norm = v[0];
                          cfg.sampling_advance_ui = v[1];
                          cfg.spec.sj_uipp = 0.35;
                          return statmodel::ber_of(cfg);
                      });
    }
    if (!opts.quiet) {
        bench::section("improvement over mid-bit sampling (Fig 10 vs Fig 17)");
        std::printf("%10s %12s %12s\n", "f/fd", "mid-bit", "advanced");
        for (std::size_t i = 0; i < freqs.size(); ++i) {
            std::printf("%10.2e %12s %12s\n", freqs[i],
                        bench::log_ber(compare[2 * i + 0]).c_str(),
                        bench::log_ber(compare[2 * i + 1]).c_str());
        }
    }

    const std::vector<double> offsets = {-0.04, -0.02, -0.01,
                                         0.01,  0.02,  0.04};
    std::vector<double> caveat;
    {
        obs::ScopedTimer t(&reg, "fig17.caveat_seconds");
        exec::SweepGrid grid;
        grid.axis("freq_offset", offsets)
            .axis("sampling_advance_ui", {0.0, 1.0 / 8.0});
        caveat = exec::SweepRunner(pool, grid, report.seed())
                     .map_values<double>([&](const std::vector<double>& v) {
                         statmodel::ModelConfig cfg;
                         cfg.grid_dx = 1e-3;
                         cfg.freq_offset = v[0];
                         cfg.sampling_advance_ui = v[1];
                         return statmodel::ber_of(cfg);
                     });
    }
    if (!opts.quiet) {
        bench::section("the paper's caveat: sign of the offset");
        std::printf("%10s %14s %14s\n", "offset", "mid-bit BER",
                    "advanced BER");
        for (std::size_t i = 0; i < offsets.size(); ++i) {
            std::printf("%9.1f%% %14s %14s\n", offsets[i] * 100,
                        bench::log_ber(caveat[2 * i + 0]).c_str(),
                        bench::log_ber(caveat[2 * i + 1]).c_str());
        }
    }

    statmodel::ModelConfig f_mid;
    f_mid.grid_dx = 1e-3;
    statmodel::ModelConfig f_adv = f_mid;
    f_adv.sampling_advance_ui = 1.0 / 8.0;
    const double ftol_mid = statmodel::ftol(f_mid);
    const double ftol_adv = statmodel::ftol(f_adv);
    reg.gauge("fig17.ftol_mid_rel").set(ftol_mid);
    reg.gauge("fig17.ftol_adv_rel").set(ftol_adv);
    if (!opts.quiet) {
        std::printf("\nFTOL mid-bit: +-%.2f%%   FTOL advanced: +-%.2f%%\n",
                    ftol_mid * 100, ftol_adv * 100);
    }
    return report.write() ? 0 : 1;
}
