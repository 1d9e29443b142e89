// FTOL validation (Sec. 2.3): frequency tolerance measured two independent
// ways — the statistical model's 1e-12 bound and the behavioral channel's
// error-free range — plus where each failure mechanism takes over. The
// data-rate spec is +-100 ppm; the design needs orders of magnitude more
// margin than that, and has it. Every statistical FTOL the docs quote
// comes from here: CID 5 (8b/10b) and PRBS7, each at mid-bit and
// T/8-advanced sampling.
// The offset scan runs as one SweepRunner sweep on the bench pool
// (--threads): each point builds its own Scheduler/Rng/channel, so the
// three BER estimates per offset are fully independent.

#include <cstdio>
#include <vector>

#include "bench_channel_run.hpp"
#include "exec/sweep.hpp"
#include "statmodel/gated_osc_model.hpp"

using namespace gcdr;

namespace {

double behavioral_ber_at(double delta, bool improved, std::uint64_t seed) {
    auto cfg = cdr::ChannelConfig::nominal(2.5e9 / (1.0 + delta));
    cfg.improved_sampling = improved;
    jitter::StreamParams sp;
    sp.spec = jitter::JitterSpec::paper_table1();
    return bench::run_prbs7(cfg, sp, 8000, seed)
        .channel->measured_prbs_ber(encoding::PrbsOrder::kPrbs7);
}

struct OffsetBer {
    double stat = 0.0;
    double behav_mid = 0.0;
    double behav_adv = 0.0;
};

}  // namespace

int main(int argc, char** argv) {
    const auto opts = bench::Options::parse(argc, argv);
    if (argc > 1) return bench::unknown_flag(argv[1]);
    bench::RunReport report(opts, "ftol_scan",
                            "frequency tolerance, statistical vs behavioral");
    auto& reg = report.metrics();
    auto& pool = report.pool();
    if (!opts.quiet) {
        bench::header("FTOL",
                      "frequency tolerance, statistical vs behavioral");
    }

    const std::vector<double> offsets = {-0.06, -0.04, -0.02, -0.01, 0.0,
                                         0.01,  0.02,  0.04,  0.05,  0.06,
                                         0.07,  0.08};
    std::vector<OffsetBer> scan;
    {
        obs::ScopedTimer t(&reg, "ftol.offset_scan_seconds");
        exec::SweepGrid grid;
        grid.axis("freq_offset", offsets);
        scan = exec::SweepRunner(pool, grid, report.seed())
                   .map<OffsetBer>([&](const exec::SweepPoint& p) {
                       const double d = p.value[0];
                       statmodel::ModelConfig cfg;
                       cfg.grid_dx = 1e-3;
                       cfg.max_cid = 7;
                       cfg.freq_offset = d;
                       OffsetBer r;
                       r.stat = statmodel::ber_of(cfg);
                       r.behav_mid = behavioral_ber_at(d, false, p.seed);
                       r.behav_adv = behavioral_ber_at(d, true, p.seed);
                       return r;
                   });
    }
    if (!opts.quiet) {
        bench::section("BER vs period offset (PRBS7, Table 1 jitter)");
        std::printf("%9s %14s %14s %14s\n", "offset", "stat log10BER",
                    "behav mid-bit", "behav advanced");
    }
    for (std::size_t i = 0; i < offsets.size(); ++i) {
        reg.histogram("ftol.behav_ber_mid").record(scan[i].behav_mid);
        reg.histogram("ftol.behav_ber_adv").record(scan[i].behav_adv);
        if (!opts.quiet) {
            std::printf("%8.1f%% %14s %14.2g %14.2g\n", offsets[i] * 100,
                        bench::log_ber(scan[i].stat).c_str(),
                        scan[i].behav_mid, scan[i].behav_adv);
        }
    }

    // Fig 10 and Fig 17 quote the CID-5 pair (mid-bit and T/8 advance).
    statmodel::ModelConfig cid5;
    cid5.grid_dx = 1e-3;
    statmodel::ModelConfig adv5 = cid5;
    adv5.sampling_advance_ui = 1.0 / 8.0;
    statmodel::ModelConfig cid7 = cid5;
    cid7.max_cid = 7;
    statmodel::ModelConfig adv7 = cid7;
    adv7.sampling_advance_ui = 1.0 / 8.0;
    const double ftol_cid5 = statmodel::ftol(cid5);
    const double ftol_adv5 = statmodel::ftol(adv5);
    const double ftol_cid7 = statmodel::ftol(cid7);
    const double ftol_adv7 = statmodel::ftol(adv7);
    reg.gauge("ftol.stat_cid5_rel").set(ftol_cid5);
    reg.gauge("ftol.stat_cid5_adv_rel").set(ftol_adv5);
    reg.gauge("ftol.stat_prbs7_rel").set(ftol_cid7);
    reg.gauge("ftol.stat_prbs7_adv_rel").set(ftol_adv7);
    if (!opts.quiet) {
        bench::section("FTOL summary");
        std::printf(
            "statistical FTOL @1e-12: CID5 +-%.2f%%, CID5 advanced "
            "+-%.2f%%, PRBS7 +-%.2f%%, PRBS7 advanced +-%.2f%%\n",
            ftol_cid5 * 100, ftol_adv5 * 100, ftol_cid7 * 100,
            ftol_adv7 * 100);
        std::printf(
            "data-rate specification: +-0.01%% (100 ppm) — met with "
            "two orders of magnitude of margin.\n");
        std::printf(
            "\nBehavioral cliff context: beyond the statistical FTOL the "
            "first\nfailures are late samples of the longest runs; past\n"
            "delta = (1 - tau)/(Lmax - 1) the next trigger's freeze "
            "swallows\nthose samples outright (bit slips) for either "
            "sampling tap.\n");
    }
    return report.write() ? 0 : 1;
}
