// Cross-layer BER cross-validation — the rare-event Monte Carlo engines
// (src/mc) against the closed-form statistical model, down to the
// paper's 1e-12 regime.
//
// Four operating points, chosen so the statmodel still resolves the tail
// (its gridded PDF underflows below ~1e-13):
//   sj030  : Fig 9 axis, SJ 0.30 UIpp at f/fd = 0.5   (BER ~ 1e-3)
//   sj020  : Fig 9 axis, SJ 0.20 UIpp at f/fd = 0.5   (BER ~ 3e-7)
//   adv055 : Fig 17 improved sampling (advance 0.125), delta = 5.5%
//            (BER ~ 7e-13)
//   mid030 : mid-bit sampling, delta = 3.0%            (BER ~ 3e-11)
//
// At every point: importance sampling (tilted-jitter, unbiased via
// likelihood weights) and multilevel splitting run on the *analytic*
// margin model, whose per-run margin law mirrors the statmodel equations
// exactly. At sj030 the *behavioral* cdr::GccoChannel is also sampled
// (direct + splitting) — the cross-LAYER check; its BER differs from the
// statmodel by genuine channel physics (EDET merge limits, internal
// noise), so it is reported, not gated.
//
// --check  exit nonzero unless IS agrees with statmodel (IS 95% CI
//          contains the statmodel value, rel err <= 0.3) at all four
//          points — including the two with BER <= 1e-10.
// --deep   larger budgets + behavioral splitting at sj020.
// --flight-recorder
//          every behavioral clone that decodes the wrong bit count dumps
//          its pool lane's flight ring (obs::FlightRecorder, dumps in the
//          current directory). The behavioral samples then run on the
//          event kernel instead of the batched SoA kernel, with the same
//          counters.
//
// Every engine is bit-identical for any --threads value (per-stratum /
// per-particle seeds derive from --seed; fixed-order merges), so the
// report diffs clean across thread counts.

#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "mc/direct.hpp"
#include "sim/batch/channel_batch.hpp"
#include "mc/importance.hpp"
#include "mc/splitting.hpp"
#include "obs/flight_recorder.hpp"
#include "statmodel/gated_osc_model.hpp"

using namespace gcdr;

namespace {

struct Point {
    std::string key;
    std::string label;
    statmodel::ModelConfig cfg;
};

std::vector<Point> operating_points() {
    std::vector<Point> pts;
    {
        Point p;
        p.key = "sj030";
        p.label = "SJ 0.30 UIpp @ f/fd=0.5";
        p.cfg.spec.sj_uipp = 0.30;
        p.cfg.sj_freq_norm = 0.5;
        pts.push_back(p);
    }
    {
        Point p;
        p.key = "sj020";
        p.label = "SJ 0.20 UIpp @ f/fd=0.5";
        p.cfg.spec.sj_uipp = 0.20;
        p.cfg.sj_freq_norm = 0.5;
        pts.push_back(p);
    }
    {
        Point p;
        p.key = "adv055";
        p.label = "advance 0.125, delta=5.5%";
        p.cfg.sampling_advance_ui = 0.125;
        p.cfg.freq_offset = 0.055;
        pts.push_back(p);
    }
    {
        Point p;
        p.key = "mid030";
        p.label = "mid sampling, delta=3.0%";
        p.cfg.freq_offset = 0.03;
        pts.push_back(p);
    }
    return pts;
}

}  // namespace

int main(int argc, char** argv) {
    auto opts = bench::Options::parse(argc, argv);
    bool flight_recorder = false;
    bool check = false;
    bool deep = false;
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--flight-recorder") == 0) {
            flight_recorder = true;
        } else if (std::strcmp(argv[i], "--check") == 0) {
            check = true;
        } else if (std::strcmp(argv[i], "--deep") == 0) {
            deep = true;
        } else {
            return bench::unknown_flag(argv[i]);
        }
    }
    bench::RunReport report(
        opts, "xval_ber",
        "Rare-event MC cross-validation: statmodel vs IS vs splitting");
    std::unique_ptr<obs::FlightRecorder> flight;
    if (flight_recorder) flight = std::make_unique<obs::FlightRecorder>();
    auto& reg = report.metrics();
    auto& pool = report.pool();
    if (!opts.quiet) {
        bench::header("XVAL", "BER cross-validation across model layers");
        std::printf("[pool: %zu lane(s), seed %llu, %s budget]\n",
                    pool.size(),
                    static_cast<unsigned long long>(report.seed()),
                    deep ? "deep" : "quick");
    }

    const auto points = operating_points();
    bool all_agree = true;
    int rare_agree = 0;

    if (!opts.quiet) {
        bench::section("statmodel vs importance sampling vs splitting");
        std::printf("%-28s %10s %10s %6s %5s %5s %10s\n", "point",
                    "statmodel", "IS", "ratio", "rel", "in_ci", "split");
    }
    for (const Point& pt : points) {
        const double sm = statmodel::ber_of(pt.cfg);
        mc::AnalyticMarginModel model(pt.cfg);

        mc::ImportanceSampler::Config ic;
        ic.budget.target_rel_err = deep ? 0.05 : 0.1;
        ic.budget.max_evals = deep ? 6'000'000 : 1'500'000;
        ic.budget.base_seed = report.seed();
        mc::ImportanceSampler is(model, ic, &reg);
        const auto ie = is.estimate(pool);

        mc::SplittingEngine::Config sc;
        sc.n_particles = deep ? 4096 : 1024;
        sc.budget.max_evals = deep ? 2'000'000 : 400'000;
        sc.budget.base_seed = report.seed();
        mc::SplittingEngine split(model, sc, &reg);
        const auto se = split.estimate(pool);

        const bool in_ci = ie.contains(sm);
        const bool agree = in_ci && ie.rel_err() <= 0.3;
        all_agree = all_agree && agree;
        if (sm <= 1e-10 && agree) ++rare_agree;

        const std::string pfx = "xval." + pt.key;
        reg.gauge(pfx + ".statmodel").set(sm);
        reg.gauge(pfx + ".is_ber").set(ie.mean);
        reg.gauge(pfx + ".is_rel_err").set(ie.rel_err());
        reg.gauge(pfx + ".is_ci_lo").set(ie.ci.lo);
        reg.gauge(pfx + ".is_ci_hi").set(ie.ci.hi);
        reg.gauge(pfx + ".is_ess").set(ie.ess);
        reg.counter(pfx + ".is_samples").inc(ie.n_samples);
        reg.gauge(pfx + ".split_ber").set(se.mean);
        reg.gauge(pfx + ".split_ci_lo").set(se.ci.lo);
        reg.gauge(pfx + ".split_ci_hi").set(se.ci.hi);
        reg.counter(pfx + ".split_evals").inc(se.n_samples);
        reg.gauge(pfx + ".agree").set(agree ? 1.0 : 0.0);
        if (!opts.quiet) {
            std::printf("%-28s %10.3e %10.3e %6.3f %5.2f %5s %10.3e\n",
                        pt.label.c_str(), sm, ie.mean,
                        sm > 0.0 ? ie.mean / sm : 0.0, ie.rel_err(),
                        in_ci ? "yes" : "NO", se.mean);
        }
    }

    // Cross-layer: sample the behavioral channel itself at the easiest
    // point (and, with --deep, at sj020 via splitting). The behavioral
    // BER is the event-driven gate-level truth; agreement with the
    // analytic layer is order-of-magnitude by construction, not exact.
    if (!opts.quiet) {
        bench::section("behavioral channel (event-driven gate level)");
    }
    // Cumulative batched-oracle telemetry over every behavioral model in
    // the run. Published as gauges (zeros under --flight-recorder, whose
    // samples run on the event kernel) so reports diff clean under
    // --require-identical-counters between the two kernels.
    std::uint64_t batch_evals = 0;
    std::uint64_t batch_batches = 0;
    std::uint64_t batch_steps = 0;
    double batch_wall = 0.0;
    const auto fold_batch_stats =
        [&](const mc::BehavioralMarginModel& m) {
            const auto& st = m.batch_stats();
            batch_evals += st.evals.load();
            batch_batches += st.batches.load();
            batch_steps += st.steps.load();
            batch_wall += st.wall_seconds.load();
        };
    {
        const Point& pt = points[0];
        auto bp = mc::BehavioralMarginModel::params_from(pt.cfg);
        // With --flight-recorder, every behavioral clone that decodes the
        // wrong bit count leaves a per-lane post-mortem dump.
        bp.flight = flight.get();
        mc::BehavioralMarginModel beh(bp);

        mc::DirectSampler::Config dc;
        dc.budget.max_evals = deep ? (1u << 17) : (1u << 14);
        dc.runs_per_round = 1u << 13;
        dc.budget.base_seed = report.seed();
        mc::DirectSampler direct(beh, dc, &reg);
        const auto de = direct.estimate(pool);

        mc::SplittingEngine::Config sc;
        sc.n_particles = 512;
        sc.budget.max_evals = deep ? 100'000 : 20'000;
        sc.budget.base_seed = report.seed();
        mc::SplittingEngine split(beh, sc, &reg);
        const auto se = split.estimate(pool);

        reg.gauge("xval.sj030.beh_direct_ber").set(de.mean);
        reg.gauge("xval.sj030.beh_direct_ci_lo").set(de.ci.lo);
        reg.gauge("xval.sj030.beh_direct_ci_hi").set(de.ci.hi);
        reg.counter("xval.sj030.beh_direct_runs").inc(de.n_samples);
        reg.gauge("xval.sj030.beh_split_ber").set(se.mean);
        reg.counter("xval.sj030.beh_split_evals").inc(se.n_samples);
        fold_batch_stats(beh);
        if (!opts.quiet) {
            std::printf(
                "%-28s direct=%.3e ci=[%.1e,%.1e]  split=%.3e  (runs %llu"
                " + %llu)\n",
                points[0].label.c_str(), de.mean, de.ci.lo, de.ci.hi,
                se.mean, static_cast<unsigned long long>(de.n_samples),
                static_cast<unsigned long long>(se.n_samples));
        }
    }
    if (deep) {
        const Point& pt = points[1];
        auto bp = mc::BehavioralMarginModel::params_from(pt.cfg);
        bp.flight = flight.get();
        mc::BehavioralMarginModel beh(bp);
        mc::SplittingEngine::Config sc;
        sc.n_particles = 512;
        sc.budget.max_evals = 300'000;
        sc.budget.base_seed = report.seed();
        mc::SplittingEngine split(beh, sc, &reg);
        const auto se = split.estimate(pool);
        reg.gauge("xval.sj020.beh_split_ber").set(se.mean);
        reg.counter("xval.sj020.beh_split_evals").inc(se.n_samples);
        fold_batch_stats(beh);
        if (!opts.quiet) {
            std::printf("%-28s split=%.3e ci=[%.1e,%.1e]\n",
                        pt.label.c_str(), se.mean, se.ci.lo, se.ci.hi);
        }
    }

    // Batched-oracle telemetry: gauges, not counters — event-kernel and
    // batched runs of the same workload must stay bit-identical in every
    // counter (the CI identity gate diffs them), while these report how
    // the work was executed.
    reg.gauge("xval.batch.evals").set(static_cast<double>(batch_evals));
    reg.gauge("xval.batch.batches").set(static_cast<double>(batch_batches));
    reg.gauge("xval.batch.steps").set(static_cast<double>(batch_steps));
    reg.gauge("xval.batch.simd_width")
        .set(static_cast<double>(sim::batch::ChannelBatch::simd_width()));
    reg.gauge("xval.batch.evals_per_s")
        .set(batch_wall > 0.0 ? static_cast<double>(batch_evals) / batch_wall
                              : 0.0);
    if (!opts.quiet) {
        std::printf(
            "\n[batched oracle: %llu evals in %llu batches, %llu kernel "
            "slices, simd width %zu]\n",
            static_cast<unsigned long long>(batch_evals),
            static_cast<unsigned long long>(batch_batches),
            static_cast<unsigned long long>(batch_steps),
            sim::batch::ChannelBatch::simd_width());
    }

    reg.gauge("xval.all_agree").set(all_agree ? 1.0 : 0.0);
    reg.gauge("xval.rare_points_agreeing").set(rare_agree);
    if (!opts.quiet) {
        std::printf(
            "\nIS vs statmodel: %s; %d operating point(s) at BER <= 1e-10 "
            "agree within the 95%% interval.\n",
            all_agree ? "agreement at every point" : "DISAGREEMENT",
            rare_agree);
    }
    const bool report_ok = report.write();
    if (check && (!all_agree || rare_agree < 2)) return 1;
    return report_ok ? 0 : 1;
}
