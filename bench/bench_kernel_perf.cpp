// Kernel throughput probe: scheduler churn and one behavioral CDR channel
// with telemetry attached, FFT convolution, then the batched SoA lane
// kernel against the scalar event kernel at 1, 4 and 16 channels. With
// --json <path> it writes the report whose counters CI holds identical to
// bench/reports/BENCH_kernel_perf.json.

#include <algorithm>
#include <array>
#include <chrono>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "cdr/channel.hpp"
#include "encoding/prbs.hpp"
#include "exec/sweep.hpp"
#include "sim/batch/channel_batch.hpp"
#include "stats/grid_pdf.hpp"

namespace {

using namespace gcdr;

// Self-rescheduling tick with a two-pointer capture: the same shape as the
// gate/CDR callbacks, so it exercises the inline (allocation-free) path of
// the event queue's callback storage.
struct ChurnTick {
    sim::Scheduler* sched;
    std::uint64_t* count;
    std::uint64_t limit;
    void operator()() const {
        if (++*count < limit) {
            sched->schedule_in(SimTime::ps(100),
                               ChurnTick{sched, count, limit});
        }
    }
};

// Instrumented reference workloads: telemetry attached, so the report
// records event counts, wall timings and the oscillator period
// histogram of a known-size run.
void run_instrumented_workloads(obs::MetricsRegistry& reg) {
    {
        obs::ScopedTimer t(&reg, "kernel_perf.scheduler_churn_seconds");
        sim::Scheduler sched;
        sched.attach_metrics(&reg);
        std::uint64_t count = 0;
        sched.schedule_at(SimTime{0}, ChurnTick{&sched, &count, 100000});
        sched.run();
    }
    // Derived throughput, from the scheduler's own telemetry.
    reg.gauge("kernel_perf.sched_events_per_s")
        .set(static_cast<double>(
                 reg.counter("sim.events_executed").value()) /
             std::max(reg.gauge("sim.wall_seconds").value(), 1e-12));
    {
        obs::ScopedTimer t(&reg, "kernel_perf.channel_run_seconds");
        sim::Scheduler sched;
        sched.attach_metrics(&reg, "cdr_sim");
        Rng rng(1);
        auto cfg = cdr::ChannelConfig::nominal(2.5e9);
        cdr::GccoChannel ch(sched, rng, cfg);
        ch.attach_metrics(reg, "cdr.ch0");
        encoding::PrbsGenerator gen(encoding::PrbsOrder::kPrbs7);
        const std::size_t n_bits = 10000;
        jitter::StreamParams sp;
        sp.spec = jitter::JitterSpec::paper_table1();
        sp.start = SimTime::ns(4);
        ch.drive(jitter::jittered_edges(gen.bits(n_bits), sp, rng));
        sched.run_until(sp.start +
                        cfg.rate.ui_to_time(static_cast<double>(n_bits)));
        reg.gauge("kernel_perf.channel_bits")
            .set(static_cast<double>(n_bits));
    }
    reg.gauge("kernel_perf.cdr_events_per_s")
        .set(static_cast<double>(
                 reg.counter("cdr_sim.events_executed").value()) /
             std::max(reg.gauge("cdr_sim.wall_seconds").value(), 1e-12));
    {
        // Convolution throughput through the real-FFT path: both operands
        // above the 2048-bin threshold. "Points" are output bins produced.
        const auto a = stats::GridPdf::gaussian(0.03, 1e-5);
        const auto b = stats::GridPdf::uniform(0.05, 1e-5);
        constexpr int kReps = 10;
        const auto t0 = std::chrono::steady_clock::now();
        double sink = 0.0;
        for (int i = 0; i < kReps; ++i) sink += a.convolve(b).mass();
        const double secs = std::max(
            std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                          t0)
                .count(),
            1e-12);
        volatile double kept = sink;  // the convolutions must run
        (void)kept;
        const double points =
            static_cast<double>(kReps) *
            static_cast<double>(a.size() + b.size() - 1);
        reg.gauge("kernel_perf.convolve_wall_seconds").set(secs);
        reg.gauge("kernel_perf.convolve_points_per_s").set(points / secs);
    }
}

// Multi-channel throughput: N scalar event-kernel channels one after
// another vs one batched SoA kernel running the same N lanes, one pool
// item per lane (sim/batch/ChannelBatch). Identical seeds, edges and
// horizon, so the lane_mismatches counters double as a correctness probe
// on every bench run. CI holds kernel_perf.batch.ch16.events_per_s to
// >= 4x kernel_perf.scalar.ch16.events_per_s of the same run (bench_diff
// --min-cross-ratio with the report on both sides, run with --threads 0
// so the batch spreads its lanes across every core).
//
// Timing protocol: each side runs kReps times, scalar and batch
// interleaved so a CPU-frequency drift on a shared runner hits both
// sides alike, and each published rate is the median of its reps.
// Counters come from rep 0; all reps are bit-identical by construction.
constexpr int kReps = 3;

double median(std::array<double, kReps> v) {
    std::sort(v.begin(), v.end());
    return v[kReps / 2];
}

void run_batch_vs_scalar(gcdr::bench::RunReport& report) {
    obs::MetricsRegistry& reg = report.metrics();
    const auto cfg = cdr::ChannelConfig::nominal(2.5e9);
    constexpr std::size_t kBits = 10000;
    jitter::StreamParams sp;
    sp.spec = jitter::JitterSpec::paper_table1();
    sp.start = SimTime::ns(4);
    const SimTime t_end =
        sp.start + cfg.rate.ui_to_time(static_cast<double>(kBits));
    const std::uint64_t seed = report.seed();

    if (!report.quiet()) {
        gcdr::bench::section("batched SoA kernel vs scalar event kernel");
        std::printf("%8s %18s %18s %10s\n", "lanes", "scalar Mev/s",
                    "batch Mev/s", "speedup");
    }
    for (const std::size_t n : {std::size_t{1}, std::size_t{4},
                                std::size_t{16}}) {
        // Edge streams come from their own rngs so each channel's noise
        // stream is an uninterrupted Rng(derive_seed(seed, k)) — the
        // precondition for batch-lane identity.
        std::vector<std::vector<jitter::Edge>> edges(n);
        for (std::size_t k = 0; k < n; ++k) {
            encoding::PrbsGenerator gen(encoding::PrbsOrder::kPrbs7);
            Rng edge_rng(exec::derive_seed(seed, 1000 + k));
            edges[k] = jitter::jittered_edges(gen.bits(kBits), sp, edge_rng);
        }
        const std::string tag =
            "kernel_perf.scalar.ch" + std::to_string(n);
        const std::string btag =
            "kernel_perf.batch.ch" + std::to_string(n);

        std::vector<std::vector<cdr::Decision>> scalar_dec(n);
        std::uint64_t scalar_decisions = 0;
        std::array<double, kReps> scalar_rates{};
        std::array<double, kReps> batch_rates{};
        std::uint64_t batch_decisions = 0;
        std::uint64_t mismatches = 0;
        for (int rep = 0; rep < kReps; ++rep) {
            std::uint64_t scalar_events = 0;
            double scalar_secs = 0.0;
            for (std::size_t k = 0; k < n; ++k) {
                sim::Scheduler sched;
                Rng rng(exec::derive_seed(seed, k));
                cdr::GccoChannel ch(sched, rng, cfg);
                ch.drive(edges[k]);
                const auto t0 = std::chrono::steady_clock::now();
                sched.run_until(t_end);
                scalar_secs += std::chrono::duration<double>(
                                   std::chrono::steady_clock::now() - t0)
                                   .count();
                scalar_events += sched.executed_events();
                if (rep == 0) {
                    scalar_decisions += ch.decisions().size();
                    scalar_dec[k] = ch.decisions();
                }
            }
            scalar_rates[rep] = static_cast<double>(scalar_events) /
                                std::max(scalar_secs, 1e-12);

            sim::batch::ChannelBatch batch(cfg, n);
            for (std::size_t k = 0; k < n; ++k) {
                batch.seed_lane(k, exec::derive_seed(seed, k));
                batch.drive(k, edges[k]);
            }
            batch.run_until(t_end, &report.pool());
            batch_rates[rep] = static_cast<double>(batch.events_executed()) /
                               std::max(batch.run_seconds(), 1e-12);

            if (rep == 0) {
                for (std::size_t k = 0; k < n; ++k) {
                    const auto& bd = batch.decisions(k);
                    batch_decisions += bd.size();
                    if (bd.size() != scalar_dec[k].size()) {
                        ++mismatches;
                        continue;
                    }
                    for (std::size_t i = 0; i < bd.size(); ++i) {
                        if (bd[i].time != scalar_dec[k][i].time ||
                            bd[i].bit != scalar_dec[k][i].bit) {
                            ++mismatches;
                            break;
                        }
                    }
                }
            }
            if (rep == kReps - 1) batch.publish_metrics(reg, btag);
        }

        const double scalar_rate = median(scalar_rates);
        const double batch_rate = median(batch_rates);
        reg.gauge(tag + ".events_per_s").set(scalar_rate);
        reg.gauge(tag + ".per_lane_events_per_s")
            .set(scalar_rate / static_cast<double>(n));
        reg.gauge(btag + ".events_per_s").set(batch_rate);
        reg.gauge(btag + ".per_lane_events_per_s")
            .set(batch_rate / static_cast<double>(n));
        reg.counter(tag + ".decisions").inc(scalar_decisions);
        reg.counter(btag + ".decisions").inc(batch_decisions);
        reg.counter(btag + ".lane_mismatches").inc(mismatches);
        if (n == 16) {
            reg.gauge("kernel_perf.batch.ch16.speedup_vs_scalar")
                .set(batch_rate / scalar_rate);
        }
        if (!report.quiet()) {
            std::printf("%8zu %18.2f %18.2f %9.2fx%s\n", n,
                        scalar_rate / 1e6, batch_rate / 1e6,
                        batch_rate / scalar_rate,
                        mismatches ? "  [LANE MISMATCH]" : "");
        }
    }
}

}  // namespace

int main(int argc, char** argv) {
    const auto opts = gcdr::bench::Options::parse(argc, argv);
    if (argc > 1) return gcdr::bench::unknown_flag(argv[1]);
    gcdr::bench::RunReport report(
        opts, "kernel_perf", "simulator microbenchmarks + telemetry probe");
    run_instrumented_workloads(report.metrics());
    run_batch_vs_scalar(report);
    return report.write() ? 0 : 1;
}
