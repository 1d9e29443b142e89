// Measures the event-kernel cost of causal tracing: the same behavioral
// CDR workload (GccoChannel, PRBS-7, paper Table 1 jitter) is run with
// the tracer detached ("off") and with a CausalTracer attached
// ("traced"), telemetry detached in both, so the delta isolates the
// on_schedule ring write + current-event bookkeeping added in the
// drain<kTelemetry, kTrace> dispatch.
//
// Reports (with --json):
//   trace_overhead.cdr_events_per_s_off      median-of-reps, tracer off
//   trace_overhead.cdr_events_per_s_traced   median-of-reps, tracer on
//   trace_overhead.traced_over_off_ratio     median of the per-rep paired
//                                            traced/off ratios (1.0 = free)
// plus deterministic counters (events executed, decisions, trace records)
// that must be identical across machines for a given --seed.
//
// Methodology: reps run as interleaved off/traced PAIRS and the reported
// ratio is the median of per-pair ratios. Best-of with separated blocks
// (the original scheme) let one frequency-scaling or cache-warmth burst
// land entirely in one block and produced physically impossible ratios
// (> 1: tracing "speeding up" the kernel); pairing cancels slow drift
// and the median rejects single-rep outliers.

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <vector>

#include "bench_common.hpp"
#include "cdr/channel.hpp"
#include "encoding/prbs.hpp"
#include "obs/trace_causal.hpp"

using namespace gcdr;

namespace {

struct RunResult {
    double events_per_s = 0.0;
    std::uint64_t events = 0;
    std::uint64_t decisions = 0;
    std::uint64_t trace_records = 0;
};

RunResult run_channel(std::uint64_t seed, std::size_t n_bits,
                      obs::CausalTracer* tracer) {
    sim::Scheduler sched;
    if (tracer) {
        tracer->clear();
        sched.attach_tracer(tracer);
    }
    Rng rng(seed);
    auto cfg = cdr::ChannelConfig::nominal(2.5e9);
    cdr::GccoChannel ch(sched, rng, cfg);
    encoding::PrbsGenerator gen(encoding::PrbsOrder::kPrbs7);
    jitter::StreamParams sp;
    sp.spec = jitter::JitterSpec::paper_table1();
    sp.start = SimTime::ns(4);
    ch.drive(jitter::jittered_edges(gen.bits(n_bits), sp, rng));
    const auto t0 = std::chrono::steady_clock::now();
    sched.run_until(sp.start +
                    cfg.rate.ui_to_time(static_cast<double>(n_bits)));
    const double secs = std::max(
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
            .count(),
        1e-12);
    RunResult r;
    r.events = sched.executed_events();
    r.events_per_s = static_cast<double>(r.events) / secs;
    r.decisions = ch.decisions().size();
    r.trace_records = tracer ? tracer->recorded() : 0;
    return r;
}

double median(std::vector<double> v) {
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

}  // namespace

int main(int argc, char** argv) {
    const auto opts = bench::Options::parse(argc, argv);
    if (argc > 1) return bench::unknown_flag(argv[1]);
    bench::RunReport report(
        opts, "trace_overhead",
        "Causal-tracing overhead on the behavioral CDR event kernel");
    auto& reg = report.metrics();

    constexpr std::size_t kBits = 20000;
    constexpr int kReps = 5;

    if (!opts.quiet) {
        bench::header("TRACE", "causal-tracing overhead, CDR workload");
        std::printf("[%zu bits/run, median of %d interleaved rep pairs, "
                    "seed %llu]\n",
                    kBits, kReps,
                    static_cast<unsigned long long>(report.seed()));
    }

    // Warm-up pair (page-in, branch training) shared by both configs.
    obs::CausalTracer tracer;
    (void)run_channel(report.seed(), kBits, nullptr);
    (void)run_channel(report.seed(), kBits, &tracer);

    // Interleaved pairs: each rep measures off and traced back to back,
    // so slow drift (thermal, frequency scaling) hits both configs alike.
    RunResult off, traced;
    std::vector<double> off_rates, traced_rates, pair_ratios;
    for (int i = 0; i < kReps; ++i) {
        const auto r_off = run_channel(report.seed(), kBits, nullptr);
        const auto r_traced = run_channel(report.seed(), kBits, &tracer);
        off = r_off;        // counters identical across reps; keep last
        traced = r_traced;
        off_rates.push_back(r_off.events_per_s);
        traced_rates.push_back(r_traced.events_per_s);
        pair_ratios.push_back(r_traced.events_per_s / r_off.events_per_s);
    }
    off.events_per_s = median(off_rates);
    traced.events_per_s = median(traced_rates);

    const double ratio = median(pair_ratios);
    reg.gauge("trace_overhead.cdr_events_per_s_off").set(off.events_per_s);
    reg.gauge("trace_overhead.cdr_events_per_s_traced")
        .set(traced.events_per_s);
    reg.gauge("trace_overhead.traced_over_off_ratio").set(ratio);
    // Deterministic identity: the traced run must execute the exact same
    // event sequence as the untraced one, and every scheduled event must
    // have left a trace record.
    reg.counter("trace_overhead.bits").inc(kBits);
    reg.counter("trace_overhead.off_events_executed").inc(off.events);
    reg.counter("trace_overhead.traced_events_executed").inc(traced.events);
    reg.counter("trace_overhead.off_decisions").inc(off.decisions);
    reg.counter("trace_overhead.traced_decisions").inc(traced.decisions);
    reg.counter("trace_overhead.trace_records").inc(traced.trace_records);

    if (!opts.quiet) {
        bench::section("events/s, telemetry detached");
        std::printf("%-12s %14.3e ev/s  (%llu events, %llu decisions)\n",
                    "tracer off", off.events_per_s,
                    static_cast<unsigned long long>(off.events),
                    static_cast<unsigned long long>(off.decisions));
        std::printf("%-12s %14.3e ev/s  (%llu events, %llu records)\n",
                    "tracer on", traced.events_per_s,
                    static_cast<unsigned long long>(traced.events),
                    static_cast<unsigned long long>(traced.trace_records));
        std::printf("%-12s %14.3f\n", "ratio", ratio);
        if (off.events != traced.events ||
            off.decisions != traced.decisions) {
            std::printf("WARNING: tracer changed the event sequence!\n");
        }
    }
    const bool identical =
        off.events == traced.events && off.decisions == traced.decisions;
    reg.gauge("trace_overhead.sequence_identical").set(identical ? 1.0 : 0.0);
    return (report.write() && identical) ? 0 : 1;
}
