// lane_sim — event-level verification of a generated 16-channel receiver
// (4x the paper's): every channel gets PRBS7 data at the Table 1 jitter
// budget with a seeded per-lane skew. The netlist document goes through
// scenario::compile_netlist; each rep then builds
// MultiChannelCdr(seed, cfg), generates jitter::jittered_edges per lane,
// runs run_until(t_end, pool) and drains the elastic buffers. One
// operation is one lane.
//
// Why: the scalar event kernel dominates and nothing statistical runs.
// Routing MultiChannelCdr::run_until through sim/batch must show here.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <optional>
#include <string>
#include <vector>

#include "cdr/multichannel.hpp"
#include "encoding/prbs.hpp"
#include "exec/thread_pool.hpp"
#include "harness.hpp"
#include "jitter/jitter.hpp"
#include "obs/trace_span.hpp"
#include "scenario/compile.hpp"
#include "util/rng.hpp"

namespace gcdr::e2e {

namespace {

struct Sizes {
    int channels;
    int bits;  ///< PRBS7 bits per channel
};

constexpr Sizes kFull{16, 250000};
constexpr Sizes kSmoke{16, 4000};

std::string make_doc(Rng& rng, const Sizes& z) {
    std::string inst;
    std::string wires;
    char buf[256];
    for (int i = 0; i < z.channels; ++i) {
        std::snprintf(buf, sizeof buf,
                      "\"src%02d\":{\"kind\":\"source\",\"bits\":%d,"
                      "\"prbs\":7,\"start_ns\":4.0},"
                      "\"lane%02d\":{\"kind\":\"channel\",\"f_osc_hz\":2.5e9,"
                      "\"ckj_uirms\":0.01},"
                      "\"mon%02d\":{\"kind\":\"monitor\"}",
                      i, z.bits, i, i);
        if (i) inst += ',';
        inst += buf;
        // Per-lane skew up to half a nanosecond: the channels share the
        // rate, not the phase (Sec. 2.1).
        std::snprintf(buf, sizeof buf,
                      "{\"from\":\"src%02d.out\",\"to\":\"lane%02d.din\","
                      "\"skew_ps\":%.17g},"
                      "{\"from\":\"lane%02d.dout\",\"to\":\"mon%02d.in\"}",
                      i, i, rng.uniform(0.0, 500.0), i, i);
        if (i) wires += ',';
        wires += buf;
    }
    return "{\"schema\":\"gcdr.scenario/v1\",\"name\":\"e2e_lanes\","
           "\"netlist\":{\"instances\":{" +
           inst + "},\"wires\":[" + wires +
           "]},\"tasks\":[{\"kind\":\"netlist_run\",\"prefix\":\"lanes\"}]}";
}

std::string pack_bits(const std::vector<bool>& bits) {
    std::string out((bits.size() + 7) / 8, '\0');
    for (std::size_t i = 0; i < bits.size(); ++i) {
        if (bits[i]) out[i / 8] = static_cast<char>(out[i / 8] | (1 << (i % 8)));
    }
    return out;
}

class LaneSim final : public Workload {
public:
    explicit LaneSim(const Options& opts)
        : sizes_(opts.smoke ? kSmoke : kFull), pool_(opts.threads) {}

    const char* digest_name() const override { return "digest.lanes"; }

    void setup(std::uint64_t rep_seed) override {
        rep_seed_ = rep_seed;
        std::string text;
        {
            obs::TraceSpan span("e2e.generate");
            Rng rng(rep_seed);
            text = make_doc(rng, sizes_);
        }
        scenario_ = load_scenario(text, "lane_sim.json");
        obs::TraceSpan span("scenario.compile");
        net_ = scenario::compile_netlist(scenario_.doc.netlist);
    }

    void run(RepRecord& rec, std::uint64_t& digest) override {
        pool_.attach_metrics(traced_ ? &pool_metrics_ : nullptr);
        const int n = net_.config.n_channels;
        std::optional<cdr::MultiChannelCdr> rx_storage;
        {
            obs::TraceSpan span("cdr.build");
            rx_storage.emplace(rep_seed_, net_.config);
        }
        cdr::MultiChannelCdr& rx = *rx_storage;

        // One RNG drives every lane's jitter, in channel order, like the
        // scenario runner's netlist_run task.
        std::uint64_t max_bits = 0;
        double last_start_ns = 0.0;
        {
            obs::TraceSpan span("jitter.edges");
            Rng rng(rep_seed_);
            for (int i = 0; i < n; ++i) {
                const scenario::CompiledLane& lane =
                    net_.lanes[static_cast<std::size_t>(i)];
                encoding::PrbsGenerator gen(encoding::PrbsOrder::kPrbs7);
                const std::vector<bool> bits =
                    gen.bits(static_cast<std::size_t>(lane.bits));
                jitter::StreamParams sp;
                sp.spec = scenario_.doc.model.spec;
                sp.start =
                    SimTime::ns(lane.start_ns) + SimTime::ps(lane.skew_ps);
                const auto edges = jitter::jittered_edges(bits, sp, rng);
                if (traced_) {
                    counters_["jitter.edges"] +=
                        static_cast<double>(edges.size());
                }
                rx.drive(i, edges);
                max_bits = std::max(max_bits, lane.bits);
                last_start_ns = std::max(
                    last_start_ns, lane.start_ns + lane.skew_ps * 1e-3);
            }
        }

        const SimTime t_end =
            SimTime::ns(last_start_ns + 4.0) +
            kPaperRate.ui_to_time(static_cast<double>(max_bits));
        {
            obs::TraceSpan span("cdr.run");
            rx.run_until(t_end, &pool_);
        }

        std::vector<std::vector<bool>> lanes;
        {
            obs::TraceSpan span("cdr.elastic");
            lanes = rx.drain_elastic();
        }

        obs::TraceSpan span("e2e.check");
        // Lock rule of MultiChannelCdr::update_lock_metrics: the shared
        // PLL and every channel CCO within 1% of the target rate.
        constexpr double kLockTol = 1e-2;
        const bool pll_locked =
            std::abs(rx.pll().frequency_error_rel()) <= kLockTol;
        const double f_target = rx.pll().target_frequency_hz();
        for (int i = 0; i < n; ++i) {
            ++rec.attempted;
            const double err =
                std::abs(rx.channel(i).gcco().frequency_hz() - f_target) /
                f_target;
            const std::size_t sent = static_cast<std::size_t>(
                net_.lanes[static_cast<std::size_t>(i)].bits);
            const std::size_t got = lanes[static_cast<std::size_t>(i)].size();
            if (!pll_locked || err > kLockTol) {
                rec.fail("lane_sim: lane " + std::to_string(i) +
                         " is not locked");
            } else if (got < sent || got > sent + kTailBits) {
                rec.fail("lane_sim: lane " + std::to_string(i) +
                         " recovered " + std::to_string(got) + " bits of " +
                         std::to_string(sent));
            }
            fold(digest, pack_bits(lanes[static_cast<std::size_t>(i)]));
            if (traced_) {
                counters_["sim.events"] += static_cast<double>(
                    rx.scheduler(i).executed_events());
                counters_["cdr.decisions"] += static_cast<double>(
                    rx.channel(i).decisions().size());
            }
        }
        fold(digest, scenario_.hash);
    }

    void add_counters(Counters& out) const override {
        for (const auto& [k, v] : counters_) out[k] += v;
        add_pool_counters(pool_metrics_, pool_.size(), out);
    }

private:
    /// A lane recovers every bit sent plus the samples its free-running
    /// oscillator takes of the idle line until the run ends (about 50).
    static constexpr std::size_t kTailBits = 64;

    Sizes sizes_;
    exec::ThreadPool pool_;
    obs::MetricsRegistry pool_metrics_;
    Counters counters_;
    LoadedScenario scenario_;
    scenario::CompiledNetlist net_;
    std::uint64_t rep_seed_ = 0;
};

}  // namespace

std::unique_ptr<Workload> make_lane_sim(const Options& opts) {
    return std::make_unique<LaneSim>(opts);
}

}  // namespace gcdr::e2e
