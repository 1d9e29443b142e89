// Engine identity for the multi-channel receiver: the batch engine
// (sim::batch::ChannelBatch, the default) and the flight engine (one
// Scheduler + GccoChannel per channel, which enable_flight_recorder()
// switches to) must serve the same receiver — decisions, margins, drained
// bits, health snapshots and every metric — over seeds, thread counts and
// both sampling topologies.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "cdr/multichannel.hpp"
#include "encoding/prbs.hpp"
#include "exec/thread_pool.hpp"
#include "jitter/jitter.hpp"
#include "obs/flight_recorder.hpp"
#include "obs/health/health_monitor.hpp"
#include "obs/metrics.hpp"
#include "util/rng.hpp"

namespace gcdr {
namespace {

struct RxRun {
    std::vector<std::vector<cdr::Decision>> decisions;
    std::vector<std::vector<double>> margins;
    std::vector<std::vector<bool>> drained;
    std::string health;
    std::unique_ptr<obs::MetricsRegistry> reg =
        std::make_unique<obs::MetricsRegistry>();
};

RxRun run_receiver(std::uint64_t seed, bool improved, bool flight,
                   exec::ThreadPool& pool) {
    constexpr std::size_t kBits = 2000;
    RxRun out;
    obs::FlightRecorder::Config fcfg;
    const auto dir = std::filesystem::temp_directory_path() /
                     "gcdr_multichannel_engine_test";
    std::filesystem::create_directories(dir);
    fcfg.dump_dir = dir.string();
    obs::FlightRecorder rec(fcfg);
    obs::health::HealthHub hub;

    auto cfg = cdr::MultiChannelConfig::paper_receiver();
    cfg.channel.improved_sampling = improved;
    cdr::MultiChannelCdr rx(seed, cfg);
    rx.attach_metrics(*out.reg, "cdr");
    rx.attach_health(hub);
    if (flight) rx.enable_flight_recorder(rec, 1024);
    EXPECT_EQ(rx.batch_engine() == nullptr, flight);

    Rng edge_rng(seed + 1000);
    for (int lane = 0; lane < rx.n_channels(); ++lane) {
        encoding::PrbsGenerator gen(encoding::PrbsOrder::kPrbs7);
        jitter::StreamParams sp;
        sp.spec = jitter::JitterSpec::paper_table1();
        sp.start = SimTime::ns(4) + SimTime::ps(97 * lane);
        rx.drive(lane, jitter::jittered_edges(gen.bits(kBits), sp, edge_rng));
    }
    // Uneven frames, as the scenario health_probe task runs them.
    const std::int64_t end_fs =
        (SimTime::ns(5) + kPaperRate.ui_to_time(static_cast<double>(kBits)))
            .femtoseconds();
    for (const std::int64_t num : {13, 50, 51, 100}) {
        rx.run_until(SimTime{end_fs / 100 * num}, &pool);
    }
    out.drained = rx.drain_elastic();
    rx.update_lock_metrics();
    for (int lane = 0; lane < rx.n_channels(); ++lane) {
        out.decisions.push_back(rx.channel(lane).decisions());
        out.margins.push_back(rx.channel(lane).margins_ui());
    }
    out.health = hub.snapshot_json();
    return out;
}

void expect_same_histogram(const obs::Histogram& a, const obs::Histogram& b,
                           const std::string& name) {
    EXPECT_EQ(a.count(), b.count()) << name;
    EXPECT_EQ(a.sum(), b.sum()) << name;
    EXPECT_EQ(a.min(), b.min()) << name;
    EXPECT_EQ(a.max(), b.max()) << name;
    const auto ba = a.nonempty_buckets();
    const auto bb = b.nonempty_buckets();
    ASSERT_EQ(ba.size(), bb.size()) << name;
    for (std::size_t i = 0; i < ba.size(); ++i) {
        EXPECT_EQ(ba[i].upper, bb[i].upper) << name;
        EXPECT_EQ(ba[i].count, bb[i].count) << name;
    }
}

void expect_same_run(const RxRun& batch, const RxRun& flight) {
    ASSERT_EQ(batch.decisions.size(), flight.decisions.size());
    for (std::size_t lane = 0; lane < batch.decisions.size(); ++lane) {
        const auto& a = batch.decisions[lane];
        const auto& b = flight.decisions[lane];
        ASSERT_EQ(a.size(), b.size()) << "lane " << lane;
        for (std::size_t i = 0; i < a.size(); ++i) {
            EXPECT_EQ(a[i].time, b[i].time) << "lane " << lane << " " << i;
            EXPECT_EQ(a[i].bit, b[i].bit) << "lane " << lane << " " << i;
        }
        EXPECT_EQ(batch.margins[lane], flight.margins[lane]) << lane;
        EXPECT_EQ(batch.drained[lane], flight.drained[lane]) << lane;
    }
    EXPECT_EQ(batch.health, flight.health);

    // Every per-channel counter and every period histogram, by name.
    const auto& bc = batch.reg->counters();
    const auto& fc = flight.reg->counters();
    std::size_t ch_counters = 0;
    for (const auto& [name, c] : bc) {
        if (name.rfind("cdr.ch", 0) != 0) continue;
        ++ch_counters;
        ASSERT_TRUE(fc.count(name)) << name;
        EXPECT_EQ(c->value(), fc.at(name)->value()) << name;
    }
    EXPECT_EQ(bc.size(), fc.size());
    std::size_t periods = 0;
    for (const auto& [name, h] : batch.reg->histograms()) {
        if (name.find("period_ps") == std::string::npos) continue;
        ++periods;
        ASSERT_TRUE(flight.reg->histograms().count(name)) << name;
        expect_same_histogram(*h, *flight.reg->histograms().at(name), name);
    }
    EXPECT_EQ(batch.reg->histograms().size(),
              flight.reg->histograms().size());
    // The comparison is not vacuous: four channels' instruments exist and
    // counted the run.
    EXPECT_EQ(periods, 4u);
    EXPECT_EQ(ch_counters, 4u * 10u);  // 6 channel + 4 elastic counters
    EXPECT_GT(bc.at("cdr.ch0.din.transitions")->value(), 500u);
    EXPECT_GT(bc.at("cdr.ch3.q.transitions")->value(), 500u);
    EXPECT_GT(batch.reg->histograms().at("cdr.ch2.gcco.period_ps")->count(),
              1000u);
    EXPECT_EQ(batch.reg->to_json(), flight.reg->to_json());
}

TEST(MultiChannelEngines, FlightEngineMatchesBatchEngine) {
    exec::ThreadPool pool1(1);
    exec::ThreadPool pool4(4);
    for (const bool improved : {false, true}) {
        for (const std::uint64_t seed : {3ull, 11ull, 42ull}) {
            for (exec::ThreadPool* pool : {&pool1, &pool4}) {
                SCOPED_TRACE("improved=" + std::to_string(improved) +
                             " seed=" + std::to_string(seed) +
                             " threads=" + std::to_string(pool->size()));
                const RxRun batch =
                    run_receiver(seed, improved, /*flight=*/false, *pool);
                const RxRun flight =
                    run_receiver(seed, improved, /*flight=*/true, *pool);
                expect_same_run(batch, flight);
            }
        }
    }
}

TEST(MultiChannelEngines, ChannelViewReportsLaneOperatingPoint) {
    auto cfg = cdr::MultiChannelConfig::paper_receiver();
    cdr::MultiChannelCdr rx(/*seed=*/5, cfg);
    const double f_target = rx.pll().target_frequency_hz();
    double spread = 0.0;
    for (int lane = 0; lane < rx.n_channels(); ++lane) {
        const double f = rx.channel(lane).gcco().frequency_hz();
        // Mismatch sigma 1e-3: every lane near HFCK, and not all equal.
        EXPECT_NEAR(f, f_target, f_target * 1e-2) << lane;
        spread = std::max(spread, std::abs(f - f_target));
        EXPECT_EQ(rx.channel(lane).gcco().control_current_a,
                  rx.pll().control_current_a());
    }
    EXPECT_GT(spread, 0.0);
}

}  // namespace
}  // namespace gcdr
