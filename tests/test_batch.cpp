// Batched SoA kernel (sim/batch/) correctness anchors:
//  - lane-granular bit-identity: lane k of a ChannelBatch run equals a
//    scalar GccoChannel run with the same seed/config/edges — decisions,
//    margins, ones count and executed-event count, swept over seeds x
//    channel counts x thread counts x sampling topologies, with per-lane
//    GCCO frequencies and long_jump()-separated stream seeds;
//  - a run reaching t_end in many uneven run_until() steps equals one
//    call;
//  - NormalBank streams equal util::Rng::gaussian();
//  - convolve_direct equals the naive loop bit for bit at the target's
//    SIMD width;
//  - the batched BehavioralMarginModel oracle returns the event kernel's
//    margins, runs by default, and yields to the event kernel when a
//    flight recorder is attached.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <memory>
#include <vector>

#include "cdr/channel.hpp"
#include "encoding/prbs.hpp"
#include "exec/sweep.hpp"
#include "exec/thread_pool.hpp"
#include "jitter/jitter.hpp"
#include "mc/margin_model.hpp"
#include "obs/flight_recorder.hpp"
#include "sim/batch/channel_batch.hpp"
#include "sim/batch/lane_rng.hpp"
#include "sim/scheduler.hpp"
#include "statmodel/timing.hpp"
#include "util/fft.hpp"
#include "util/rng.hpp"

namespace {

using namespace gcdr;

std::vector<jitter::Edge> lane_edges(std::uint64_t edge_seed,
                                     std::size_t n_bits,
                                     const jitter::StreamParams& sp) {
    encoding::PrbsGenerator gen(encoding::PrbsOrder::kPrbs7);
    Rng rng(edge_seed);
    return jitter::jittered_edges(gen.bits(n_bits), sp, rng);
}

struct ScalarRun {
    std::vector<cdr::Decision> decisions;
    std::vector<double> margins;
    std::uint64_t events = 0;
};

ScalarRun scalar_lane_run(const cdr::ChannelConfig& cfg, Rng rng,
                          const std::vector<jitter::Edge>& edges,
                          SimTime t_end) {
    sim::Scheduler sched;
    cdr::GccoChannel ch(sched, rng, cfg, "s");
    ch.drive(edges);
    sched.run_until(t_end);
    return ScalarRun{ch.decisions(), ch.margins_ui(), sched.executed_events()};
}

void expect_lane_matches_scalar(const sim::batch::ChannelBatch& batch,
                                std::size_t lane, const ScalarRun& ref) {
    const auto& bd = batch.decisions(lane);
    ASSERT_EQ(bd.size(), ref.decisions.size()) << "lane " << lane;
    std::uint64_t ref_ones = 0;
    for (std::size_t i = 0; i < bd.size(); ++i) {
        EXPECT_EQ(bd[i].time, ref.decisions[i].time)
            << "lane " << lane << " decision " << i;
        EXPECT_EQ(bd[i].bit, ref.decisions[i].bit)
            << "lane " << lane << " decision " << i;
        ref_ones += ref.decisions[i].bit ? 1u : 0u;
    }
    const auto& bm = batch.margins_ui(lane);
    ASSERT_EQ(bm.size(), ref.margins.size()) << "lane " << lane;
    for (std::size_t i = 0; i < bm.size(); ++i) {
        // Same fold function on identical integer times: bitwise equal.
        EXPECT_EQ(bm[i], ref.margins[i]) << "lane " << lane << " margin "
                                         << i;
    }
    EXPECT_EQ(batch.ones(lane), ref_ones) << "lane " << lane;
    EXPECT_EQ(batch.events_executed(lane), ref.events) << "lane " << lane;
}

/// Lane k's jitter stream in the identity sweep: even lanes take a plain
/// seed, odd lanes a long_jump()-separated generator state (the
/// multi-channel receiver's seeding).
Xoshiro256 lane_stream(std::uint64_t seed, std::size_t k) {
    Xoshiro256 gen(exec::derive_seed(seed, k));
    if (k % 2 == 1) gen.long_jump();
    return gen;
}

TEST(ChannelBatch, LaneBitIdentityAcrossSeedsChannelsAndTopologies) {
    constexpr std::size_t kBits = 300;
    for (const bool improved : {false, true}) {
        auto cfg = cdr::ChannelConfig::nominal(2.5e9 / 1.03);
        cfg.improved_sampling = improved;
        jitter::StreamParams sp;
        sp.spec = jitter::JitterSpec::paper_table1();
        sp.start = SimTime::ns(4);
        const SimTime t_end =
            sp.start + cfg.rate.ui_to_time(static_cast<double>(kBits));
        for (const std::uint64_t seed : {1ull, 17ull, 99ull}) {
            for (const std::size_t n : {std::size_t{1}, std::size_t{3},
                                        std::size_t{8}}) {
                sim::batch::ChannelBatch batch(cfg, n);
                std::vector<std::vector<jitter::Edge>> edges(n);
                std::vector<cdr::ChannelConfig> lane_cfg(n, cfg);
                for (std::size_t k = 0; k < n; ++k) {
                    edges[k] = lane_edges(exec::derive_seed(seed, 1000 + k),
                                          kBits, sp);
                    if (k % 2 == 0) {
                        batch.seed_lane(k, exec::derive_seed(seed, k));
                    } else {
                        batch.seed_lane(k, lane_stream(seed, k));
                    }
                    // Per-lane CCO mismatch (lane 0 keeps the shared
                    // frequency), set the way MultiChannelCdr does.
                    if (k > 0) {
                        lane_cfg[k].gcco.fc_hz *=
                            1.0 + 1.5e-3 * (static_cast<double>(k % 3) - 1.0);
                        batch.set_lane_frequency(
                            k, lane_cfg[k].gcco.frequency_at(
                                   lane_cfg[k].control_current_a));
                    }
                    batch.drive(k, edges[k]);
                }
                batch.run_until(t_end);
                for (std::size_t k = 0; k < n; ++k) {
                    const auto ref = scalar_lane_run(
                        lane_cfg[k], Rng(lane_stream(seed, k)), edges[k],
                        t_end);
                    expect_lane_matches_scalar(batch, k, ref);
                }
            }
        }
    }
}

TEST(ChannelBatch, UnevenRunUntilStepsEqualOneCall) {
    // health_probe-style framing: t_end reached in many uneven steps —
    // shorter and longer than a slice, a repeated target, and a step at
    // t = 0 that only runs the GCCO kick — must execute the same events
    // as one call, serially and on a pool.
    constexpr std::size_t kBits = 3000;  // ~3 slices
    constexpr std::size_t kLanes = 5;
    const auto cfg = cdr::ChannelConfig::nominal(2.5e9);
    jitter::StreamParams sp;
    sp.spec = jitter::JitterSpec::paper_table1();
    sp.start = SimTime::ns(4);
    const SimTime t_end =
        sp.start + cfg.rate.ui_to_time(static_cast<double>(kBits));
    const std::int64_t end_fs = t_end.femtoseconds();

    auto build = [&] {
        auto batch = std::make_unique<sim::batch::ChannelBatch>(cfg, kLanes);
        for (std::size_t k = 0; k < kLanes; ++k) {
            batch->seed_lane(k, lane_stream(21, k));
            batch->drive(k, lane_edges(exec::derive_seed(21, 100 + k), kBits,
                                       sp));
        }
        return batch;
    };
    const auto once = build();
    once->run_until(t_end);

    Rng cut_rng(8);
    std::vector<std::int64_t> cuts = {0, end_fs / 3, end_fs / 3};
    for (int i = 0; i < 11; ++i) {
        cuts.push_back(static_cast<std::int64_t>(
            cut_rng.uniform() * static_cast<double>(end_fs)));
    }
    std::sort(cuts.begin(), cuts.end());
    cuts.push_back(end_fs);

    exec::ThreadPool pool(3);
    for (exec::ThreadPool* p : {static_cast<exec::ThreadPool*>(nullptr),
                                &pool}) {
        const auto stepped = build();
        for (const std::int64_t t : cuts) stepped->run_until(SimTime{t}, p);
        for (std::size_t k = 0; k < kLanes; ++k) {
            const auto& a = stepped->decisions(k);
            const auto& b = once->decisions(k);
            ASSERT_EQ(a.size(), b.size()) << "lane " << k;
            for (std::size_t i = 0; i < a.size(); ++i) {
                EXPECT_EQ(a[i].time, b[i].time) << "lane " << k << " " << i;
                EXPECT_EQ(a[i].bit, b[i].bit) << "lane " << k << " " << i;
            }
            EXPECT_EQ(stepped->margins_ui(k), once->margins_ui(k));
            EXPECT_EQ(stepped->ones(k), once->ones(k));
            EXPECT_EQ(stepped->events_executed(k), once->events_executed(k));
        }
    }
}

TEST(ChannelBatch, ThreadCountInvariance) {
    constexpr std::size_t kBits = 400;
    constexpr std::size_t kLanes = 6;
    auto cfg = cdr::ChannelConfig::nominal(2.5e9);
    jitter::StreamParams sp;
    sp.spec = jitter::JitterSpec::paper_table1();
    sp.start = SimTime::ns(4);
    const SimTime t_end =
        sp.start + cfg.rate.ui_to_time(static_cast<double>(kBits));

    auto run = [&](exec::ThreadPool* pool) {
        auto batch =
            std::make_unique<sim::batch::ChannelBatch>(cfg, kLanes);
        for (std::size_t k = 0; k < kLanes; ++k) {
            batch->seed_lane(k, exec::derive_seed(5, k));
            batch->drive(k, lane_edges(exec::derive_seed(5, 100 + k), kBits,
                                       sp));
        }
        batch->run_until(t_end, pool);
        return batch;
    };

    const auto serial = run(nullptr);
    for (const std::size_t threads : {std::size_t{2}, std::size_t{4}}) {
        exec::ThreadPool pool(threads);
        const auto pooled = run(&pool);
        for (std::size_t k = 0; k < kLanes; ++k) {
            ASSERT_EQ(pooled->decisions(k).size(),
                      serial->decisions(k).size());
            for (std::size_t i = 0; i < serial->decisions(k).size(); ++i) {
                EXPECT_EQ(pooled->decisions(k)[i].time,
                          serial->decisions(k)[i].time);
                EXPECT_EQ(pooled->decisions(k)[i].bit,
                          serial->decisions(k)[i].bit);
            }
            EXPECT_EQ(pooled->margins_ui(k), serial->margins_ui(k));
            EXPECT_EQ(pooled->events_executed(k),
                      serial->events_executed(k));
        }
    }
}

TEST(NormalBank, MatchesRngGaussianStream) {
    for (const std::uint64_t seed : {1ull, 2ull, 0xDEADBEEFull}) {
        sim::batch::NormalBank bank(3);
        bank.seed_lane(0, seed);
        bank.seed_lane(1, seed + 1);
        bank.seed_lane(2, seed ^ 0x5555);
        Rng r0(seed), r1(seed + 1), r2(seed ^ 0x5555);
        for (int i = 0; i < 5000; ++i) {
            EXPECT_EQ(bank.next(0), r0.gaussian()) << i;
            EXPECT_EQ(bank.next(1), r1.gaussian()) << i;
            EXPECT_EQ(bank.next(2), r2.gaussian()) << i;
        }
    }
    // Explicit refills of odd sizes and of sizes that cross the block
    // generator's 256-value blocks, each followed by a partial pop: the
    // stream must not depend on how it was chunked.
    sim::batch::NormalBank bank(1);
    bank.seed_lane(0, 99);
    Rng ref(99);
    std::size_t popped = 0;
    for (const std::size_t want :
         {1u, 3u, 255u, 256u, 257u, 129u, 513u, 2u, 4097u, 12288u}) {
        bank.refill(0, want);
        ASSERT_GE(bank.size(0) - bank.head(0), want);
        for (std::size_t i = 0; i < want / 2 + 1; ++i, ++popped) {
            ASSERT_EQ(bank.next(0), ref.gaussian()) << popped;
        }
    }
}

TEST(SimdShim, ConvolveDirectMatchesNaive) {
    Rng rng(11);
    std::vector<double> a(37), b(53);
    for (auto& x : a) x = rng.uniform();
    for (auto& x : b) x = rng.uniform();
    const auto got = convolve_direct(a, b);
    std::vector<double> want(a.size() + b.size() - 1, 0.0);
    for (std::size_t i = 0; i < a.size(); ++i) {
        for (std::size_t j = 0; j < b.size(); ++j) {
            want[i + j] += a[i] * b[j];
        }
    }
    ASSERT_EQ(got.size(), want.size());
    EXPECT_EQ(std::memcmp(got.data(), want.data(),
                          want.size() * sizeof(double)),
              0);
}

// Latent samples spread over every run length, as an engine draws them.
std::vector<mc::RunSample> random_samples(int max_cid, std::size_t n) {
    Rng rng(3);
    const auto pmf = statmodel::run_length_probs(max_cid);
    std::vector<mc::RunSample> samples(n);
    for (auto& s : samples) {
        s.run_length = mc::run_length_from_uniform(pmf, rng.uniform());
        s.u_dj = rng.uniform();
        s.z_edge = rng.gaussian();
        s.z_trig = rng.gaussian();
        s.z_osc = rng.gaussian();
        s.u_phase = rng.uniform();
        s.z_early = rng.gaussian();
        s.noise_seed = rng.generator()();
    }
    return samples;
}

mc::BehavioralMarginModel::Params sj030_params() {
    statmodel::ModelConfig mcfg;
    mcfg.spec.sj_uipp = 0.30;
    mcfg.sj_freq_norm = 0.5;
    return mc::BehavioralMarginModel::params_from(mcfg);
}

TEST(BehavioralMarginModel, BatchedOracleMatchesScalar) {
    auto params = sj030_params();
    params.batch_lanes = 4;  // 23 samples: five full batches and a partial
    const mc::BehavioralMarginModel model(params);
    const auto samples = random_samples(params.max_cid, 23);
    std::vector<double> batched(samples.size());
    model.margin_ui_batch(samples.data(), samples.size(), batched.data());
    for (std::size_t i = 0; i < samples.size(); ++i) {
        EXPECT_EQ(batched[i], model.margin_ui(samples[i])) << i;
    }
    EXPECT_EQ(model.batch_stats().evals.load(), samples.size());
}

TEST(BehavioralMarginModel, DefaultParamsRunTheBatchKernel) {
    // params_from's defaults: every margin_ui_batch evaluation runs on
    // the SoA kernel, 16 clones per ChannelBatch.
    const mc::BehavioralMarginModel model(sj030_params());
    const auto samples = random_samples(model.max_run_length(), 23);
    std::vector<double> out(samples.size());
    model.margin_ui_batch(samples.data(), samples.size(), out.data());
    EXPECT_EQ(model.batch_stats().evals.load(), samples.size());
    EXPECT_EQ(model.batch_stats().batches.load(), 2u);
}

TEST(BehavioralMarginModel, FlightRecorderKeepsTheEventKernel) {
    obs::FlightRecorder::Config fcfg;
    fcfg.max_dumps = 0;  // count failed clones, write no files
    obs::FlightRecorder rec(fcfg);
    auto params = sj030_params();
    params.flight = &rec;
    const mc::BehavioralMarginModel flight_model(params);
    const mc::BehavioralMarginModel batch_model(sj030_params());
    const auto samples = random_samples(params.max_cid, 23);
    std::vector<double> flight(samples.size());
    std::vector<double> batched(samples.size());
    flight_model.margin_ui_batch(samples.data(), samples.size(),
                                 flight.data());
    batch_model.margin_ui_batch(samples.data(), samples.size(),
                                batched.data());
    EXPECT_EQ(flight_model.batch_stats().evals.load(), 0u);
    EXPECT_EQ(std::memcmp(flight.data(), batched.data(),
                          flight.size() * sizeof(double)),
              0);
}

}  // namespace
