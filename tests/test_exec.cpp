// Unit tests for the execution layer (exec/): ThreadPool fork-join
// semantics (full index coverage, exception propagation, nested-call
// fallback, lane indexing), deterministic seed derivation, SweepGrid
// flat-index decoding against hand-rolled nested loops, and the two
// determinism guarantees the subsystem exists for — sweep results and
// multi-channel behavioral runs bit-identical across thread counts —
// plus Xoshiro256::long_jump stream independence.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <set>
#include <stdexcept>
#include <vector>

#include "cdr/multichannel.hpp"
#include "encoding/prbs.hpp"
#include "exec/sweep.hpp"
#include "exec/thread_pool.hpp"
#include "jitter/jitter.hpp"
#include "util/rng.hpp"

namespace gcdr::exec {
namespace {

// ---------------------------------------------------------------------------
// ThreadPool

TEST(ThreadPool, SizeCountsCallerLane) {
    ThreadPool serial(1);
    EXPECT_EQ(serial.size(), 1u);
    ThreadPool four(4);
    EXPECT_EQ(four.size(), 4u);
}

TEST(ThreadPool, EveryIndexRunsExactlyOnce) {
    ThreadPool pool(4);
    constexpr std::size_t kN = 10007;  // prime: no lucky chunk alignment
    std::vector<std::atomic<int>> hits(kN);
    pool.parallel_for(kN, [&](std::size_t i) {
        hits[i].fetch_add(1, std::memory_order_relaxed);
    });
    for (std::size_t i = 0; i < kN; ++i) {
        ASSERT_EQ(hits[i].load(), 1) << "index " << i;
    }
}

TEST(ThreadPool, SerialPoolRunsInOrderOnCaller) {
    ThreadPool pool(1);
    std::vector<std::size_t> order;
    pool.parallel_for(5, [&](std::size_t i) {
        order.push_back(i);  // no synchronization: single lane by contract
        EXPECT_EQ(ThreadPool::lane_index(), 0u);
    });
    EXPECT_EQ(order, (std::vector<std::size_t>{0, 1, 2, 3, 4}));
}

TEST(ThreadPool, ZeroItemsIsANoOp) {
    ThreadPool pool(3);
    bool ran = false;
    pool.parallel_for(0, [&](std::size_t) { ran = true; });
    EXPECT_FALSE(ran);
}

TEST(ThreadPool, FirstExceptionPropagatesAllItemsStillRun) {
    ThreadPool pool(4);
    constexpr std::size_t kN = 101;
    std::atomic<int> executed{0};
    EXPECT_THROW(
        pool.parallel_for(kN,
                          [&](std::size_t i) {
                              executed.fetch_add(1);
                              if (i == 42) {
                                  throw std::runtime_error("item 42");
                              }
                          }),
        std::runtime_error);
    // The barrier completed: every index ran even though one threw.
    EXPECT_EQ(executed.load(), static_cast<int>(kN));
    // The pool survives for the next job.
    std::atomic<int> again{0};
    pool.parallel_for(7, [&](std::size_t) { again.fetch_add(1); });
    EXPECT_EQ(again.load(), 7);
}

TEST(ThreadPool, LaneIndexWithinPoolBounds) {
    ThreadPool pool(4);
    EXPECT_EQ(ThreadPool::lane_index(), 0u);  // outside any parallel_for
    std::vector<std::atomic<int>> lane_hits(pool.size());
    pool.parallel_for(1000, [&](std::size_t) {
        const std::size_t lane = ThreadPool::lane_index();
        ASSERT_LT(lane, pool.size());
        lane_hits[lane].fetch_add(1, std::memory_order_relaxed);
    });
    int total = 0;
    for (auto& h : lane_hits) total += h.load();
    EXPECT_EQ(total, 1000);
}

TEST(ThreadPool, NestedParallelForRunsInline) {
    ThreadPool pool(4);
    std::atomic<int> inner_total{0};
    pool.parallel_for(8, [&](std::size_t) {
        // Nested call must not deadlock: it degenerates to an inline loop
        // on the current lane.
        pool.parallel_for(16, [&](std::size_t) {
            inner_total.fetch_add(1, std::memory_order_relaxed);
        });
    });
    EXPECT_EQ(inner_total.load(), 8 * 16);
}

// ---------------------------------------------------------------------------
// Seed derivation + SweepGrid

TEST(DeriveSeed, PureDistinctAndBaseSensitive) {
    EXPECT_EQ(derive_seed(1, 0), derive_seed(1, 0));
    std::set<std::uint64_t> seen;
    for (std::uint64_t base : {0ull, 1ull, 0xDEADBEEFull}) {
        EXPECT_NE(derive_seed(base, 0), base);  // golden-ratio offset
        for (std::uint64_t i = 0; i < 1000; ++i) {
            seen.insert(derive_seed(base, i));
        }
    }
    // splitmix64 finalizer: no collisions across 3 bases x 1000 indices.
    EXPECT_EQ(seen.size(), 3000u);
}

TEST(SweepGrid, SizeIsProductOfAxes) {
    SweepGrid grid;
    EXPECT_EQ(grid.size(), 0u);
    grid.axis("a", {1.0, 2.0, 3.0});
    EXPECT_EQ(grid.size(), 3u);
    grid.axis("b", {10.0, 20.0});
    EXPECT_EQ(grid.size(), 6u);
    EXPECT_EQ(grid.n_axes(), 2u);
    EXPECT_EQ(grid.axis_at(0).name, "a");
}

TEST(SweepGrid, FlatIndexMatchesNestedLoopOrder) {
    const std::vector<double> slow = {1.0, 2.0, 3.0};
    const std::vector<double> fast = {10.0, 20.0};
    SweepGrid grid;
    grid.axis("slow", slow).axis("fast", fast);
    std::size_t flat = 0;
    for (std::size_t s = 0; s < slow.size(); ++s) {
        for (std::size_t f = 0; f < fast.size(); ++f, ++flat) {
            const SweepPoint p = grid.point(flat, /*base_seed=*/9);
            EXPECT_EQ(p.index, flat);
            EXPECT_EQ(p.seed, derive_seed(9, flat));
            ASSERT_EQ(p.idx.size(), 2u);
            EXPECT_EQ(p.idx[0], s);
            EXPECT_EQ(p.idx[1], f);
            EXPECT_EQ(p.value[0], slow[s]);
            EXPECT_EQ(p.value[1], fast[f]);
        }
    }
    EXPECT_EQ(flat, grid.size());
}

// ---------------------------------------------------------------------------
// Determinism across thread counts

TEST(SweepRunner, StochasticSweepBitIdenticalAcrossThreadCounts) {
    SweepGrid grid;
    grid.axis("x", {0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7})
        .axis("y", {1.0, 2.0, 3.0, 4.0, 5.0});
    // A stochastic point function drawing only from p.seed — the contract
    // every parallel sweep must satisfy.
    const auto eval = [](const SweepPoint& p) {
        Rng rng(p.seed);
        double acc = p.value[0] * p.value[1];
        for (int k = 0; k < 100; ++k) acc += rng.gaussian();
        return acc;
    };
    ThreadPool serial(1);
    ThreadPool wide(8);
    const auto a = SweepRunner(serial, grid, 123).map<double>(eval);
    const auto b = SweepRunner(wide, grid, 123).map<double>(eval);
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
        ASSERT_EQ(a[i], b[i]) << "point " << i;  // exact, not approximate
    }
    // A different base seed yields a different surface.
    const auto c = SweepRunner(serial, grid, 124).map<double>(eval);
    EXPECT_NE(a, c);
}

TEST(SweepRunner, ZeroPointGridYieldsEmptyResult) {
    SweepGrid empty;                      // no axes at all
    SweepGrid degenerate;
    degenerate.axis("x", {}).axis("y", {1.0, 2.0});  // one axis empty
    ThreadPool pool(2);
    int calls = 0;
    const auto eval = [&](const SweepPoint&) {
        ++calls;
        return 1.0;
    };
    EXPECT_TRUE(SweepRunner(pool, empty, 1).map<double>(eval).empty());
    EXPECT_TRUE(
        SweepRunner(pool, degenerate, 1).map<double>(eval).empty());
    EXPECT_EQ(calls, 0);
}

TEST(SweepRunner, SingleThreadPoolRunsEveryPointInOrder) {
    SweepGrid grid;
    grid.axis("x", {1.0, 2.0, 3.0, 4.0, 5.0});
    ThreadPool serial(1);
    std::vector<std::size_t> visited;
    const auto out =
        SweepRunner(serial, grid, 7).map<double>([&](const SweepPoint& p) {
            visited.push_back(p.index);
            return p.value[0] * 10.0;
        });
    ASSERT_EQ(out.size(), 5u);
    for (std::size_t i = 0; i < 5; ++i) {
        EXPECT_EQ(visited[i], i);  // serial pool: caller-thread, in order
        EXPECT_DOUBLE_EQ(out[i], (static_cast<double>(i) + 1.0) * 10.0);
    }
}

TEST(SweepRunner, PointCountNotDividingLaneCountCoversAll) {
    // Stratum/point counts that don't divide evenly across lanes: 7
    // points on 4 lanes, 13 on 8 — every index runs exactly once and
    // results land in their own slots.
    for (auto [points, lanes] :
         {std::pair<std::size_t, std::size_t>{7, 4}, {13, 8}, {3, 8}}) {
        SweepGrid grid;
        std::vector<double> xs(points);
        for (std::size_t i = 0; i < points; ++i) {
            xs[i] = static_cast<double>(i);
        }
        grid.axis("x", xs);
        ThreadPool pool(lanes);
        const auto out = SweepRunner(pool, grid, 3)
                             .map<double>([](const SweepPoint& p) {
                                 return p.value[0] + 0.5;
                             });
        ASSERT_EQ(out.size(), points);
        for (std::size_t i = 0; i < points; ++i) {
            EXPECT_DOUBLE_EQ(out[i], static_cast<double>(i) + 0.5);
        }
    }
}

TEST(Xoshiro, LongJumpStreamsDoNotCollide) {
    // Channels get streams separated by 2^128 steps. Draw 4 streams from
    // one seed and check the first 1000 outputs of all streams are
    // pairwise distinct (a single collision of 64-bit outputs across 4000
    // draws would be a catastrophic correlation signal).
    Xoshiro256 stream(42);
    std::set<std::uint64_t> all;
    for (int ch = 0; ch < 4; ++ch) {
        stream.long_jump();
        Xoshiro256 local = stream;
        for (int i = 0; i < 1000; ++i) all.insert(local());
    }
    EXPECT_EQ(all.size(), 4000u);
}

TEST(Xoshiro, LongJumpIsDeterministic) {
    Xoshiro256 a(7), b(7);
    a.long_jump();
    b.long_jump();
    for (int i = 0; i < 16; ++i) EXPECT_EQ(a(), b());
}

TEST(MultiChannelCdr, ParallelRunBitIdenticalToSerial) {
    // Two receivers with the same seed and inputs;
    // one runs its channels serially, the other on a 4-lane pool. The
    // recovered system-domain streams must match bit for bit.
    const auto build_and_run = [](ThreadPool* pool) {
        auto cfg = cdr::MultiChannelConfig::paper_receiver();
        cdr::MultiChannelCdr rx(/*seed=*/77, cfg);
        Rng edge_rng(5);  // shared edge-stream RNG: consumed serially
        const std::size_t n_bits = 600;
        for (int lane = 0; lane < rx.n_channels(); ++lane) {
            encoding::PrbsGenerator gen(encoding::PrbsOrder::kPrbs7);
            jitter::StreamParams sp;
            sp.spec = jitter::JitterSpec::paper_table1();
            sp.start = SimTime::ns(4) + SimTime::ps(137 * lane);
            rx.drive(lane, jitter::jittered_edges(gen.bits(n_bits), sp,
                                                  edge_rng));
        }
        rx.run_until(SimTime::ns(8) + kPaperRate.ui_to_time(
                                          static_cast<double>(n_bits)),
                     pool);
        return rx.drain_elastic();
    };
    ThreadPool pool(4);
    const auto serial = build_and_run(nullptr);
    const auto parallel = build_and_run(&pool);
    ASSERT_EQ(serial.size(), parallel.size());
    for (std::size_t lane = 0; lane < serial.size(); ++lane) {
        EXPECT_FALSE(serial[lane].empty()) << "lane " << lane;
        EXPECT_EQ(serial[lane], parallel[lane]) << "lane " << lane;
    }
}

// ---------------------------------------------------------------------------
// ThreadPool::parallel_for with a stop flag

TEST(ThreadPoolCancellable, RunsEverythingWhenNeverStopped) {
    for (const std::size_t lanes : {std::size_t{1}, std::size_t{4}}) {
        ThreadPool pool(lanes);
        std::atomic<bool> stop{false};
        std::vector<std::atomic<int>> hit(100);
        const std::size_t ran = pool.parallel_for(
            hit.size(), [&](std::size_t i) { hit[i].fetch_add(1); }, &stop);
        EXPECT_EQ(ran, hit.size()) << lanes << " lanes";
        for (auto& h : hit) EXPECT_EQ(h.load(), 1);
    }
}

TEST(ThreadPoolCancellable, StopFlagHaltsHandoutMidRun) {
    for (const std::size_t lanes : {std::size_t{1}, std::size_t{4}}) {
        ThreadPool pool(lanes);
        std::atomic<bool> stop{false};
        std::atomic<std::size_t> executed{0};
        const std::size_t n = 1000;
        const std::size_t ran = pool.parallel_for(
            n,
            [&](std::size_t) {
                if (executed.fetch_add(1) + 1 >= 10) stop.store(true);
            },
            &stop);
        // At most one extra item per lane can be in flight when the flag
        // latches; the rest of the index space is never handed out.
        EXPECT_GE(ran, std::size_t{10}) << lanes << " lanes";
        EXPECT_LE(ran, 10 + lanes) << lanes << " lanes";
        EXPECT_EQ(ran, executed.load()) << lanes << " lanes";
    }
}

TEST(ThreadPoolCancellable, PreSetStopRunsNothing) {
    ThreadPool pool(4);
    std::atomic<bool> stop{true};
    std::atomic<int> calls{0};
    const std::size_t ran = pool.parallel_for(
        50, [&](std::size_t) { calls.fetch_add(1); }, &stop);
    EXPECT_EQ(ran, 0u);
    EXPECT_EQ(calls.load(), 0);
}

TEST(ThreadPoolCancellable, ExceptionsPropagateLikeParallelFor) {
    ThreadPool pool(4);
    std::atomic<bool> stop{false};
    EXPECT_THROW(pool.parallel_for(
                     8,
                     [&](std::size_t i) {
                         if (i == 3) throw std::runtime_error("boom");
                     },
                     &stop),
                 std::runtime_error);
    // The pool stays usable afterwards.
    std::atomic<int> ok{0};
    pool.parallel_for(4, [&](std::size_t) { ok.fetch_add(1); });
    EXPECT_EQ(ok.load(), 4);
}

TEST(ThreadPoolCancellable, PlainParallelForUnaffectedAfterCancelledJob) {
    // A cancelled job must not leave a stale stop pointer behind for the
    // next plain parallel_for.
    ThreadPool pool(4);
    std::atomic<bool> stop{true};
    (void)pool.parallel_for(16, [](std::size_t) {}, &stop);
    std::atomic<int> calls{0};
    pool.parallel_for(16, [&](std::size_t) { calls.fetch_add(1); });
    EXPECT_EQ(calls.load(), 16);
}

TEST(ThreadPoolCancellable, AttachedPoolCountsTheItemsThatRan) {
    // A job with a stop flag records its telemetry like any other job:
    // one job, and only the items that ran.
    for (const std::size_t lanes : {std::size_t{1}, std::size_t{4}}) {
        ThreadPool pool(lanes);
        obs::MetricsRegistry reg;
        pool.attach_metrics(&reg);
        std::atomic<bool> stop{false};
        std::atomic<std::size_t> executed{0};
        const std::size_t ran = pool.parallel_for(
            1000,
            [&](std::size_t) {
                if (executed.fetch_add(1) + 1 >= 10) stop.store(true);
            },
            &stop);
        EXPECT_LT(ran, 1000u) << lanes << " lanes";
        EXPECT_EQ(reg.counter("exec.jobs").value(), 1u) << lanes << " lanes";
        EXPECT_EQ(reg.counter("exec.items").value(), ran)
            << lanes << " lanes";
    }
}

}  // namespace
}  // namespace gcdr::exec
