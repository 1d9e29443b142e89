// Unit tests for the discrete-event kernel: scheduler ordering, VHDL
// transport-delay semantics on Wire, and the waveform tracer (the read
// side of sim::VcdWriter: edge times and the ASCII timing diagram).

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "sim/scheduler.hpp"
#include "sim/vcd.hpp"
#include "sim/wire.hpp"
#include "util/rng.hpp"

namespace gcdr::sim {
namespace {

TEST(Scheduler, ExecutesInTimeOrder) {
    Scheduler s;
    std::vector<int> order;
    s.schedule_at(SimTime::ps(30), [&] { order.push_back(3); });
    s.schedule_at(SimTime::ps(10), [&] { order.push_back(1); });
    s.schedule_at(SimTime::ps(20), [&] { order.push_back(2); });
    s.run();
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
    EXPECT_EQ(s.now(), SimTime::ps(30));
}

TEST(Scheduler, EqualTimesRunFifo) {
    Scheduler s;
    std::vector<int> order;
    for (int i = 0; i < 10; ++i) {
        s.schedule_at(SimTime::ps(5), [&order, i] { order.push_back(i); });
    }
    s.run();
    for (int i = 0; i < 10; ++i) EXPECT_EQ(order[i], i);
}

TEST(Scheduler, CallbacksCanScheduleMore) {
    Scheduler s;
    int count = 0;
    std::function<void()> chain = [&] {
        if (++count < 5) s.schedule_in(SimTime::ps(10), chain);
    };
    s.schedule_at(SimTime::ps(0), chain);
    s.run();
    EXPECT_EQ(count, 5);
    EXPECT_EQ(s.now(), SimTime::ps(40));
}

TEST(Scheduler, RunUntilStopsAtBoundary) {
    Scheduler s;
    int fired = 0;
    s.schedule_at(SimTime::ps(10), [&] { ++fired; });
    s.schedule_at(SimTime::ps(50), [&] { ++fired; });
    s.run_until(SimTime::ps(20));
    EXPECT_EQ(fired, 1);
    EXPECT_EQ(s.now(), SimTime::ps(20));
    EXPECT_EQ(s.pending_events(), 1u);
    s.run_until(SimTime::ps(100));
    EXPECT_EQ(fired, 2);
}

TEST(Scheduler, SchedulingIntoThePastThrowsInAllBuilds) {
    // Regression: this used to be assert-only, so a Release build would
    // silently enqueue the event and execute it out of order.
    Scheduler s;
    s.schedule_at(SimTime::ps(100), [] {});
    s.run();
    ASSERT_EQ(s.now(), SimTime::ps(100));
    EXPECT_THROW(s.schedule_at(SimTime::ps(99), [] {}), std::logic_error);
    // now() and the queue are untouched by the rejected event.
    EXPECT_EQ(s.now(), SimTime::ps(100));
    EXPECT_TRUE(s.empty());
    // Scheduling at exactly now() stays legal.
    bool ran = false;
    s.schedule_at(SimTime::ps(100), [&] { ran = true; });
    s.run();
    EXPECT_TRUE(ran);
}

TEST(Scheduler, FifoTieBreakAcrossWheelAndOverflow) {
    // Regression for the calendar-queue kernel: (time, insertion-seq) order
    // must hold across every storage tier — near-term wheel slots, the
    // far-future overflow heap (times several wheel horizons out), and
    // same-time ties straddling both. The wheel horizon is ~1 ns, so the
    // +1 us events exercise heap-to-wheel migration.
    Scheduler s;
    std::vector<int> order;
    auto tag = [&order](int id) { return [&order, id] { order.push_back(id); }; };
    s.schedule_at(SimTime::us(1), tag(6));       // overflow
    s.schedule_at(SimTime::ps(5), tag(0));       // wheel
    s.schedule_at(SimTime::us(1), tag(7));       // overflow, same time: FIFO
    s.schedule_at(SimTime::ps(5), tag(1));       // wheel, same time: FIFO
    s.schedule_at(SimTime::ps(5) + SimTime::fs(1), tag(2));  // same slot, later
    s.schedule_at(SimTime::ns(500), tag(5));     // overflow, earlier than us(1)
    s.schedule_at(SimTime::ns(2), tag(3));       // beyond horizon of slot 0
    s.schedule_at(SimTime::ns(2), tag(4));       // tie with previous: FIFO
    s.run();
    EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4, 5, 6, 7}));
}

TEST(Scheduler, LateInWindowPushDoesNotShadowEarlierPending) {
    // Regression: after a pop empties its wheel slot, the queue's
    // minimum-slot hint is unknown. A subsequent push near the far edge of
    // the wheel window must not re-establish the hint at its own slot and
    // shadow earlier events still pending in between.
    Scheduler s;
    std::vector<int> order;
    auto tag = [&order](int id) { return [&order, id] { order.push_back(id); }; };
    s.schedule_at(SimTime::fs(36915), tag(0));    // popped first
    s.schedule_at(SimTime::fs(38335), tag(1));    // survives in a later slot
    s.schedule_at(SimTime::fs(41421), tag(2));
    s.schedule_at(SimTime::fs(36915), [&s, tag] {
        // From inside event 0: slot ~1002 is inside the wheel window but
        // far past the surviving slot-37 events.
        s.schedule_at(SimTime::fs(1026087), tag(3));
    });
    s.run();
    EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3}));
}

TEST(Scheduler, OrderMatchesReferenceSortUnderRandomLoad) {
    // Randomized cross-check against a stable sort by (time, insertion
    // order), with a coarse time quantum to force many exact ties and a
    // spread wide enough to keep both wheel and overflow populated.
    Scheduler s;
    Rng rng(1234);
    std::vector<std::pair<std::int64_t, int>> expected;  // (time_fs, id)
    std::vector<int> order;
    for (int id = 0; id < 2000; ++id) {
        const auto t_fs = static_cast<std::int64_t>(
            rng.uniform(0.0, 3e6));               // 0..3 ns
        const std::int64_t quantized = (t_fs / 7000) * 7000;
        expected.emplace_back(quantized, id);
        s.schedule_at(SimTime::fs(quantized), [&order, id] { order.push_back(id); });
    }
    std::stable_sort(expected.begin(), expected.end(),
                     [](const auto& a, const auto& b) { return a.first < b.first; });
    s.run();
    ASSERT_EQ(order.size(), expected.size());
    for (std::size_t i = 0; i < expected.size(); ++i) {
        EXPECT_EQ(order[i], expected[i].second) << "position " << i;
    }
}

TEST(Scheduler, EventsScheduledAtNowRunBeforeLaterTimes) {
    // A callback scheduling at exactly now() (the ring oscillator's startup
    // kick does this) must run before any strictly later pending event,
    // even one in the same wheel slot.
    Scheduler s;
    std::vector<int> order;
    s.schedule_at(SimTime::ps(10), [&] {
        order.push_back(1);
        s.schedule_at(s.now(), [&order] { order.push_back(2); });
        s.schedule_in(SimTime::fs(1), [&order] { order.push_back(3); });
    });
    s.schedule_at(SimTime::ps(10) + SimTime::fs(2), [&] { order.push_back(4); });
    s.run();
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3, 4}));
}

TEST(Scheduler, OversizedCapturesTakeTheHeapFallback) {
    // Captures beyond the inline callback buffer must still work (heap
    // path of InlineCallback) and run exactly once.
    Scheduler s;
    std::array<char, 128> blob{};
    blob[0] = 42;
    int hits = 0;
    s.schedule_at(SimTime::ps(1), [blob, &hits] { hits += blob[0]; });
    s.run();
    EXPECT_EQ(hits, 42);
}

TEST(Scheduler, StepReturnsFalseWhenEmpty) {
    Scheduler s;
    EXPECT_FALSE(s.step());
    s.schedule_at(SimTime::ps(1), [] {});
    EXPECT_TRUE(s.step());
    EXPECT_FALSE(s.step());
    EXPECT_EQ(s.executed_events(), 1u);
}

TEST(Wire, TransportDelayDeliversValue) {
    Scheduler s;
    Wire w(s, "w");
    w.post_transport(SimTime::ps(100), true);
    EXPECT_FALSE(w.value());
    s.run();
    EXPECT_TRUE(w.value());
    EXPECT_EQ(w.last_change(), SimTime::ps(100));
    EXPECT_EQ(w.transition_count(), 1u);
}

TEST(Wire, TransportPassesNarrowPulses) {
    // Transport (unlike inertial) delay must propagate pulses narrower than
    // the delay itself — the EDET pulse relies on this.
    Scheduler s;
    Wire w(s, "w");
    s.schedule_at(SimTime::ps(0), [&] { w.post_transport(SimTime::ps(500), true); });
    s.schedule_at(SimTime::ps(1), [&] { w.post_transport(SimTime::ps(500), false); });
    std::vector<std::pair<SimTime, bool>> seen;
    w.on_change([&] { seen.emplace_back(s.now(), w.value()); });
    s.run();
    ASSERT_EQ(seen.size(), 2u);
    EXPECT_EQ(seen[0], std::make_pair(SimTime::ps(500), true));
    EXPECT_EQ(seen[1], std::make_pair(SimTime::ps(501), false));
}

TEST(Wire, LaterPostCancelsPendingAtOrAfter) {
    // VHDL transport rule: a new transaction deletes pending transactions
    // scheduled at or after its own time.
    Scheduler s;
    Wire w(s, "w");
    std::vector<std::pair<SimTime, bool>> seen;
    w.on_change([&] { seen.emplace_back(s.now(), w.value()); });
    s.schedule_at(SimTime::ps(0), [&] {
        w.post_transport(SimTime::ps(100), true);   // t=100
        w.post_transport(SimTime::ps(50), false);   // t=50 cancels t=100
    });
    s.run();
    // The final value is false; the cancelled 'true' never fired (initial
    // value is already false, so no change events at all).
    EXPECT_TRUE(seen.empty());
    EXPECT_FALSE(w.value());
}

TEST(Wire, CancellationKeepsEarlierTransactions) {
    Scheduler s;
    Wire w(s, "w");
    std::vector<std::pair<SimTime, bool>> seen;
    w.on_change([&] { seen.emplace_back(s.now(), w.value()); });
    s.schedule_at(SimTime::ps(0), [&] {
        w.post_transport(SimTime::ps(10), true);
        w.post_transport(SimTime::ps(30), false);
        w.post_transport(SimTime::ps(20), true);  // cancels only the t=30
    });
    s.run();
    ASSERT_EQ(seen.size(), 1u);
    EXPECT_EQ(seen[0].first, SimTime::ps(10));
    EXPECT_TRUE(w.value());
}

TEST(Wire, SetNowClearsPending) {
    Scheduler s;
    Wire w(s, "w");
    w.post_transport(SimTime::ps(100), true);
    w.set_now(true);
    EXPECT_TRUE(w.value());
    w.set_now(false);
    s.run();
    EXPECT_FALSE(w.value());  // the pending 'true' was cancelled
}

TEST(Wire, RedundantValuePostsAreCollapsed) {
    Scheduler s;
    Wire w(s, "w");
    w.post_transport(SimTime::ps(10), false);  // same as current: no-op
    EXPECT_TRUE(s.empty());
    w.post_transport(SimTime::ps(10), true);
    w.post_transport(SimTime::ps(20), true);  // same as pending tail: no-op
    EXPECT_EQ(s.pending_events(), 1u);
    s.run();
    EXPECT_EQ(w.transition_count(), 1u);
}

TEST(Wire, ListenersSeeCommittedValueAtCommitTime) {
    Scheduler s;
    Wire a(s, "a");
    Wire b(s, "b");
    // b follows a with 10 ps transport delay, like a 1-gate netlist.
    a.on_change([&] { b.post_transport(SimTime::ps(10), a.value()); });
    s.schedule_at(SimTime::ps(100), [&] { a.set_now(true); });
    s.run();
    EXPECT_TRUE(b.value());
    EXPECT_EQ(b.last_change(), SimTime::ps(110));
}

TEST(Tracer, RecordsTransitionsAndEdges) {
    Scheduler s;
    Wire w(s, "clk");
    VcdWriter tr;
    tr.watch(w);
    for (int i = 1; i <= 6; ++i) {
        s.schedule_at(SimTime::ps(i * 100),
                      [&w, i] { w.set_now(i % 2 == 1); });
    }
    s.run();
    EXPECT_EQ(tr.change_count(), 6u);
    const auto rising = tr.edges_of("clk", /*rising_only=*/true);
    ASSERT_EQ(rising.size(), 3u);
    EXPECT_EQ(rising[0], SimTime::ps(100));
    EXPECT_EQ(rising[2], SimTime::ps(500));
    const auto all = tr.edges_of("clk");
    EXPECT_EQ(all.size(), 6u);
}

TEST(Tracer, EdgesOfUnwatchedNameThrows) {
    Scheduler s;
    Wire w(s, "clk");
    VcdWriter tr;
    tr.watch(w);
    EXPECT_TRUE(tr.edges_of("clk").empty());  // watched, never toggled
    try {
        (void)tr.edges_of("clkk");
        FAIL() << "an unwatched name must throw";
    } catch (const std::invalid_argument& e) {
        EXPECT_NE(std::string(e.what()).find("'clk'"), std::string::npos)
            << "the message lists the watched signals: " << e.what();
    }
}

TEST(Tracer, EdgesOfBoundedRingAreInTimeOrder) {
    // Once the ring wraps, its storage order is not time order; edges_of
    // must walk from the oldest retained change.
    Scheduler s;
    Wire w(s, "clk");
    VcdWriter tr;
    tr.watch(w);
    tr.set_max_changes(4);
    for (int i = 1; i <= 7; ++i) {
        s.schedule_at(SimTime::ps(i * 10),
                      [&w, i] { w.set_now(i % 2 == 1); });
    }
    s.run();
    EXPECT_EQ(tr.edges_of("clk"),
              (std::vector<SimTime>{SimTime::ps(40), SimTime::ps(50),
                                    SimTime::ps(60), SimTime::ps(70)}));
}

TEST(Tracer, AsciiDiagramShowsLevels) {
    Scheduler s;
    Wire w(s, "data");
    VcdWriter tr;
    tr.watch(w);
    s.schedule_at(SimTime::ps(500), [&] { w.set_now(true); });
    s.run();
    const auto art = tr.ascii_diagram(SimTime::ps(0), SimTime::ps(1000), 10);
    // Low for the first half, high for the second.
    EXPECT_NE(art.find("data"), std::string::npos);
    EXPECT_NE(art.find('_'), std::string::npos);
    EXPECT_NE(art.find('#'), std::string::npos);
}

TEST(Tracer, AsciiRowsStartInOneColumn) {
    // Every row's time axis starts in the same column, however long its
    // label: a row shifted right would draw its edges late.
    const std::string long_name = "a_much_longer_name";
    Scheduler s;
    Wire a(s, "a");
    Wire b(s, long_name);
    VcdWriter tr;
    tr.watch(a);
    tr.watch(b);
    s.schedule_at(SimTime::ps(500), [&] {
        a.set_now(true);
        b.set_now(true);
    });
    s.run();
    const auto art = tr.ascii_diagram(SimTime::ps(0), SimTime::ps(1000), 10);
    const auto nl = art.find('\n');
    ASSERT_NE(nl, std::string::npos);
    const std::string row_a = art.substr(0, nl);
    const std::string row_b = art.substr(nl + 1, art.size() - nl - 2);
    ASSERT_EQ(row_a.rfind("a ", 0), 0u) << art;
    ASSERT_EQ(row_b.rfind(long_name + " ", 0), 0u) << art;
    // The first waveform character after each label.
    EXPECT_EQ(row_a.find_first_of("_#|", 1),
              row_b.find_first_of("_#|", long_name.size()))
        << art;
    EXPECT_EQ(row_a.size(), row_b.size()) << art;
}

}  // namespace
}  // namespace gcdr::sim
