// Tests for the elastic buffer (Fig 4): FIFO ordering, skip-based
// recentering, and overflow/underflow accounting.

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <deque>
#include <optional>
#include <string>
#include <vector>

#include "cdr/elastic_buffer.hpp"
#include "util/rng.hpp"

namespace gcdr::cdr {
namespace {

TEST(Elastic, StartsHalfFull) {
    ElasticBuffer eb(32);
    EXPECT_EQ(eb.occupancy(), 16u);
    EXPECT_EQ(eb.depth(), 32u);
}

TEST(Elastic, FifoOrderPreserved) {
    ElasticBuffer eb(32);
    // Drain the priming fill first.
    for (int i = 0; i < 16; ++i) (void)eb.read();
    const std::vector<bool> pattern{1, 0, 0, 1, 1, 1, 0, 1};
    for (bool b : pattern) eb.write(b);
    for (bool expected : pattern) {
        const auto got = eb.read();
        ASSERT_TRUE(got.has_value());
        EXPECT_EQ(*got, expected);
    }
}

TEST(Elastic, UnderflowCountedAndReported) {
    ElasticBuffer eb(8);
    for (int i = 0; i < 4; ++i) (void)eb.read();
    EXPECT_EQ(eb.underflows(), 0u);
    EXPECT_FALSE(eb.read().has_value());
    EXPECT_EQ(eb.underflows(), 1u);
}

TEST(Elastic, SkippableBitsAbsorbFastWriter) {
    // Writer 25% faster than reader: skippable bits must be dropped rather
    // than overflowing.
    ElasticBuffer eb(16);
    std::uint64_t wrote = 0;
    for (int cycle = 0; cycle < 400; ++cycle) {
        eb.write(cycle % 2 == 0, /*skippable=*/cycle % 4 == 0);
        ++wrote;
        if (cycle % 4 != 3) (void)eb.read();
    }
    EXPECT_EQ(eb.overflows(), 0u);
    EXPECT_GT(eb.skips_dropped(), 0u);
    EXPECT_LE(eb.occupancy(), eb.depth());
}

TEST(Elastic, SkipInsertionRefillsSlowWriter) {
    ElasticBuffer eb(16);
    // Reader much faster than writer; the skippable priming bits repeat.
    std::uint64_t reads_ok = 0;
    for (int cycle = 0; cycle < 64; ++cycle) {
        if (cycle % 8 == 0) eb.write(true, /*skippable=*/true);
        if (eb.read().has_value()) ++reads_ok;
    }
    EXPECT_GT(eb.skips_inserted(), 0u);
    EXPECT_GT(reads_ok, 32u);
}

TEST(Elastic, NonSkippablePayloadNeverDropped) {
    ElasticBuffer eb(64);
    for (int i = 0; i < 32; ++i) (void)eb.read();  // drain priming
    // Interleave payload with skippable filler; overfill on purpose.
    int payload_in = 0;
    for (int i = 0; i < 96; ++i) {
        const bool skippable = i % 2 == 0;
        eb.write(!skippable, skippable);
        if (!skippable) ++payload_in;
    }
    int payload_out = 0;
    while (eb.occupancy() > 0) {
        const auto b = eb.read();
        if (b.has_value() && *b) ++payload_out;
    }
    EXPECT_EQ(payload_out, payload_in);
}

TEST(Elastic, OverflowWithNoSkippableSlackIsCounted) {
    ElasticBuffer eb(8);
    for (int i = 0; i < 4; ++i) (void)eb.read();  // drain priming
    for (int i = 0; i < 16; ++i) eb.write(true, /*skippable=*/false);
    EXPECT_GT(eb.overflows(), 0u);
}

// The buffer's rules on a std::deque, kept here as the reference for the
// fixed-ring implementation: same bits, counters, watermarks and
// fault-hook calls for any operation sequence.
class DequeElastic {
public:
    explicit DequeElastic(std::size_t depth) : depth_(depth) {
        fifo_.assign(depth / 2, Entry{false, false});
        note();
    }

    void write(bool bit, bool skippable) {
        if (fifo_.size() >= depth_) {
            ++overflows;
            faults.emplace_back("elastic_overflow");
            recenter();
            if (fifo_.size() >= depth_) return;
        }
        fifo_.push_back(Entry{bit, skippable});
        note();
        if (fifo_.size() > (3 * depth_) / 4) recenter();
    }

    std::optional<bool> read() {
        if (fifo_.empty()) {
            ++underflows;
            faults.emplace_back("elastic_underflow");
            return std::nullopt;
        }
        const Entry e = fifo_.front();
        fifo_.pop_front();
        if (fifo_.size() < depth_ / 4 && e.skippable) {
            fifo_.push_front(e);
            ++inserted;
        }
        note();
        return e.bit;
    }

    [[nodiscard]] std::size_t occupancy() const { return fifo_.size(); }

    std::uint64_t overflows = 0, underflows = 0, dropped = 0, inserted = 0;
    double high = 0.0, low = 0.0;
    std::vector<std::string> faults;

private:
    struct Entry {
        bool bit;
        bool skippable;
    };

    void recenter() {
        const auto it =
            std::find_if(fifo_.begin(), fifo_.end(),
                         [](const Entry& e) { return e.skippable; });
        if (it == fifo_.end()) return;
        fifo_.erase(it);
        ++dropped;
    }

    void note() {
        const double occ = static_cast<double>(fifo_.size());
        high = noted_ ? std::max(high, occ) : occ;
        low = noted_ ? std::min(low, occ) : occ;
        noted_ = true;
    }

    std::size_t depth_;
    std::deque<Entry> fifo_;
    bool noted_ = false;
};

TEST(Elastic, RingMatchesDequeReferenceOnRandomTraffic) {
    std::uint64_t overflows = 0, underflows = 0, dropped = 0, inserted = 0;
    for (const std::size_t depth : {4u, 5u, 8u, 13u, 16u, 64u}) {
        for (std::uint64_t seed = 1; seed <= 4; ++seed) {
            ElasticBuffer eb(depth);
            obs::MetricsRegistry reg;
            eb.attach_metrics(reg, "eb");
            std::vector<std::string> faults;
            eb.set_fault_hook(
                [&](const char* kind) { faults.emplace_back(kind); });
            DequeElastic ref(depth);
            Rng rng(seed * 1000 + depth);
            // Phases of fast writer, slow writer and balanced traffic, with
            // no, some or mostly skippable bits.
            double p_write = 0.5, p_skip = 0.0;
            for (int op = 0; op < 20000; ++op) {
                if (op % 250 == 0) {
                    p_write = std::array{0.15, 0.5, 0.85}[rng.index(3)];
                    p_skip = std::array{0.0, 0.3, 0.9}[rng.index(3)];
                }
                if (rng.uniform() < p_write) {
                    const bool bit = rng.coin();
                    const bool skippable = rng.uniform() < p_skip;
                    eb.write(bit, skippable);
                    ref.write(bit, skippable);
                } else {
                    ASSERT_EQ(eb.read(), ref.read()) << "depth " << depth
                                                     << " seed " << seed
                                                     << " op " << op;
                }
                ASSERT_EQ(eb.occupancy(), ref.occupancy()) << op;
                ASSERT_LE(eb.occupancy(), depth);
            }
            // Read past the end (a skippable bit at low occupancy repeats
            // forever, so the drain is bounded, not run to empty).
            for (std::size_t i = 0; i < 4 * depth; ++i) {
                ASSERT_EQ(eb.read(), ref.read());
                ASSERT_EQ(eb.occupancy(), ref.occupancy());
            }
            EXPECT_EQ(faults, ref.faults);
            EXPECT_EQ(eb.overflows(), ref.overflows);
            EXPECT_EQ(eb.underflows(), ref.underflows);
            EXPECT_EQ(eb.skips_dropped(), ref.dropped);
            EXPECT_EQ(eb.skips_inserted(), ref.inserted);
            EXPECT_EQ(reg.counter("eb.overflows").value(), ref.overflows);
            EXPECT_EQ(reg.counter("eb.underflows").value(), ref.underflows);
            EXPECT_EQ(reg.counter("eb.skips_dropped").value(), ref.dropped);
            EXPECT_EQ(reg.counter("eb.skips_inserted").value(), ref.inserted);
            EXPECT_EQ(reg.gauge("eb.occupancy_high_water").value(), ref.high);
            EXPECT_EQ(reg.gauge("eb.occupancy_low_water").value(), ref.low);
            overflows += ref.overflows;
            underflows += ref.underflows;
            dropped += ref.dropped;
            inserted += ref.inserted;
        }
    }
    // The traffic reached every path: overflow, underflow, recenter drops
    // and repeat inserts.
    EXPECT_GT(overflows, 0u);
    EXPECT_GT(underflows, 0u);
    EXPECT_GT(dropped, 0u);
    EXPECT_GT(inserted, 0u);
}

}  // namespace
}  // namespace gcdr::cdr
