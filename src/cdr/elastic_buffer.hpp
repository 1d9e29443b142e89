#pragma once
// Elastic buffer (Fig 4): transfers resynchronized data from the per-channel
// recovered-clock domain into the common system-clock domain. Because the
// recovered and system clocks may differ by up to the +-100 ppm data-rate
// spec, the buffer recenters by dropping or repeating SKIP symbols at
// defined boundaries (the standard 8b/10b skip-ordered-set mechanism,
// modeled at bit granularity with marked skippable positions).
//
// Storage is a fixed ring of `depth` slots, allocated once: occupancy
// never exceeds the depth (write() refuses a bit at full depth, and
// read()'s repeat of a skippable bit keeps it in the slot it would have
// left), so the FIFO needs no node allocation on the per-bit path.

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "obs/metrics.hpp"

namespace gcdr::cdr {

class ElasticBuffer {
public:
    /// `depth` in bits; read/write pointers start half-full apart.
    explicit ElasticBuffer(std::size_t depth = 64);

    /// Write one recovered bit. `skippable` marks bits belonging to a SKIP
    /// symbol that recentering may drop or repeat.
    void write(bool bit, bool skippable = false);

    /// Read one bit in the system-clock domain. Returns nullopt on
    /// underflow (and counts it).
    [[nodiscard]] std::optional<bool> read();

    [[nodiscard]] std::size_t occupancy() const { return size_; }
    [[nodiscard]] std::size_t depth() const { return depth_; }
    [[nodiscard]] std::uint64_t overflows() const { return overflows_; }
    [[nodiscard]] std::uint64_t underflows() const { return underflows_; }
    [[nodiscard]] std::uint64_t skips_dropped() const { return dropped_; }
    [[nodiscard]] std::uint64_t skips_inserted() const { return inserted_; }

    /// Telemetry. Registers under `prefix`:
    ///   <prefix>.overflows / .underflows /
    ///   <prefix>.skips_dropped / .skips_inserted     counters (mirrors of
    ///       the accessors above, kept live from attach time on)
    ///   <prefix>.occupancy_high_water / _low_water   gauges — the CDC
    ///       margin actually consumed; hitting depth or 0 means the
    ///       +-100 ppm recentering failed.
    void attach_metrics(obs::MetricsRegistry& registry,
                        const std::string& prefix);

    /// Invoked on every overflow ("elastic_overflow") and underflow
    /// ("elastic_underflow"), after the counters update — the flight
    /// recorder hooks in here to dump a post-mortem when the +-100 ppm
    /// recentering budget is exceeded.
    void set_fault_hook(std::function<void(const char* kind)> hook) {
        fault_hook_ = std::move(hook);
    }

private:
    struct Entry {
        bool bit;
        bool skippable;
    };

    /// Ring slot of the k-th oldest entry (k < depth).
    [[nodiscard]] std::size_t slot(std::size_t k) const {
        const std::size_t j = head_ + k;
        return j < depth_ ? j : j - depth_;
    }
    void recenter();
    void note_occupancy();

    std::size_t depth_;
    std::vector<Entry> ring_;  ///< depth_ slots; the FIFO starts at head_
    std::size_t head_ = 0;
    std::size_t size_ = 0;
    std::uint64_t overflows_ = 0;
    std::uint64_t underflows_ = 0;
    std::uint64_t dropped_ = 0;
    std::uint64_t inserted_ = 0;

    obs::Counter* m_overflows_ = nullptr;
    obs::Counter* m_underflows_ = nullptr;
    obs::Counter* m_dropped_ = nullptr;
    obs::Counter* m_inserted_ = nullptr;
    obs::Gauge* m_occ_high_ = nullptr;
    obs::Gauge* m_occ_low_ = nullptr;
    std::function<void(const char*)> fault_hook_;
};

}  // namespace gcdr::cdr
