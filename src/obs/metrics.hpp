#pragma once
// Telemetry core: a registry of named counters, gauges and log-scale
// histograms, plus RAII wall-clock probes. Designed to be zero-cost when
// unused — instrumented components hold plain pointers that default to
// nullptr, so a disabled run pays one predictable branch per hot-path
// event and nothing else. Registry lookups (by name) happen only at
// attach time; the returned references stay valid for the registry's
// lifetime.
//
// Units are by convention: counters are dimensionless event tallies,
// ScopedTimer records seconds, and histogram names carry their unit as a
// suffix (`_ps`, `_seconds`, ...). Exporters live in obs/json.hpp and
// obs/report.hpp.
//
// Thread safety (for the exec/ parallel sweep layer): Counter, Gauge and
// Histogram updates are atomic (relaxed ordering — instruments are
// statistics, not synchronization), and registry lookups are
// mutex-guarded, so instrumented code may run concurrently on a
// ThreadPool. Exporters (write_json/to_csv) and multi-field reads are
// snapshot-consistent only when writers are quiescent — take snapshots
// after parallel_for returns. Per-point tallies of a sweep are best added
// once after it returns, not as a contended atomic per point.

#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <limits>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace gcdr::obs {

/// Monotonically increasing event tally. inc() is atomic; concurrent
/// increments are never lost.
class Counter {
public:
    void inc(std::uint64_t n = 1) {
        value_.fetch_add(n, std::memory_order_relaxed);
    }
    [[nodiscard]] std::uint64_t value() const {
        return value_.load(std::memory_order_relaxed);
    }
    void reset() { value_.store(0, std::memory_order_relaxed); }

private:
    std::atomic<std::uint64_t> value_{0};
};

/// Last-written value, with high/low-water helpers for occupancy-style
/// measurements. Unset gauges export as null. Individual updates are
/// atomic (set_max/set_min via CAS, so concurrent water marks are never
/// lost); value()/has_value() pairs are only snapshot-consistent once
/// writers are quiescent.
class Gauge {
public:
    void set(double v) {
        value_.store(v, std::memory_order_relaxed);
        has_value_.store(true, std::memory_order_release);
    }
    /// Keep the maximum of all observations (high-water mark).
    void set_max(double v) { set_watermark(v, /*keep_max=*/true); }
    /// Keep the minimum of all observations (low-water mark).
    void set_min(double v) { set_watermark(v, /*keep_max=*/false); }
    [[nodiscard]] double value() const {
        return has_value() ? value_.load(std::memory_order_relaxed) : 0.0;
    }
    [[nodiscard]] bool has_value() const {
        return has_value_.load(std::memory_order_acquire);
    }

private:
    void set_watermark(double v, bool keep_max) {
        if (!has_value_.load(std::memory_order_acquire)) {
            set(v);  // benign race: a concurrent first write is resolved
                     // by the CAS loop below on the next observation
        }
        double cur = value_.load(std::memory_order_relaxed);
        while (keep_max ? v > cur : v < cur) {
            if (value_.compare_exchange_weak(cur, v,
                                             std::memory_order_relaxed)) {
                break;
            }
        }
    }

    std::atomic<double> value_{0.0};
    std::atomic<bool> has_value_{false};
};

/// Fixed log10-spaced histogram for positive measurements spanning many
/// orders of magnitude (periods in ps, timer seconds, BER values). The
/// bucket grid covers [1e-30, 1e12) with kPerDecade buckets per decade;
/// values at or below the range go to an underflow bucket, values above
/// to an overflow bucket. Exact count/sum/min/max are tracked alongside,
/// so means are not quantized — only quantiles are.
///
/// record() is atomic per field (no sample is lost under concurrency),
/// but note that sum() is then order-dependent in the last floating-point
/// bits: for bit-identical reports, record sweep results serially in
/// index order after the parallel region (the SweepRunner pattern).
class Histogram {
public:
    static constexpr int kPerDecade = 16;
    static constexpr int kMinExp = -30;  ///< lowest decade edge, 10^kMinExp
    static constexpr int kMaxExp = 12;   ///< highest decade edge, 10^kMaxExp
    static constexpr int kBuckets = (kMaxExp - kMinExp) * kPerDecade;

    void record(double v);

    [[nodiscard]] std::uint64_t count() const {
        return count_.load(std::memory_order_relaxed);
    }
    [[nodiscard]] double sum() const {
        return sum_.load(std::memory_order_relaxed);
    }
    [[nodiscard]] double min() const {
        return count() ? min_.load(std::memory_order_relaxed) : 0.0;
    }
    [[nodiscard]] double max() const {
        return count() ? max_.load(std::memory_order_relaxed) : 0.0;
    }
    [[nodiscard]] double mean() const {
        const auto n = count();
        return n ? sum() / static_cast<double>(n) : 0.0;
    }

    /// Quantile estimate (q in [0,1]) from the bucket the q-th sample
    /// falls in, clamped to the exact observed [min, max].
    [[nodiscard]] double quantile(double q) const;

    struct Bucket {
        double upper;         ///< bucket upper edge (inclusive)
        std::uint64_t count;  ///< samples in this bucket
    };
    /// Non-empty buckets in increasing order of upper edge. Underflow
    /// reports upper = 10^kMinExp; overflow reports upper = +inf.
    [[nodiscard]] std::vector<Bucket> nonempty_buckets() const;

    /// Upper edge of bucket index i (exposed for tests).
    [[nodiscard]] static double bucket_upper(int i);

private:
    [[nodiscard]] static int bucket_index(double v);

    std::array<std::atomic<std::uint64_t>, kBuckets> bins_{};
    std::atomic<std::uint64_t> underflow_{0};
    std::atomic<std::uint64_t> overflow_{0};
    std::atomic<std::uint64_t> count_{0};
    std::atomic<double> sum_{0.0};
    std::atomic<double> min_{std::numeric_limits<double>::infinity()};
    std::atomic<double> max_{-std::numeric_limits<double>::infinity()};
};

class JsonWriter;  // obs/json.hpp

/// Owner of all named instruments. Names are free-form dotted paths
/// ("sim.events_executed", "cdr.ch0.period_ps"); requesting the same name
/// twice returns the same instrument, so independent components can share
/// a tally. References remain valid until the registry is destroyed.
/// Instrument creation/lookup is mutex-guarded, so lanes of a parallel
/// sweep may attach lazily; the JSON/CSV exporters take the same lock for
/// a consistent directory. The raw map accessors return unguarded
/// references — use them only while no thread is creating instruments.
class MetricsRegistry {
public:
    Counter& counter(const std::string& name);
    Gauge& gauge(const std::string& name);
    Histogram& histogram(const std::string& name);

    [[nodiscard]] const std::map<std::string, std::unique_ptr<Counter>>&
    counters() const {
        return counters_;
    }
    [[nodiscard]] const std::map<std::string, std::unique_ptr<Gauge>>&
    gauges() const {
        return gauges_;
    }
    [[nodiscard]] const std::map<std::string, std::unique_ptr<Histogram>>&
    histograms() const {
        return histograms_;
    }

    /// Run `fn` with the instrument-creation mutex held, so external
    /// exporters (obs/prometheus.hpp) can walk the raw maps with the
    /// same consistency guarantee as write_json/to_csv. `fn` must not
    /// call back into counter()/gauge()/histogram().
    template <typename F>
    void with_export_lock(F&& fn) const {
        std::lock_guard<std::mutex> lk(mu_);
        fn();
    }

    /// Serialize as a {"counters":..,"gauges":..,"histograms":..} object
    /// into an in-progress writer (after w.key(...) or inside an array).
    void write_json(JsonWriter& w) const;
    /// Standalone pretty-printed JSON document of the same object.
    [[nodiscard]] std::string to_json() const;
    /// Flat CSV (kind,name,value) of counters and gauges — histogram
    /// summaries are exported as pseudo-gauges name.count/sum/mean.
    [[nodiscard]] std::string to_csv() const;

private:
    mutable std::mutex mu_;
    std::map<std::string, std::unique_ptr<Counter>> counters_;
    std::map<std::string, std::unique_ptr<Gauge>> gauges_;
    std::map<std::string, std::unique_ptr<Histogram>> histograms_;
};

/// RAII wall-clock probe: records elapsed seconds into a histogram on
/// destruction. Null-registry constructor is a no-op probe, so call sites
/// need no branching.
class ScopedTimer {
public:
    ScopedTimer(MetricsRegistry* registry, const std::string& name)
        : hist_(registry ? &registry->histogram(name) : nullptr),
          t0_(Clock::now()) {}
    explicit ScopedTimer(Histogram& h) : hist_(&h), t0_(Clock::now()) {}
    ~ScopedTimer() {
        if (hist_) hist_->record(seconds_so_far());
    }
    ScopedTimer(const ScopedTimer&) = delete;
    ScopedTimer& operator=(const ScopedTimer&) = delete;

    [[nodiscard]] double seconds_so_far() const {
        return std::chrono::duration<double>(Clock::now() - t0_).count();
    }

private:
    using Clock = std::chrono::steady_clock;
    Histogram* hist_;
    Clock::time_point t0_;
};

}  // namespace gcdr::obs
