#pragma once
// Span profiling: RAII wall-clock spans over named phases (sweep points,
// MC rounds/levels, convolve calls, whole bench runs) collected into
// per-thread ring buffers and exported as Chrome `trace_event` JSON —
// loadable in chrome://tracing or https://ui.perfetto.dev — plus a compact
// per-span summary folded into the gcdr.bench.report/v1 document.
//
// Cost model: a TraceSpan against a disabled collector is one relaxed
// atomic load in the constructor and one branch in the destructor — cheap
// enough to leave instrumentation compiled in everywhere. When enabled,
// each span costs two steady_clock reads plus one bounded vector append
// into the recording thread's private buffer (no lock on the record path;
// the only lock is taken once per thread at buffer registration). Buffers
// are fixed-capacity: overflowing spans are counted in dropped(), never
// reallocated mid-run.
//
// Merge determinism: merged() is a pure function of the recorded span
// *set* — spans are gathered from every thread buffer and sorted by
// (start, end, name, tid, seq), so the export does not depend on buffer
// registration order or on which thread's buffer is visited first. The
// wall-clock values themselves naturally vary run to run; determinism here
// means the serialization order for a given set of measurements.
//
// Span names must be string literals (or otherwise outlive the collector):
// buffers store the pointer, not a copy, so the record path never
// allocates.

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace gcdr::obs {

class JsonWriter;  // obs/json.hpp

class SpanCollector {
public:
    struct Span {
        const char* name;    ///< static string (see header comment)
        double t0_s;         ///< start, seconds since enable()
        double t1_s;         ///< end, seconds since enable()
        std::uint32_t tid;   ///< buffer (thread) index, registration order
        std::uint64_t seq;   ///< per-buffer record sequence
    };
    struct Summary {
        std::string name;
        std::uint64_t count = 0;
        double total_s = 0.0;
        double max_s = 0.0;
    };

    SpanCollector();

    /// Start collecting. Each recording thread gets a private buffer with
    /// room for `per_thread_capacity` spans; further spans are dropped
    /// (and counted). No-op when already enabled.
    void enable(std::size_t per_thread_capacity = 32768);
    /// Stop collecting. Recorded spans stay readable until clear().
    void disable();
    [[nodiscard]] bool enabled() const {
        return enabled_.load(std::memory_order_relaxed);
    }

    /// Seconds since enable() on the steady clock (0 when disabled).
    [[nodiscard]] double now_s() const;

    /// Append one span to the calling thread's buffer (no-op when
    /// disabled). Normally called by ~TraceSpan, not directly.
    void record(const char* name, double t0_s, double t1_s);

    /// Every recorded span in deterministic order (see header comment).
    [[nodiscard]] std::vector<Span> merged() const;
    /// Per-name count/total/max, sorted by name.
    [[nodiscard]] std::vector<Summary> summaries() const;
    /// Spans lost to full buffers, across all threads.
    [[nodiscard]] std::uint64_t dropped() const;

    /// Chrome trace_event document: {"traceEvents":[...]} with one
    /// complete ("ph":"X") event per span, timestamps in microseconds.
    [[nodiscard]] std::string chrome_trace_json() const;
    /// Write the Chrome trace to `path`; false (+ stderr note) on I/O
    /// failure.
    bool write_chrome_trace(const std::string& path) const;

    /// Forget all recorded spans (buffers stay registered, so cached
    /// thread-local pointers remain valid).
    void clear();

    /// Process-wide collector used by the default TraceSpan constructor
    /// and the instrumented library phases; enabled by bench `--trace`.
    static SpanCollector& global();

private:
    struct Buffer {
        Buffer(std::uint32_t tid, std::size_t capacity) : tid(tid) {
            spans.reserve(capacity);
        }
        std::uint32_t tid;
        std::vector<Span> spans;
        std::uint64_t dropped = 0;
        std::uint64_t next_seq = 0;
    };

    Buffer& local_buffer();

    /// Process-unique, never reused (unlike the address): keys the
    /// per-thread buffer cache.
    const std::uint64_t id_;
    std::atomic<bool> enabled_{false};
    std::chrono::steady_clock::time_point epoch_{};
    std::size_t capacity_ = 32768;
    mutable std::mutex mu_;
    std::vector<std::unique_ptr<Buffer>> buffers_;  // stable addresses
};

/// RAII span: captures the collector's enabled state at construction, so
/// a span straddling enable()/disable() is recorded consistently (either
/// fully or not at all).
class TraceSpan {
public:
    explicit TraceSpan(const char* name)
        : TraceSpan(name, SpanCollector::global()) {}
    TraceSpan(const char* name, SpanCollector& collector)
        : collector_(collector.enabled() ? &collector : nullptr),
          name_(name),
          t0_s_(collector_ ? collector_->now_s() : 0.0) {}
    ~TraceSpan() {
        if (collector_) collector_->record(name_, t0_s_, collector_->now_s());
    }
    TraceSpan(const TraceSpan&) = delete;
    TraceSpan& operator=(const TraceSpan&) = delete;

private:
    SpanCollector* collector_;
    const char* name_;
    double t0_s_;
};

}  // namespace gcdr::obs
