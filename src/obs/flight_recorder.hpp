#pragma once
// Flight recorder: fixed-size wait-free rings of the last N simulation
// events per channel, dumped to JSON (plus an optional VCD window around
// the failure time) when something goes wrong — lock loss, elastic
// over/underflow, schedule_at-in-the-past or a failed MC clone.
//
// Layering note: this module is obs-level and knows nothing about
// sim::Wire or sim::VcdWriter. Times are raw femtosecond integers and the
// waveform window is produced by a caller-installed hook, so sim/cdr can
// depend on obs without a cycle.
//
// Concurrency: each FlightRing has exactly one producer (the thread
// driving that channel's scheduler); append() is wait-free for that
// producer. dump() reads every ring and every attached tracer, so it is
// meant for after the producers have stopped (post-mortem) or for a
// recorder whose rings all share the dumping thread (MultiChannelCdr's
// lock-loss and fault paths). Producers that keep running on other
// threads while one of them faults (the MC pool lanes) use dump_ring(),
// which reads only the caller's own ring and tracer: nothing another
// thread writes or frees.

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "obs/trace_causal.hpp"

namespace gcdr::obs {

/// Filename-safe tag derived from a dump reason: [A-Za-z0-9-] preserved,
/// everything else '_', truncated to 48 chars ("lock_loss:ch2" ->
/// "lock_loss_ch2"). Dump files are named
/// "flight_dump_<tag>_<seq>.json" with a process-wide monotonic <seq>,
/// so simultaneous faults on different lanes (or recorders) never
/// overwrite each other's post-mortems. Exposed for tests.
[[nodiscard]] std::string sanitize_dump_tag(const std::string& reason);

/// One recorded simulation event. `kind` must be a string literal (the
/// ring stores the pointer; the append path never allocates).
struct FlightEvent {
    std::int64_t time_fs = 0;
    const char* kind = "";
    double value = 0.0;
    std::uint64_t cause_id = 0;  ///< causal trace id, 0 = untraced
};

class FlightRing {
public:
    FlightRing(std::string name, std::size_t capacity);

    void append(std::int64_t time_fs, const char* kind, double value,
                std::uint64_t cause_id = 0) {
        const std::uint64_t h = head_.load(std::memory_order_relaxed);
        slots_[h & mask_] = FlightEvent{time_fs, kind, value, cause_id};
        head_.store(h + 1, std::memory_order_release);
    }

    /// Retained events, oldest first.
    [[nodiscard]] std::vector<FlightEvent> snapshot() const;

    /// Tracer whose ids this ring's cause_id fields refer to; used by
    /// FlightRecorder::dump to emit the causal chain. The tracer must
    /// outlive the ring or be detached (set nullptr) first.
    void set_tracer(const CausalTracer* tracer) { tracer_ = tracer; }
    [[nodiscard]] const CausalTracer* tracer() const { return tracer_; }

    [[nodiscard]] const std::string& name() const { return name_; }
    [[nodiscard]] std::size_t capacity() const { return slots_.size(); }
    [[nodiscard]] std::uint64_t appended() const {
        return head_.load(std::memory_order_acquire);
    }

private:
    std::string name_;
    std::vector<FlightEvent> slots_;
    std::uint64_t mask_;
    std::atomic<std::uint64_t> head_{0};
    const CausalTracer* tracer_ = nullptr;
};

class FlightRecorder {
public:
    struct Config {
        std::size_t ring_capacity = 512;  ///< per ring, rounded to pow2
        std::string dump_dir = ".";
        std::size_t max_dumps = 8;  ///< later triggers are counted, not dumped
        std::int64_t window_fs = 50'000'000;  ///< waveform half-window (50 ns)
    };

    FlightRecorder();  ///< default Config
    explicit FlightRecorder(Config config);

    /// The ring for `name`, created on first use. Returned reference is
    /// stable for the recorder's lifetime.
    FlightRing& ring(const std::string& name);

    /// Install the waveform hook: given a file stem (dump path minus
    /// extension) and a [t0, t1] femtosecond window, write any waveform
    /// files and return their paths (listed in the JSON dump). Typically
    /// wraps VcdWriter::write_window.
    void set_waveform_dump(
        std::function<std::vector<std::string>(const std::string& stem,
                                               std::int64_t t0_fs,
                                               std::int64_t t1_fs)>
            hook);

    /// Write a post-mortem: JSON (schema gcdr.flight.dump/v1) with every
    /// ring's retained events plus the causal chain walked back from
    /// `focus_id` (or, when 0, from the newest traced event across all
    /// rings), and waveform files from the installed hook. Returns the
    /// JSON path, or "" once max_dumps is exhausted (the trigger still
    /// counts in triggers()).
    std::string dump(const std::string& reason, std::uint64_t focus_id = 0);

    /// Post-mortem of one producer, taken on its own thread while other
    /// rings keep recording: like dump(), but the JSON holds only `own`'s
    /// events and the causal chain from the newest traced one through
    /// `own`'s tracer, and no waveform hook runs (it covers the whole
    /// recorder). Counts against max_dumps like dump().
    std::string dump_ring(const FlightRing& own, const std::string& reason);

    [[nodiscard]] std::uint64_t triggers() const {
        return triggers_.load(std::memory_order_relaxed);
    }
    [[nodiscard]] std::vector<std::string> dump_paths() const;
    [[nodiscard]] const Config& config() const { return config_; }

private:
    /// The dump body over `rings`; the caller holds mu_.
    std::string write_dump(const std::string& reason, std::uint64_t focus_id,
                           const std::vector<const FlightRing*>& rings,
                           bool waveforms);

    Config config_;
    mutable std::mutex mu_;
    std::vector<std::unique_ptr<FlightRing>> rings_;
    std::function<std::vector<std::string>(const std::string&, std::int64_t,
                                           std::int64_t)>
        waveform_dump_;
    std::atomic<std::uint64_t> triggers_{0};
    std::vector<std::string> dump_paths_;
};

}  // namespace gcdr::obs
