#pragma once
// In-situ lane-health monitoring (DESIGN.md §14). Real multi-channel CDR
// silicon ships lock detectors and background eye monitors next to every
// lane; this is the reproduction's equivalent, built to the same rules as
// the rest of obs/:
//
//   - pure observation: a monitor consumes the (time, decision-margin)
//     stream a lane already produces and never touches the simulation —
//     no RNG draws, no event mutation — so an attached run is
//     bit-identical in decisions/counters to a detached one,
//   - allocation-free hot path: samples land in a fixed power-of-two
//     ring; windows, histograms and EWMAs are fixed-size arrays updated
//     in place,
//   - per-lane state only: lanes never share mutable state, so health
//     snapshots are thread-count invariant for free (each lane is
//     stepped by exactly one scheduler thread),
//   - layering: obs/ must not depend on sim/cdr. The monitor speaks raw
//     femtoseconds and margin-in-UI doubles; cdr/ and sim/batch/ feed it
//     through a nullable pointer + one branch, the same zero-cost-when-
//     detached idiom as the tracers and the flight recorder.
//
// Signals per lane:
//   - windowed phase error (margin minus the sampling center, 0.5 UI or
//     0.625 UI improved) and decision margin: per-window mean/rms/min
//     plus cumulative fixed-bin histograms,
//   - a hysteretic lock-state machine acquiring -> locked -> degraded ->
//     lost that measures settling time and re-lock time in UI,
//   - an eye-opening estimator (1 - observed phase-error span, EWMA'd),
//   - EWMA drift detection (fast vs slow mean-phase-error trackers),
//   - a composite health score in [0, 1].
//
// Snapshots serialize as gcdr.health/v1 — the same bytes land in run
// reports and the daemon's /v1/health and /v1/watch frames.

#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

namespace gcdr::obs {
class MetricsRegistry;
}

namespace gcdr::obs::health {

inline constexpr const char* kHealthSchema = "gcdr.health/v1";

enum class LockState : int {
    kAcquiring = 0,
    kLocked = 1,
    kDegraded = 2,
    kLost = 3,
};

/// Stable lower-case name ("acquiring", "locked", "degraded", "lost").
[[nodiscard]] const char* lock_state_name(LockState s);

struct HealthConfig {
    /// One unit interval in femtoseconds (settling/re-lock times are
    /// reported in UI). 400 ps = the paper's 2.5 Gb/s rate.
    double ui_fs = 400e3;
    /// Sampling center the margins fold around: 0.5 UI, or 0.625 UI for
    /// the improved-sampling channel (cdr::lane_step::fold_margin_ui).
    double center_ui = 0.5;
    /// Samples per window. Must be a power of two (the sample ring's
    /// capacity is the window).
    std::size_t window = 64;

    // Window classification. A window is GOOD when its minimum margin
    // and mean phase error are comfortably inside the eye; BAD when a
    // transition came within bad_min_margin_ui of the sampling point
    // (folded decision errors go negative, so errors always classify
    // bad) or the mean phase error left the eye region. Neither -> a
    // neutral window: it breaks a good streak without feeding the lost
    // counter. Defaults tolerate the paper's full Table 1 jitter budget
    // (DJ 0.4 UIpp sweeps the mean +-0.2 UI).
    double good_min_margin_ui = 0.10;
    double good_max_abs_pe_ui = 0.30;
    double bad_min_margin_ui = 0.04;
    double bad_max_abs_pe_ui = 0.42;

    // Hysteresis (in windows).
    std::size_t lock_windows = 4;    ///< consecutive good -> locked
    std::size_t relock_windows = 2;  ///< good while degraded -> locked
    std::size_t lost_windows = 6;    ///< consecutive bad -> lost
    /// Acquiring for this many windows without locking -> lost (a lane
    /// that can never lock must still reach a terminal state so the
    /// post-mortem hook fires).
    std::size_t acquire_timeout_windows = 256;

    // EWMA coefficients.
    double eye_alpha = 0.25;
    double drift_fast_alpha = 0.30;
    double drift_slow_alpha = 0.03;
};

/// Cumulative fixed-bin histogram over a closed value range; out-of-range
/// samples clamp into the edge bins. POD-array storage, no allocation
/// after construction.
class FixedHistogram {
public:
    FixedHistogram() = default;
    FixedHistogram(double lo, double hi, std::size_t bins)
        : lo_(lo), hi_(hi), counts_(bins, 0) {}

    void record(double v);
    void reset() { for (auto& c : counts_) c = 0; }

    [[nodiscard]] std::size_t bins() const { return counts_.size(); }
    [[nodiscard]] std::uint64_t count(std::size_t i) const { return counts_[i]; }
    [[nodiscard]] double lo() const { return lo_; }
    [[nodiscard]] double hi() const { return hi_; }

private:
    double lo_ = 0.0;
    double hi_ = 1.0;
    std::vector<std::uint64_t> counts_;
};

/// Per-window summary statistics (the last completed window's are kept
/// for snapshots).
struct WindowStats {
    double mean_pe_ui = 0.0;  ///< mean phase error
    double rms_pe_ui = 0.0;   ///< rms phase error
    double min_margin_ui = 0.0;
    double max_margin_ui = 0.0;
};

/// One lane's monitor. Not thread-safe by design: exactly one simulation
/// thread feeds a lane (the per-channel scheduler or the batch kernel's
/// lane loop), which is what makes snapshots thread-count invariant.
class LaneHealthMonitor {
public:
    LaneHealthMonitor() { configure(HealthConfig{}); }
    explicit LaneHealthMonitor(const HealthConfig& cfg) { configure(cfg); }

    /// (Re)apply a config; resets all state. `window` is rounded up to a
    /// power of two.
    void configure(const HealthConfig& cfg);
    void reset();

    /// Hot path: one decision-margin sample (the folded margin the lane
    /// already computes for its eye/margin telemetry). `time_fs` is the
    /// transition's absolute simulation time.
    void on_margin(std::int64_t time_fs, double margin_ui);

    /// Invoked with the previous state on any transition INTO kLost —
    /// the flight-recorder dump hook. Set before the run starts.
    std::function<void(LockState from)> on_lost;

    // -- accessors ---------------------------------------------------
    [[nodiscard]] LockState state() const { return state_; }
    [[nodiscard]] std::uint64_t samples() const { return samples_; }
    [[nodiscard]] std::uint64_t windows() const { return windows_; }
    [[nodiscard]] std::uint64_t good_windows() const { return good_windows_; }
    [[nodiscard]] std::uint64_t bad_windows() const { return bad_windows_; }
    /// Folded margins below zero: a transition landed past the sampling
    /// point, i.e. an almost-certain decision error.
    [[nodiscard]] std::uint64_t margin_violations() const {
        return margin_violations_;
    }
    /// Settling time in UI from the first sample to the first lock;
    /// negative while never locked.
    [[nodiscard]] double settle_ui() const { return settle_ui_; }
    [[nodiscard]] std::uint64_t relocks() const { return relocks_; }
    /// Duration of the last degraded -> locked recovery in UI; negative
    /// when no re-lock has happened.
    [[nodiscard]] double last_relock_ui() const { return last_relock_ui_; }
    [[nodiscard]] double eye_ui() const { return eye_ui_; }
    [[nodiscard]] double drift_ui() const { return drift_ui_; }
    /// Composite score in [0, 1]: lock-state weight x eye opening x a
    /// drift penalty. 0 the moment a lane is lost.
    [[nodiscard]] double score() const;
    [[nodiscard]] const WindowStats& last_window() const { return last_window_; }
    [[nodiscard]] const FixedHistogram& pe_histogram() const { return pe_hist_; }
    [[nodiscard]] const FixedHistogram& margin_histogram() const {
        return margin_hist_;
    }
    [[nodiscard]] const HealthConfig& config() const { return cfg_; }

private:
    void complete_window(std::int64_t time_fs);
    void transition(LockState next, std::int64_t time_fs);

    HealthConfig cfg_;
    std::vector<double> ring_;  ///< pow2 sample ring == current window
    std::size_t ring_mask_ = 0;

    LockState state_ = LockState::kAcquiring;
    std::uint64_t samples_ = 0;
    std::uint64_t windows_ = 0;
    std::uint64_t good_windows_ = 0;
    std::uint64_t bad_windows_ = 0;
    std::uint64_t margin_violations_ = 0;
    std::size_t good_streak_ = 0;
    std::size_t bad_streak_ = 0;
    std::int64_t first_sample_fs_ = -1;
    std::int64_t degraded_since_fs_ = -1;
    double settle_ui_ = -1.0;
    std::uint64_t relocks_ = 0;
    double last_relock_ui_ = -1.0;
    double eye_ui_ = 0.0;
    double drift_fast_ui_ = 0.0;
    double drift_slow_ui_ = 0.0;
    double drift_ui_ = 0.0;
    bool ewma_primed_ = false;
    WindowStats last_window_;
    FixedHistogram pe_hist_;
    FixedHistogram margin_hist_;
};

/// A receiver's worth of monitors plus the serialization / export
/// surface. Owns one LaneHealthMonitor per lane; lanes are configured
/// identically (the scenario layer's channel-template rule) but step
/// independently.
class HealthHub {
public:
    HealthHub() = default;
    HealthHub(std::size_t n_lanes, const HealthConfig& cfg) {
        configure(n_lanes, cfg);
    }

    void configure(std::size_t n_lanes, const HealthConfig& cfg);

    [[nodiscard]] std::size_t lanes() const { return lanes_.size(); }
    [[nodiscard]] LaneHealthMonitor& lane(std::size_t i) { return lanes_[i]; }
    [[nodiscard]] const LaneHealthMonitor& lane(std::size_t i) const {
        return lanes_[i];
    }

    /// Lanes currently in kLocked.
    [[nodiscard]] std::size_t locked_lanes() const;
    /// True when every lane is locked.
    [[nodiscard]] bool all_locked() const;

    /// One gcdr.health/v1 snapshot document:
    ///   {"schema":"gcdr.health/v1","lanes":[{...lane 0...},...]}
    /// Deterministic for a given monitor state — the daemon's final
    /// /v1/watch frame and the run report's health block are this exact
    /// string, which is what makes them byte-comparable.
    [[nodiscard]] std::string snapshot_json() const;

    /// Publish per-lane health gauges into a registry under
    /// `<prefix>.ch<i>.health.*` (state/score/eye_ui/drift_ui/settle_ui/
    /// relocks/windows/good_windows/bad_windows/margin_violations) plus
    /// `<prefix>.health.locked_lanes`. Values are deterministic, so
    /// reports that carry them still diff bit-identical across thread
    /// counts.
    void publish(MetricsRegistry& reg, const std::string& prefix) const;

private:
    std::vector<LaneHealthMonitor> lanes_;
};

/// Serialize one lane's state as the per-lane object inside a
/// gcdr.health/v1 snapshot (exposed for tests).
[[nodiscard]] std::string lane_health_json(const LaneHealthMonitor& m,
                                           std::size_t lane);

}  // namespace gcdr::obs::health
