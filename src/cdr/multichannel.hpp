#pragma once
// Multi-channel receiver top level (Fig 6 / Fig 2): one shared PLL
// generating the control current, N matched gated-oscillator channels, one
// elastic buffer per channel. The channels share the data *rate* but not
// the phase — each may see an arbitrary skew (Sec. 2.1).
//
// Engine rule: the channels run on the batched SoA kernel
// (sim::batch::ChannelBatch), bit-identical per lane to a GccoChannel on
// its own Scheduler. The per-channel Scheduler + GccoChannel graph runs
// only after enable_flight_recorder(), because causal ids and VCD windows
// exist only on the event kernel. Nothing else selects the engine, and
// both serve identical decisions, margins, health and metrics.

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "cdr/channel.hpp"
#include "cdr/elastic_buffer.hpp"
#include "cdr/pll.hpp"
#include "exec/thread_pool.hpp"
#include "obs/flight_recorder.hpp"
#include "obs/trace_causal.hpp"
#include "sim/batch/channel_batch.hpp"
#include "sim/vcd.hpp"

namespace gcdr::cdr {

struct MultiChannelConfig {
    int n_channels = 4;
    ChannelConfig channel;          ///< per-channel template
    PllConfig pll;                  ///< shared PLL
    /// Relative CCO frequency mismatch sigma between channels (matching of
    /// the current mirrors / oscillators, Sec. 2.2).
    double cco_mismatch_sigma = 1e-3;
    std::size_t elastic_depth = 64;

    /// Defaults tuned for the paper's 2.5 Gb/s, 4-channel receiver.
    [[nodiscard]] static MultiChannelConfig paper_receiver();
};

/// One channel's GCCO operating point: its mismatched oscillator at the
/// control current the shared PLL distributes.
struct GccoOperatingPoint {
    GccoParams params;
    double control_current_a = 0.0;

    [[nodiscard]] double frequency_hz() const {
        return params.frequency_at(control_current_a);
    }
};

/// Read-only results of one channel, served by whichever engine ran it.
/// Valid while the receiver lives and keeps its engine (a view taken
/// before enable_flight_recorder() dangles after it); decisions() and
/// margins_ui() grow as the receiver runs.
class ChannelView {
public:
    ChannelView(const std::vector<Decision>& decisions,
                const std::vector<double>& margins,
                const ChannelConfig& cfg)
        : decisions_(&decisions), margins_(&margins), cfg_(&cfg) {}

    /// All sampler decisions so far (time-ordered).
    [[nodiscard]] const std::vector<Decision>& decisions() const {
        return *decisions_;
    }
    /// Timing margins (UI), as GccoChannel::margins_ui().
    [[nodiscard]] const std::vector<double>& margins_ui() const {
        return *margins_;
    }
    [[nodiscard]] GccoOperatingPoint gcco() const {
        return {cfg_->gcco, cfg_->control_current_a};
    }
    /// As GccoChannel::measured_prbs_ber.
    [[nodiscard]] double measured_prbs_ber(encoding::PrbsOrder order,
                                           std::size_t skip_first = 64) const {
        return cdr::measured_prbs_ber(*decisions_, order, skip_first);
    }

private:
    const std::vector<Decision>* decisions_;
    const std::vector<double>* margins_;
    const ChannelConfig* cfg_;
};

class MultiChannelCdr {
public:
    /// Locks the shared PLL (behaviorally) and instantiates the channels
    /// with the distributed control current and per-channel mismatch.
    /// Every channel draws its jitter from a private RNG stream — stream
    /// i is `seed` advanced by i+1 Xoshiro256::long_jump()s (2^128 steps
    /// apart, so channel randomness never overlaps). The channels share
    /// no mutable state, which makes run_until() dispatchable across an
    /// exec::ThreadPool, and channel i's recovered stream depends only on
    /// (seed, i, its input edges) — not on thread count, scheduling
    /// order or engine.
    MultiChannelCdr(std::uint64_t seed, const MultiChannelConfig& cfg);

    // Hooks installed by attach_health/enable_flight_recorder capture
    // `this`, so the receiver neither copies nor moves.
    MultiChannelCdr(const MultiChannelCdr&) = delete;
    MultiChannelCdr& operator=(const MultiChannelCdr&) = delete;

    /// Advance the receiver to `t_end`, one pool item per channel when
    /// `pool` is given (bit-identical to the serial run). Successive calls
    /// with increasing `t_end` execute the same events as one call.
    void run_until(SimTime t_end, exec::ThreadPool* pool = nullptr);

    /// Channel `i`'s event-kernel scheduler. Only the flight engine
    /// (enable_flight_recorder) advances it; under the batch engine it
    /// stays idle, and batch_engine() reports the event counts.
    [[nodiscard]] sim::Scheduler& scheduler(int i) {
        return *scheds_[static_cast<std::size_t>(i)];
    }
    /// The batch engine, or null once enable_flight_recorder() moved the
    /// channels onto the event kernel.
    [[nodiscard]] const sim::batch::ChannelBatch* batch_engine() const {
        return batch_.get();
    }

    [[nodiscard]] int n_channels() const { return cfg_.n_channels; }
    [[nodiscard]] ChannelView channel(int i) const;
    [[nodiscard]] ElasticBuffer& elastic(int i) { return *elastic_[i]; }
    [[nodiscard]] BehavioralPll& pll() { return pll_; }

    /// Drive channel `i` with a jittered edge stream (skew baked into the
    /// edge times by the caller). All drives precede the first run.
    void drive(int i, const std::vector<jitter::Edge>& edges);

    /// Push every channel's recovered bits through its elastic buffer and
    /// read them back in the system-clock domain; returns per-channel
    /// system-domain bit streams.
    [[nodiscard]] std::vector<std::vector<bool>> drain_elastic();

    /// Telemetry for the whole receiver. Per channel i, registers
    /// "<prefix>.ch<i>.*" (the GccoChannel::attach_metrics instruments,
    /// with the same values on either engine, plus the elastic buffer's)
    /// and the lock surface:
    ///   <prefix>.pll.locked          gauge 0/1 — shared PLL at target
    ///   <prefix>.pll.freq_error_rel  gauge
    ///   <prefix>.ch<i>.freq_error_rel gauge — CCO deviation from HFCK
    ///   <prefix>.ch<i>.locked        gauge 0/1 — PLL locked AND channel
    ///       mismatch within `lock_tol_rel`
    ///   <prefix>.locked_channels     gauge
    /// Lock gauges refresh on attach and on update_lock_metrics().
    void attach_metrics(obs::MetricsRegistry& registry,
                        const std::string& prefix = "cdr");
    /// Recompute the lock-status gauges (e.g. after retuning). With a
    /// flight recorder enabled, a channel transitioning locked->unlocked
    /// triggers a post-mortem dump ("lock_loss:ch<i>") focused on that
    /// channel's newest traced event.
    void update_lock_metrics(double lock_tol_rel = 1e-2);

    /// Attach an in-situ health hub (obs/health): (re)configures `hub`
    /// with one monitor per channel — UI and sampling center taken from
    /// the channel template — and feeds each monitor its channel's margin
    /// stream. Any lane transitioning into kLost triggers a
    /// flight-recorder post-mortem ("health_lost:ch<i>") when
    /// enable_flight_recorder() is active. Call before running; `hub`
    /// must outlive the simulation. Pure observation: decisions and
    /// counters stay bit-identical to an unmonitored run at any thread
    /// count (each monitor is only touched by its channel's thread).
    void attach_health(obs::health::HealthHub& hub);
    [[nodiscard]] obs::health::HealthHub* health() const {
        return health_hub_;
    }

    /// Move the channels onto the event kernel and wire them into
    /// `recorder`:
    ///  - one flight ring per channel ("ch<i>") fed by record_flight(),
    ///  - one causal tracer per scheduler, attached so ring entries carry
    ///    walkable trace ids,
    ///  - a bounded per-channel VcdWriter (din / EDET / recovered clock /
    ///    recovered data, newest `vcd_max_changes` transitions) installed
    ///    as the recorder's waveform hook, so every dump includes a VCD
    ///    window around the failure,
    ///  - elastic over/underflow and schedule_at-in-the-past fault hooks
    ///    that dump immediately.
    /// Call once, before drive(); metrics and health attached earlier
    /// carry over. `recorder` must outlive the receiver. All channels
    /// start considered locked, so a receiver that never achieves lock
    /// dumps on the first update_lock_metrics().
    void enable_flight_recorder(obs::FlightRecorder& recorder,
                                std::size_t vcd_max_changes = 65536);

private:
    MultiChannelConfig cfg_;
    BehavioralPll pll_;
    /// Per-channel config: the template at the PLL's control current with
    /// this channel's CCO mismatch.
    std::vector<ChannelConfig> lane_cfg_;
    /// Per-channel RNG stream, kept to seed the flight engine.
    std::vector<Xoshiro256> streams_;
    std::vector<std::unique_ptr<sim::Scheduler>> scheds_;
    std::vector<std::unique_ptr<ElasticBuffer>> elastic_;
    bool driven_ = false;

    /// The batch engine; null once the flight engine took over.
    std::unique_ptr<sim::batch::ChannelBatch> batch_;
    /// The flight engine (empty until enable_flight_recorder()).
    std::vector<std::unique_ptr<Rng>> rngs_;
    std::vector<std::unique_ptr<GccoChannel>> channels_;

    obs::MetricsRegistry* metrics_ = nullptr;
    std::string metrics_prefix_;
    obs::health::HealthHub* health_hub_ = nullptr;

    // Flight-recorder state (empty until enable_flight_recorder()).
    obs::FlightRecorder* flight_ = nullptr;
    std::vector<std::unique_ptr<obs::CausalTracer>> tracers_;
    std::vector<std::unique_ptr<sim::VcdWriter>> vcds_;
    std::vector<bool> was_locked_;
};

}  // namespace gcdr::cdr
