#pragma once
// One complete CDR channel (Fig 7 / Fig 15): edge detector -> gated ring
// oscillator -> decision sampler, plus the measurement hooks the paper's
// verification flow uses — the clock-aligned eye generator (Sec. 3.3b) and
// the timing-margin population for BER extrapolation.

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "cdr/edge_detector.hpp"
#include "cdr/gated_ring_osc.hpp"
#include "encoding/prbs.hpp"
#include "eye/eye_diagram.hpp"
#include "gates/cml_gates.hpp"
#include "jitter/jitter.hpp"
#include "obs/flight_recorder.hpp"
#include "obs/health/health_monitor.hpp"

namespace gcdr::cdr {

struct ChannelConfig {
    LinkRate rate = kPaperRate;
    GccoParams gcco;
    double control_current_a = 200e-6;  ///< from the shared PLL
    EdgeDetectorParams edge_detector;
    /// Use the inverted third-stage clock (Fig 15): sampling advanced T/8.
    bool improved_sampling = false;
    /// Sampler clock-to-q delay.
    SimTime sampler_delay = SimTime::ps(20);
    /// Eye-diagram horizontal bins.
    std::size_t eye_bins = 256;

    /// Channel tuned so the GCCO free-runs at `f_osc` with per-stage jitter
    /// realizing `ckj_uirms` at CID=5, and a delay line of 0.75 UI (inside
    /// the reliable T/2 < tau < T window).
    [[nodiscard]] static ChannelConfig nominal(double f_osc_hz,
                                               double ckj_uirms = 0.01,
                                               LinkRate rate = kPaperRate);
};

/// A sampler decision.
struct Decision {
    SimTime time;
    bool bit;
};

/// Counted BER of a recovered decision stream against a PRBS reference
/// (self-synchronizing), skipping the first `skip_first` decisions — see
/// GccoChannel::measured_prbs_ber.
[[nodiscard]] double measured_prbs_ber(const std::vector<Decision>& decisions,
                                       encoding::PrbsOrder order,
                                       std::size_t skip_first = 64);

/// Health-monitor config matched to a channel template: UI duration from
/// the link rate, sampling center 0.5 UI (0.625 with improved sampling) —
/// the same center lane_step::fold_margin_ui folds around.
[[nodiscard]] inline obs::health::HealthConfig health_config_for(
    const ChannelConfig& cfg) {
    obs::health::HealthConfig hc;
    hc.ui_fs = cfg.rate.ui_seconds() * 1e15;
    hc.center_ui = cfg.improved_sampling ? 0.625 : 0.5;
    return hc;
}

class GccoChannel {
public:
    GccoChannel(sim::Scheduler& sched, Rng& rng, const ChannelConfig& cfg,
                const std::string& name = "ch0");

    /// Schedule a jittered edge stream onto the channel input.
    void drive(const std::vector<jitter::Edge>& edges);

    [[nodiscard]] sim::Wire& din() { return *din_; }
    [[nodiscard]] EdgeDetector& edge_detector() { return *edet_; }
    [[nodiscard]] GatedRingOscillator& gcco() { return *gcco_; }
    [[nodiscard]] sim::Wire& recovered_clock() { return *sample_clk_; }
    [[nodiscard]] sim::Wire& recovered_data() { return *q_; }

    /// All sampler decisions so far (time-ordered).
    [[nodiscard]] const std::vector<Decision>& decisions() const {
        return decisions_;
    }
    /// Recovered bit values only.
    [[nodiscard]] std::vector<bool> recovered_bits() const;

    /// Clock-aligned eye of the data at the sampler input.
    [[nodiscard]] const eye::EyeBuilder& eye() const { return eye_; }
    [[nodiscard]] eye::EyeBuilder& eye() { return eye_; }

    /// Timing margins (UI) between each data transition and the preceding
    /// sampling-clock edge, unwrapped so near-misses go negative. Feed to
    /// ber::extrapolate_ber_from_margins.
    [[nodiscard]] const std::vector<double>& margins_ui() const {
        return margins_ui_;
    }

    /// Telemetry. Registers under `prefix` (e.g. "cdr.ch0"):
    ///   <prefix>.decisions            counter — sampler outputs
    ///   <prefix>.edet.pulses          counter — edge-detector pulses
    ///   <prefix>.gcco.gatings/.restarts/.period_ps
    ///   <prefix>.din.transitions      per-wire callback tallies
    ///   <prefix>.q.transitions
    void attach_metrics(obs::MetricsRegistry& registry,
                        const std::string& prefix);

    /// Attach an in-situ health monitor (obs/health). The channel feeds it
    /// the same folded margins that land in margins_ui() — pure
    /// observation, so an attached run stays bit-identical in decisions
    /// and counters. The monitor must outlive the simulation; pass
    /// nullptr to detach (the hot path pays one branch either way).
    void attach_health(obs::health::LaneHealthMonitor* monitor) {
        health_ = monitor;
    }
    [[nodiscard]] obs::health::LaneHealthMonitor* health() const {
        return health_;
    }

    /// Record this channel's key simulation events into a flight-recorder
    /// ring: input transitions ("din"), GCCO gating/restart (the EDET
    /// falls/rises that stop and relaunch the ring oscillator), sampling
    /// clock rises, and sampler decisions. Each entry carries the causal
    /// trace id of the scheduler event that produced it (0 when no tracer
    /// is attached), so a post-mortem can be walked decision → clock edge
    /// → GCCO gate → input edge. Call once; the ring must outlive the
    /// channel's simulation.
    void record_flight(obs::FlightRing& ring);

    /// Counted BER of the recovered stream against a PRBS reference
    /// (self-synchronizing). The first `skip_first` decisions are excluded:
    /// they cover the oscillator start-up and the idle-to-payload boundary,
    /// which the self-synchronizing checker would otherwise misattribute
    /// as channel errors.
    [[nodiscard]] double measured_prbs_ber(encoding::PrbsOrder order,
                                           std::size_t skip_first = 64) const;

private:
    ChannelConfig cfg_;
    sim::Scheduler* sched_;
    std::unique_ptr<sim::Wire> din_;
    std::unique_ptr<EdgeDetector> edet_;
    std::unique_ptr<GatedRingOscillator> gcco_;
    sim::Wire* sample_clk_ = nullptr;
    std::unique_ptr<sim::Wire> q_;
    std::unique_ptr<gates::CmlSampler> sampler_;
    std::vector<Decision> decisions_;
    eye::EyeBuilder eye_;
    std::vector<double> margins_ui_;
    std::vector<SimTime> pending_eye_edges_;
    SimTime last_clk_rise_{-1};
    obs::Counter* m_decisions_ = nullptr;
    obs::FlightRing* flight_ = nullptr;
    obs::health::LaneHealthMonitor* health_ = nullptr;
};

}  // namespace gcdr::cdr
