#include "cdr/channel.hpp"

#include "cdr/lane_step.hpp"

#include <cassert>
#include <cmath>

namespace gcdr::cdr {

ChannelConfig ChannelConfig::nominal(double f_osc_hz, double ckj_uirms,
                                     LinkRate rate) {
    ChannelConfig cfg;
    cfg.rate = rate;
    cfg.gcco.fc_hz = f_osc_hz;
    cfg.gcco.ic0_a = 200e-6;
    cfg.control_current_a = cfg.gcco.ic0_a;  // PLL at midpoint
    cfg.gcco.jitter_sigma = GccoParams::stage_sigma_for_ckj(ckj_uirms, 5);
    // Delay line: tau = 0.55 UI, four cells. The clean-edge reliable
    // window is T/2 < tau < T (Sec. 3.3a / Fig 13), but deterministic
    // jitter tightens the upper bound: two transitions nominally 1 UI
    // apart can close to 1 - DJpp, and if their spacing drops below tau
    // the EDET pulses merge and the bit between them is never sampled.
    // With the Table 1 budget (DJ 0.4 UIpp) tau must sit in (0.5, 0.6).
    cfg.edge_detector.n_cells = 4;
    cfg.edge_detector.cell_delay =
        SimTime::from_seconds(0.55 * rate.ui_seconds() / 4.0);
    cfg.edge_detector.cell_jitter_rel = cfg.gcco.jitter_sigma;
    return cfg;
}

GccoChannel::GccoChannel(sim::Scheduler& sched, Rng& rng,
                         const ChannelConfig& cfg, const std::string& name)
    : cfg_(cfg), sched_(&sched), eye_(cfg.rate, cfg.eye_bins) {
    din_ = std::make_unique<sim::Wire>(sched, name + "_din", false);
    edet_ = std::make_unique<EdgeDetector>(sched, rng, *din_,
                                           cfg.edge_detector, name + "_ed");
    gcco_ = std::make_unique<GatedRingOscillator>(
        sched, rng, cfg.gcco, edet_->edet(), cfg.control_current_a,
        name + "_gcco");
    sample_clk_ =
        cfg.improved_sampling ? &gcco_->ck_improved() : &gcco_->ckout();
    q_ = std::make_unique<sim::Wire>(sched, name + "_q", false);
    sampler_ = std::make_unique<gates::CmlSampler>(
        sched, rng, edet_->ddin(), *sample_clk_, *q_,
        gates::CmlTiming{cfg.sampler_delay, 0.0},
        [this](SimTime t, bool bit) {
            decisions_.push_back(Decision{t, bit});
            if (m_decisions_) m_decisions_->inc();
            if (flight_) {
                flight_->append(t.femtoseconds(), "decision",
                                bit ? 1.0 : 0.0, sched_->current_event_id());
            }
        });

    // Instrumentation: track sampling-clock rises, fold DDIN transitions
    // into the clock-aligned eye (the paper's eye generator block). Each
    // transition is folded against BOTH neighbouring rises: against the
    // following rise it forms the narrow left flank of the boundary
    // cluster (that rise is derived from the transition itself via the
    // retrigger), against the preceding rise the wide right flank carrying
    // the run's accumulated jitter — the Fig 14 asymmetry.
    sample_clk_->on_change([this] {
        if (!sample_clk_->value()) return;
        last_clk_rise_ = sched_->now();
        for (SimTime t_e : pending_eye_edges_) {
            // Startup guard: edges more than ~1.5 UI before this rise had
            // no chance to retrigger it; folding them would smear junk.
            if (cfg_.rate.time_to_ui(last_clk_rise_ - t_e) > 1.5) continue;
            eye_.add_transition(t_e, last_clk_rise_);
        }
        pending_eye_edges_.clear();
    });
    edet_->ddin().on_change([this] {
        const SimTime t = sched_->now();
        pending_eye_edges_.push_back(t);
        if (last_clk_rise_ < SimTime{0}) return;  // clock not started yet
        eye_.add_transition(t, last_clk_rise_);
        // Margin of the just-closed run's final sample: the closing edge
        // minus the latest clock rise. Nominally centered at 0.5 UI
        // (0.625 with the advanced sampling point). If the edge beat its
        // own sample (a decision error), the latest rise seen is one
        // period older, so the measurement lands near a full period;
        // unwrap those into small negative margins.
        const double margin = lane_step::fold_margin_ui(
            cfg_.rate, t, last_clk_rise_, cfg_.improved_sampling);
        margins_ui_.push_back(margin);
        if (health_) health_->on_margin(t.femtoseconds(), margin);
    });
}

void GccoChannel::attach_metrics(obs::MetricsRegistry& registry,
                                 const std::string& prefix) {
    m_decisions_ = &registry.counter(prefix + ".decisions");
    m_decisions_->inc(decisions_.size());
    edet_->attach_metrics(registry, prefix + ".edet");
    gcco_->attach_metrics(registry, prefix + ".gcco");
    din_->attach_metrics(registry, prefix + ".din");
    q_->attach_metrics(registry, prefix + ".q");
}

void GccoChannel::record_flight(obs::FlightRing& ring) {
    flight_ = &ring;
    din_->on_change([this] {
        flight_->append(sched_->now().femtoseconds(), "din",
                        din_->value() ? 1.0 : 0.0,
                        sched_->current_event_id());
    });
    // The EDET pulse is the GCCO's gate input (active low): a fall stops
    // the ring, the matching rise restarts it phase-aligned to the data
    // edge. These are the events a lock-loss chain must reach.
    edet_->edet().on_change([this] {
        const bool v = edet_->edet().value();
        flight_->append(sched_->now().femtoseconds(),
                        v ? "gcco_restart" : "gcco_gate", v ? 1.0 : 0.0,
                        sched_->current_event_id());
    });
    sample_clk_->on_change([this] {
        if (!sample_clk_->value()) return;
        flight_->append(sched_->now().femtoseconds(), "sample_clk_rise", 1.0,
                        sched_->current_event_id());
    });
}

void GccoChannel::drive(const std::vector<jitter::Edge>& edges) {
    for (const auto& e : edges) {
        assert(e.time >= sched_->now());
        // Capture only the level, not the whole Edge: the time is already
        // the event's key, and the smaller capture stays inline in the
        // scheduler's small-buffer callback.
        sched_->schedule_at(e.time,
                            [this, v = e.value] { din_->set_now(v); });
    }
}

std::vector<bool> GccoChannel::recovered_bits() const {
    std::vector<bool> bits;
    bits.reserve(decisions_.size());
    for (const auto& d : decisions_) bits.push_back(d.bit);
    return bits;
}

double measured_prbs_ber(const std::vector<Decision>& decisions,
                         encoding::PrbsOrder order, std::size_t skip_first) {
    encoding::PrbsChecker checker(order);
    std::size_t i = 0;
    for (const auto& d : decisions) {
        if (i++ < skip_first) continue;
        checker.feed(d.bit);
    }
    return checker.ber();
}

double GccoChannel::measured_prbs_ber(encoding::PrbsOrder order,
                                      std::size_t skip_first) const {
    return cdr::measured_prbs_ber(decisions_, order, skip_first);
}

}  // namespace gcdr::cdr
