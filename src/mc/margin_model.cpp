#include "mc/margin_model.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <memory>
#include <numbers>
#include <string>

#include "exec/thread_pool.hpp"
#include "obs/trace_causal.hpp"
#include "sim/batch/channel_batch.hpp"
#include "sim/scheduler.hpp"
#include "statmodel/timing.hpp"

namespace gcdr::mc {

namespace {

// Clean alternating toggles ahead of every behavioral run, to start the
// oscillator. Even, so the warmup ends on the low level and the run opens
// with a real triggering transition.
constexpr int kWarmupBits = 12;

// Causal-tracer ring of one flight-recorded evaluation.
constexpr std::size_t kFlightTracerCapacity = 1024;

}  // namespace

void MarginModel::margin_ui_batch(const RunSample* samples, std::size_t n,
                                  double* out) const {
    for (std::size_t i = 0; i < n; ++i) out[i] = margin_ui(samples[i]);
}

int run_length_from_uniform(const std::vector<double>& pmf, double u) {
    double acc = 0.0;
    for (std::size_t i = 0; i + 1 < pmf.size(); ++i) {
        acc += pmf[i];
        if (u < acc) return static_cast<int>(i + 1);
    }
    return static_cast<int>(pmf.size());
}

// ---------------------------------------------------------------------------
// AnalyticMarginModel

AnalyticMarginModel::AnalyticMarginModel(const statmodel::ModelConfig& cfg)
    : cfg_(cfg) {
    assert(cfg_.max_cid >= 1);
}

double AnalyticMarginModel::late_margin_ui(const RunSample& s) const {
    // The last sample survives while  L + dJ_rel > s_L + osc jitter, i.e.
    // margin = DJ + RJ_close - RJ_trig - osc*z + SJ_rel - (s_L - L) > 0.
    // Identical in law to statmodel's P(DJ + G + S < s_L - L) with
    // G ~ N(0, 2*rj^2 + osc^2) and S the phase-uniform SJ sinusoid.
    const double dj = (s.u_dj - 0.5) * cfg_.spec.dj_uipp;
    const double rj = cfg_.spec.rj_uirms * (s.z_edge - s.z_trig);
    const double osc = statmodel::osc_sigma_ui(cfg_, s.run_length) * s.z_osc;
    const double sj =
        statmodel::sj_effective_amplitude(cfg_, s.run_length) *
        std::sin(2.0 * std::numbers::pi * s.u_phase);
    return dj + rj - osc + sj -
           statmodel::late_threshold_ui(cfg_, s.run_length);
}

double AnalyticMarginModel::early_margin_ui(double z_early) const {
    return statmodel::sample_instant_ui(cfg_, 1) +
           statmodel::early_sigma_ui(cfg_) * z_early;
}

void AnalyticMarginModel::late_margin_ui_batch(const RunSample* samples,
                                               std::size_t n,
                                               double* out) const {
    for (std::size_t i = 0; i < n; ++i) out[i] = late_margin_ui(samples[i]);
}

double AnalyticMarginModel::margin_ui(const RunSample& s) const {
    return std::min(late_margin_ui(s), early_margin_ui(s.z_early));
}

// ---------------------------------------------------------------------------
// BehavioralMarginModel

BehavioralMarginModel::BehavioralMarginModel(Params p)
    : params_(std::move(p)) {
    assert(params_.max_cid >= 1);
}

BehavioralMarginModel::Params BehavioralMarginModel::params_from(
    const statmodel::ModelConfig& cfg, LinkRate rate) {
    Params p;
    // delta = (T_cco - T_data)/T_data, so the oscillator runs at
    // f_data/(1 + delta).
    const double f_osc =
        rate.bits_per_second() / (1.0 + cfg.freq_offset);
    p.channel = cdr::ChannelConfig::nominal(f_osc, cfg.spec.ckj_uirms, rate);
    p.channel.improved_sampling = cfg.sampling_advance_ui > 0.0;
    p.spec = cfg.spec;
    p.sj_freq_norm = cfg.sj_freq_norm;
    p.max_cid = cfg.max_cid;
    return p;
}

std::vector<jitter::Edge> BehavioralMarginModel::build_edges(
    const RunSample& s, int L) const {
    const LinkRate rate = params_.channel.rate;
    const double ui_s = rate.ui_seconds();
    const int w = kWarmupBits;

    // Pattern: w alternating warmup bits (1,0,...,1,0), the run of L high
    // bits, one low closing bit. Transitions fall on every warmup
    // boundary, at index w (the trigger) and at w + L (the closing edge
    // whose measured margin is the sample).
    const SimTime start = SimTime::ns(4);  // oscillator startup first
    const double theta0 = 2.0 * std::numbers::pi * s.u_phase;
    const double sj_amp_ui = params_.spec.sj_uipp / 2.0;
    auto sj_at = [&](int bits_past_trigger) {
        if (sj_amp_ui == 0.0 || params_.sj_freq_norm == 0.0) return 0.0;
        return sj_amp_ui *
               std::sin(theta0 + 2.0 * std::numbers::pi *
                                     params_.sj_freq_norm *
                                     static_cast<double>(bits_past_trigger));
    };

    std::vector<jitter::Edge> edges;
    edges.reserve(static_cast<std::size_t>(w) + 2);
    SimTime prev = start - SimTime::fs(1);
    bool level = false;
    auto push_edge = [&](int bit_index, double disp_ui) {
        const double nominal_s =
            start.seconds() + static_cast<double>(bit_index) * ui_s;
        SimTime t = SimTime::from_seconds(nominal_s + disp_ui * ui_s);
        if (t <= prev) t = prev + SimTime::fs(1);
        level = !level;
        edges.push_back(jitter::Edge{t, level});
        prev = t;
    };
    for (int i = 0; i < w; ++i) push_edge(i, 0.0);  // clean warmup toggles
    // Triggering edge of the run: its own RJ plus the coherent sinusoid.
    push_edge(w, params_.spec.rj_uirms * s.z_trig + sj_at(0));
    // Closing edge: DJ + RJ + the sinusoid L bits later. The SJ difference
    // across the run realizes the A*|sin(pi*f*L)| effective amplitude the
    // analytic layer uses.
    push_edge(w + L, (s.u_dj - 0.5) * params_.spec.dj_uipp +
                         params_.spec.rj_uirms * s.z_edge + sj_at(L));
    return edges;
}

double BehavioralMarginModel::resolve_margin(
    const std::vector<double>& margins, std::size_t n_decisions,
    std::uint64_t ones, int L) const {
    if (margins.empty() || n_decisions == 0) return 1.0;
    // Ground truth from the recovered bits: the sampler must emit exactly
    // (warmup ones + L) ones. A late error drops one (bit L sampled past
    // the closing edge reads 0), an early/deep shift adds one (the closing
    // 0 sampled while the run is still high) — either way the count moves.
    // The channel's margin population alone cannot decide this: its 1-UI
    // unwrap maps errors deeper than ~half a period back into the healthy
    // band.
    const auto expected =
        static_cast<std::uint64_t>(kWarmupBits / 2 + L);
    const bool error = ones != expected;
    // The closing edge is the last DDIN transition, so its measured margin
    // is the final entry: continuous through 0 for near misses (the
    // channel unwraps those to small negatives). Errors the unwrap missed
    // saturate at -0.5; healthy runs whose late closing edge tripped the
    // unwrap get the period added back.
    const double m = margins.back();
    if (error) return m < 0.0 ? m : -0.5;
    return m > 0.0 ? m : m + 1.0;
}

double BehavioralMarginModel::margin_ui(const RunSample& s) const {
    const LinkRate rate = params_.channel.rate;
    const int L = std::clamp(s.run_length, 1, params_.max_cid);
    const std::vector<jitter::Edge> edges = build_edges(s, L);

    // A fresh Scheduler + channel per evaluation IS the clone-and-restart:
    // the trajectory is fully determined by (latent vector, noise_seed),
    // so a checkpoint never has to serialize live event-queue state.
    sim::Scheduler sched;
    Rng rng(s.noise_seed);
    cdr::GccoChannel ch(sched, rng, params_.channel, "mc");

    // Per-lane flight ring + a tracer local to this evaluation, so a
    // failed clone's dump carries a walkable causal chain. The tracer is
    // detached from the ring before it goes out of scope.
    obs::FlightRing* ring = nullptr;
    std::unique_ptr<obs::CausalTracer> tracer;
    if (params_.flight) {
        ring = &params_.flight->ring(
            "mc.lane" + std::to_string(exec::ThreadPool::lane_index()));
        tracer = std::make_unique<obs::CausalTracer>(kFlightTracerCapacity);
        sched.attach_tracer(tracer.get());
        ring->set_tracer(tracer.get());
        ch.record_flight(*ring);
    }

    ch.drive(edges);
    sched.run_until(edges.back().time + rate.ui_to_time(4.0));

    const auto& margins = ch.margins_ui();
    if (margins.empty() || ch.decisions().empty()) {
        if (ring) ring->set_tracer(nullptr);
        return 1.0;
    }
    std::uint64_t ones = 0;
    for (const auto& d : ch.decisions()) ones += d.bit ? 1u : 0u;
    if (ring) {
        const auto expected =
            static_cast<std::uint64_t>(kWarmupBits / 2 + L);
        // Dump while this evaluation's tracer is still alive, then detach
        // it — the ring outlives the eval, the tracer does not. Only this
        // lane's ring is dumped: the other lanes' rings and tracers are
        // being written, or freed, while this one dumps.
        if (ones != expected) {
            params_.flight->dump_ring(*ring, "mc_margin_error");
        }
        ring->set_tracer(nullptr);
    }
    return resolve_margin(margins, ch.decisions().size(), ones, L);
}

void BehavioralMarginModel::margin_ui_batch(const RunSample* samples,
                                            std::size_t n,
                                            double* out) const {
    // Flight recording needs the event kernel's tracer.
    if (params_.flight != nullptr) {
        MarginModel::margin_ui_batch(samples, n, out);
        return;
    }
    const LinkRate rate = params_.channel.rate;
    const std::size_t width = std::max<std::size_t>(params_.batch_lanes, 1);
    for (std::size_t base = 0; base < n; base += width) {
        const std::size_t cnt = std::min(width, n - base);
        sim::batch::ChannelBatch batch(params_.channel, cnt);
        std::vector<int> lens(cnt);
        for (std::size_t k = 0; k < cnt; ++k) {
            const RunSample& s = samples[base + k];
            lens[k] = std::clamp(s.run_length, 1, params_.max_cid);
            const std::vector<jitter::Edge> edges = build_edges(s, lens[k]);
            batch.seed_lane(k, s.noise_seed);
            batch.drive(k, edges);
            batch.set_horizon(k, edges.back().time + rate.ui_to_time(4.0));
        }
        // No pool handoff here: engines already tile margin_ui_batch
        // chunks across their ThreadPool, so the kernel runs its lanes on
        // the calling lane.
        batch.run_all();
        for (std::size_t k = 0; k < cnt; ++k) {
            out[base + k] =
                resolve_margin(batch.margins_ui(k), batch.decisions(k).size(),
                               batch.ones(k), lens[k]);
        }
        stats_.evals.fetch_add(cnt, std::memory_order_relaxed);
        stats_.batches.fetch_add(1, std::memory_order_relaxed);
        stats_.steps.fetch_add(batch.batch_steps(),
                               std::memory_order_relaxed);
        stats_.wall_seconds.fetch_add(batch.run_seconds(),
                                      std::memory_order_relaxed);
    }
}

}  // namespace gcdr::mc
