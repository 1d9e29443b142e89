#pragma once
// The sampled quantity behind every rare-event engine: the timing margin
// (UI) of one run of the gated-oscillator CDR, as a deterministic function
// of a latent coordinate vector. Error <=> margin < 0.
//
// Two implementations:
//  - AnalyticMarginModel evaluates the statistical model's timing
//    equations (statmodel/timing.hpp: same jitter budget, same
//    relative-edge algebra), but *samples* the continuous laws instead of
//    convolving gridded PDFs.
//    Monte Carlo estimates over it therefore converge to the statistical
//    model's BER up to grid error — the cross-validation bench leans on
//    that identity.
//  - BehavioralMarginModel drives a real cdr::GccoChannel (Scheduler +
//    EdgeDetector + GCCO + sampler) through one warmup + run + closing
//    pattern per evaluation and reads the channel's measured closing
//    margin. The channel is a deterministic function of (latent vector,
//    noise_seed), which is what makes clone-and-restart splitting work:
//    a checkpoint is the latent state, a restart is a fresh Scheduler
//    replaying it — no live event-queue state needs copying. Engines
//    evaluate through margin_ui_batch, which runs the same pattern as
//    lanes of the batched SoA kernel (sim/batch), bit-identical per
//    sample; margin_ui and flight-recorded models stay on the event
//    kernel.
//
// All evaluations are const and allocate only locally, so one model
// instance may be shared by every lane of an exec::ThreadPool.

#include <atomic>
#include <cstdint>
#include <vector>

#include "cdr/channel.hpp"
#include "obs/flight_recorder.hpp"
#include "statmodel/gated_osc_model.hpp"

namespace gcdr::mc {

/// Latent coordinates of one run event. Engines draw these (importance
/// sampling from tilted laws, splitting via MCMC); the margin model maps
/// them to a timing margin. Uniform coordinates are in [0,1); z
/// coordinates are standard-normal.
struct RunSample {
    int run_length = 1;    ///< L, in [1, max_cid]
    double u_dj = 0.5;     ///< -> DJ displacement (uniform, Table 1 DJpp)
    double z_edge = 0.0;   ///< closing-edge RJ
    double z_trig = 0.0;   ///< triggering-edge RJ
    double z_osc = 0.0;    ///< oscillator jitter accumulated over the run
    double u_phase = 0.0;  ///< -> SJ phase in [0, 2*pi)
    double z_early = 0.0;  ///< trigger-path mismatch + short-horizon osc
    /// Extra system noise with no smooth coordinate (the behavioral
    /// channel's internal stage jitter). Analytic model ignores it.
    std::uint64_t noise_seed = 0;
};

/// Inverse-CDF draw of a run length from statmodel::run_length_probs'
/// law `pmf`, u in [0,1).
[[nodiscard]] int run_length_from_uniform(const std::vector<double>& pmf,
                                          double u);

class MarginModel {
public:
    virtual ~MarginModel() = default;
    /// Worst margin of the run (min of late and early mechanisms where
    /// the model resolves both); error <=> negative.
    [[nodiscard]] virtual double margin_ui(const RunSample& s) const = 0;
    /// Evaluate `n` samples into `out[0..n)`. Semantically identical to
    /// calling margin_ui per sample (the default does exactly that);
    /// batched implementations evaluate clones as lanes of the SoA
    /// kernel instead of one Scheduler per sample. Engines should prefer
    /// this entry point wherever their sampling plan admits buffering.
    virtual void margin_ui_batch(const RunSample* samples, std::size_t n,
                                 double* out) const;
    [[nodiscard]] virtual int max_run_length() const = 0;
};

/// Closed-form margins from the statistical model's timing equations.
class AnalyticMarginModel : public MarginModel {
public:
    explicit AnalyticMarginModel(const statmodel::ModelConfig& cfg);

    [[nodiscard]] double margin_ui(const RunSample& s) const override;
    [[nodiscard]] int max_run_length() const override {
        return cfg_.max_cid;
    }

    /// The late-margin equation's terms that depend on the run length
    /// alone (statmodel/timing.hpp).
    struct LateRun {
        double osc_sigma = 0.0;  ///< oscillator jitter of sample L, UI rms
        double sj_amp = 0.0;     ///< effective SJ amplitude, UIpp
        double threshold = 0.0;  ///< s_L - L
    };
    [[nodiscard]] LateRun late_run(int run_length) const;

    /// Margin of the run's last bit against the closing transition.
    [[nodiscard]] double late_margin_ui(const RunSample& s) const;
    /// The same equation for one run length's terms, with the SJ
    /// displacement `sj` (run.sj_amp * sin(phase)) given. Inline: the
    /// importance sampler evaluates it once per draw.
    [[nodiscard]] double late_margin_ui(const LateRun& run, double u_dj,
                                        double z_edge, double z_trig,
                                        double z_osc, double sj) const {
        const double dj = (u_dj - 0.5) * cfg_.spec.dj_uipp;
        const double rj = cfg_.spec.rj_uirms * (z_edge - z_trig);
        return dj + rj - run.osc_sigma * z_osc + sj - run.threshold;
    }
    /// Margin of the run's first bit against its own trigger.
    [[nodiscard]] double early_margin_ui(double z_early) const;

    [[nodiscard]] const statmodel::ModelConfig& config() const {
        return cfg_;
    }

private:
    statmodel::ModelConfig cfg_;
};

/// Margins measured on a live GccoChannel, one short simulation per
/// evaluation: warmup toggles to start the oscillator, the run under
/// test, and a closing transition whose measured margin is returned.
class BehavioralMarginModel : public MarginModel {
public:
    struct Params {
        cdr::ChannelConfig channel;
        jitter::JitterSpec spec;   ///< DJ/RJ/SJ budget applied to the run
        double sj_freq_norm = 0.0;
        int max_cid = 5;
        /// Optional post-mortem sink: every evaluation records its channel
        /// events (with causal ids) into the ring "mc.lane<k>" for the
        /// executing pool lane, and an evaluation whose recovered-bit
        /// count is wrong dumps that ring alone (dump_ring,
        /// "mc_margin_error") before returning — so a failed splitting
        /// clone leaves a walkable trace, however many lanes run. nullptr
        /// (the default) costs nothing.
        obs::FlightRecorder* flight = nullptr;
        /// Clones per ChannelBatch in margin_ui_batch(). Batched lanes are
        /// bit-identical to the event kernel, so this sets only the SoA
        /// width; 0 counts as 1.
        std::size_t batch_lanes = 16;
    };

    /// Cumulative batched-path telemetry (every evaluation margin_ui_batch
    /// ran on the SoA kernel). Atomics: the model is shared across pool
    /// lanes.
    struct BatchStats {
        std::atomic<std::uint64_t> evals{0};    ///< samples batch-evaluated
        std::atomic<std::uint64_t> batches{0};  ///< ChannelBatch runs
        std::atomic<std::uint64_t> steps{0};    ///< kernel slices
        std::atomic<double> wall_seconds{0.0};  ///< kernel time inside runs
    };

    explicit BehavioralMarginModel(Params p);

    /// Channel + budget equivalent to a statistical-model config: the
    /// oscillator center frequency realizes cfg.freq_offset, improved
    /// sampling realizes the T/8 advance, CKJ sizes the stage jitter.
    [[nodiscard]] static Params params_from(
        const statmodel::ModelConfig& cfg, LinkRate rate = kPaperRate);

    /// One evaluation on the event kernel (sim::Scheduler): the flight
    /// path, and the reference the batched oracle is held to.
    [[nodiscard]] double margin_ui(const RunSample& s) const override;
    /// Batched oracle: chunks of Params::batch_lanes clones share one
    /// ChannelBatch, bit-identical to margin_ui per sample. With a flight
    /// recorder attached every sample runs through margin_ui instead —
    /// flight recording needs the event kernel's causal tracer.
    void margin_ui_batch(const RunSample* samples, std::size_t n,
                         double* out) const override;
    [[nodiscard]] int max_run_length() const override {
        return params_.max_cid;
    }

    [[nodiscard]] const Params& params() const { return params_; }
    [[nodiscard]] const BatchStats& batch_stats() const { return stats_; }

private:
    /// The warmup + run + closing pattern for one sample; `L` is the
    /// already-clamped run length.
    [[nodiscard]] std::vector<jitter::Edge> build_edges(const RunSample& s,
                                                        int L) const;
    /// Map a finished run's observables to the returned margin (the
    /// ones-count ground truth + unwrap repair described in margin_ui).
    [[nodiscard]] double resolve_margin(const std::vector<double>& margins,
                                        std::size_t n_decisions,
                                        std::uint64_t ones, int L) const;

    Params params_;
    mutable BatchStats stats_;
};

}  // namespace gcdr::mc
