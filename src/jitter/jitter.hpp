#pragma once
// Jitter models applied to the incoming data stream and to the recovered
// clock, matching Sec. 3.1: deterministic jitter (uniform PDF), random
// jitter (Gaussian PDF), sinusoidal jitter (arcsine stationary PDF), plus
// the oscillator's per-cycle jitter.

#include <vector>

#include "util/rng.hpp"
#include "util/sim_time.hpp"
#include "util/units.hpp"

namespace gcdr::jitter {

/// Table 1 of the paper: the jitter budget all simulations use.
struct JitterSpec {
    double dj_uipp = 0.4;      ///< deterministic jitter, UI peak-peak
    double rj_uirms = 0.021;   ///< random jitter, UI RMS (0.3 UIpp at Q=7)
    double sj_uipp = 0.0;      ///< sinusoidal jitter amplitude, UI peak-peak
    double sj_freq_hz = 0.0;   ///< sinusoidal jitter frequency
    double ckj_uirms = 0.01;   ///< oscillator jitter at CID=5, UI RMS

    /// The paper's Table 1 values at 2.5 Gb/s (SJ swept by the experiments).
    static JitterSpec paper_table1() { return JitterSpec{}; }

    bool operator==(const JitterSpec&) const = default;
};

/// Deterministic time-domain phase of sinusoidal jitter, in UI:
/// (A/2) * sin(2*pi*f*t + phase0). Peak-peak amplitude = A.
class SinusoidalJitter {
public:
    SinusoidalJitter(double amp_uipp, double freq_hz, double phase0 = 0.0)
        : amp_ui_(amp_uipp / 2.0), freq_hz_(freq_hz), phase0_(phase0) {}

    [[nodiscard]] double at(double t_seconds) const;

    [[nodiscard]] double amplitude_uipp() const { return 2.0 * amp_ui_; }
    [[nodiscard]] double frequency_hz() const { return freq_hz_; }

private:
    double amp_ui_;
    double freq_hz_;
    double phase0_;
};

/// One transition of an NRZ waveform.
struct Edge {
    SimTime time;
    bool value;  ///< level after the transition
};

/// How deterministic jitter is realized in the time domain. All three
/// models have the Table 1 uniform(+-DJpp/2) stationary PDF or bound, but
/// differ in edge-to-edge correlation — which is what the retriggering
/// CDR actually responds to:
///  - kTriangleSweep: a slow triangle-wave phase sweep (BERT-style DJ
///    generation; uniform PDF, neighbouring edges see nearly equal DJ so
///    the gated oscillator tracks it). Matches the paper's open Fig 14
///    eyes under the full 0.4 UIpp budget.
///  - kIndependent: fresh uniform draw per edge (worst case; single-bit
///    pulses can shrink by DJpp, stressing the EDET merge limit).
///  - kIsi: first-order inter-symbol interference — an edge closing a run
///    of r bits is displaced by DJpp/2 * (1 - 2^(2-r)); deterministic and
///    pattern-correlated like real ISI.
enum class DjModel {
    kTriangleSweep,
    kIndependent,
    kIsi,
};

/// Parameters for generating a jittered serial data stream.
struct StreamParams {
    LinkRate rate = kPaperRate;
    JitterSpec spec;
    DjModel dj_model = DjModel::kTriangleSweep;
    /// Sweep rate of the kTriangleSweep DJ process.
    double dj_sweep_freq_hz = 1e7;
    /// Relative data-rate offset of the transmitter vs nominal (e.g. 1e-4
    /// = +100 ppm). The receiver's oscillator offset is modeled separately
    /// in the CDR (Sec. 2.3 separates FTOL from data-rate spec).
    double data_rate_offset = 0.0;
    /// Start time of bit 0's leading boundary.
    SimTime start{0};
    /// Initial line level before the first bit.
    bool initial_level = false;
};

/// Expand a bit sequence into jittered transition times. Each transition's
/// displacement is DJ (uniform) + RJ (Gaussian) + SJ (coherent sinusoid
/// evaluated at the nominal edge time). Edge times are forced monotonic
/// (a transition can never precede the previous one).
[[nodiscard]] std::vector<Edge> jittered_edges(const std::vector<bool>& bits,
                                               const StreamParams& params,
                                               Rng& rng);

/// Ideal (jitter-free) edges of a bit sequence; convenience for tests and
/// the transistor-level data path.
[[nodiscard]] std::vector<Edge> ideal_edges(const std::vector<bool>& bits,
                                            LinkRate rate,
                                            SimTime start = SimTime{0},
                                            bool initial_level = false);

/// Decompose a total-jitter population into dual-Dirac DJ/RJ estimates via
/// the standard tail-fit (used by the BERT and eye metrics to report
/// jitter the way the paper's Table 1 specifies it).
struct DualDiracFit {
    double dj_pp = 0.0;   ///< model deterministic jitter (peak-peak)
    double rj_rms = 0.0;  ///< model random jitter (RMS)
    /// Total jitter at the given BER under the dual-Dirac model.
    [[nodiscard]] double tj_at_ber(double ber) const;
};

/// Fit a dual-Dirac model to a sample population of jitter values (same
/// units in = same units out).
[[nodiscard]] DualDiracFit fit_dual_dirac(std::vector<double> samples);

}  // namespace gcdr::jitter
