#pragma once
// Statistical BER model of the gated-oscillator CDR (paper Sec. 3.1).
//
// Operating principle being modeled: the GCCO resynchronizes to every
// incoming data edge and free-runs between edges. Take the triggering edge
// as the time reference. The bit at position k of a run is sampled at the
// k-th recovered-clock rising edge,
//
//     s_k = (k - 1/2 - a) * (1 + delta)      [UI, a = sampling advance,
//                                             delta = CCO period offset]
//
// plus the oscillator jitter accumulated since the trigger (Gaussian,
// sigma = CKJ * sqrt((k - 1/2 - a)/CID_ref), CKJ specified at CID_ref = 5).
//
// Errors are dominated by the LAST bit of a run of length L: its sample
// falls after the next data transition at L + dJ, where dJ is the jitter of
// the closing edge *relative to* the triggering edge:
//   - DJ: one uniform(+-DJpp/2). Deterministic jitter is pattern-correlated
//         (ISI/DCD), and the Table 1 figure quantifies total deterministic
//         eye closure, so it enters the relative budget once,
//   - RJ: difference of two independent Gaussians -> sigma*sqrt(2)
//         (random noise really is independent per edge),
//   - SJ: coherent sinusoid difference -> arcsine with effective amplitude
//         A_pp * |sin(pi * f_j/f_data * L)|  (the reason low-frequency
//         jitter is harmless to this topology and near-rate jitter is not,
//         exactly the shape of Figs 9/10).
// The early-side error (first bit sampled before the trigger) is included
// for completeness; it only matters with the advanced sampling point under
// large negative frequency offset (the caveat the paper notes for Fig 17).
//
// BER = sum over run lengths of P(run = L) * P_err(L) / E[L], with the run
// length law truncated at the encoding's CID cap (5 for 8b/10b, 7 for
// PRBS7), or the paper's conservative "all runs = CID" worst case.
//
// What a model holds: its constructor builds the relative-edge PDF of
// every run length 1..max_cid, and every query is a tail integral over
// those PDFs. The PDFs depend on the DJ, RJ and CKJ terms,
// sampling_advance_ui, max_cid, cid_ref, grid_dx and pdf_prune_floor.
// SJ amplitude and frequency, freq_offset, trigger_mismatch_uirms and
// run_model enter only the integration, so ber_at() answers any point
// that differs from the model's config in those fields alone from the
// same PDFs. A search (a BER surface, a JTOL or FTOL bisection) builds
// one model and evaluates every step through it, and the model-taking
// jtol_amplitude and jtol_curve let a caller that already holds a model
// of the right PDFs search on it: scenario::run_scenario keeps one model
// alive across its tasks, so consecutive tasks that share an edge-PDF
// set build it once.
// Every tail integral is a GridPdf::cdf call, O(1) per call, so the cost
// of a query is the run lengths times the SJ phases it averages.
//
// Thread safety: a model is immutable once constructed. Every method is
// const and reads only the model's own config and PDFs, so one model may
// be shared read-only by all lanes of an exec::ThreadPool (jtol_curve,
// the scenario BER surface and baseline_jtol's sweeps do). Nothing but immutable constants outlives
// a model: the SJ-phase sine table, built once per process, and util/fft's
// per-thread twiddle tables. The sweep helpers below take an optional
// pool and are bit-identical for any thread count because each grid point
// computes independently into its own slot.

#include <cstddef>
#include <string>
#include <vector>

#include "exec/thread_pool.hpp"
#include "jitter/jitter.hpp"
#include "masks/jtol_mask.hpp"
#include "stats/grid_pdf.hpp"

namespace gcdr::statmodel {

/// How run lengths are weighted when rolling per-run error into a BER.
enum class RunModel {
    kWeighted,   ///< truncated-geometric run lengths (random data, CID cap)
    kWorstCase,  ///< every run at the CID cap (paper's conservative view)
};

struct ModelConfig {
    jitter::JitterSpec spec = jitter::JitterSpec::paper_table1();
    /// Sinusoidal jitter frequency normalized to the data rate (f_j/f_d).
    double sj_freq_norm = 0.1;
    /// Relative CCO period offset: (T_cco - T_data)/T_data. Positive =
    /// oscillator slow. A -1% oscillator *frequency* error is delta ~ +1%.
    double freq_offset = 0.0;
    /// Sampling advance in UI: 0 = mid-bit (Fig 7), 1/8 = improved
    /// topology using the inverted third-stage output (Fig 15).
    double sampling_advance_ui = 0.0;
    /// Maximum run length of the encoding (8b/10b: 5, PRBS7: 7).
    int max_cid = 5;
    /// Run length at which the CKJ spec is quoted (paper: 5).
    int cid_ref = 5;
    /// RMS mismatch (UI) between the EDET trigger path (delay line + XOR)
    /// and the DDIN data path (delay line + dummy): the residual timing
    /// error of the retrigger itself. Sets the left (early) bathtub wall;
    /// without it the model would let the sampler sit arbitrarily close to
    /// the opening edge for free.
    double trigger_mismatch_uirms = 0.01;
    /// Grid step for PDF convolution, in UI.
    double grid_dx = 5e-4;
    /// Density floor forwarded to stats::GridPdf::convolve: result bins
    /// below it are trimmed from the PDF tails before the next chained
    /// convolution. 0 (default) keeps every bin — outputs bit-identical to
    /// the historical model. 1e-18 is safe for this model's use: the BER
    /// integrals bottom out at the 1e-12..1e-15 decade, while the mass a
    /// 1e-18 floor can discard is < 1e-18 * grid_dx * bins ~ 1e-18.
    double pdf_prune_floor = 0.0;
    RunModel run_model = RunModel::kWeighted;

    bool operator==(const ModelConfig&) const = default;
};

/// Largest relative-edge PDF a model may build, in grid bins. At the
/// finest committed grid, the 5e-4 UI default, the Table 1 budget needs
/// 1925 bins and the statmodel_sweep budgets (each term up to +15%) about
/// 2.2k; the cap leaves ~15x headroom and bounds one model's PDFs to under
/// 10 MB at max_cid 16.
inline constexpr std::size_t kMaxEdgePdfBins = 32768;

/// Check a resolved config from outside input before it reaches
/// stats::GridPdf: grid_dx > 0, the DJ, RJ, SJ and CKJ terms >= 0,
/// max_cid and cid_ref >= 1, and the widest relative-edge PDF (run length
/// max_cid) at most kMaxEdgePdfBins bins. Returns "" for a usable config,
/// else a one-line reason that starts with the offending field.
[[nodiscard]] std::string check_model_config(const ModelConfig& cfg);

/// True when `a` and `b` differ only in fields the edge PDFs do not
/// depend on: SJ amplitude and frequency, freq_offset,
/// trigger_mismatch_uirms and run_model. Any other field, including one
/// added to ModelConfig later, counts as PDF-shaping.
[[nodiscard]] bool shares_edge_pdfs(const ModelConfig& a,
                                    const ModelConfig& b);

/// Statistical model instance: holds the relative-edge PDF of every run
/// length 1..max_cid, built once by the constructor.
class GatedOscStatModel {
public:
    explicit GatedOscStatModel(const ModelConfig& cfg);

    /// P(sample of the last bit of a run of length L lands past the
    /// closing transition). Throws std::out_of_range unless
    /// 1 <= run_length <= max_cid.
    [[nodiscard]] double late_error_prob(int run_length) const;

    /// P(sample of the first bit of a run lands before the triggering
    /// transition).
    [[nodiscard]] double early_error_prob() const;

    /// Bit error ratio under the configured run model.
    [[nodiscard]] double ber() const;

    /// shares_edge_pdfs(config(), point).
    [[nodiscard]] bool shares_pdfs(const ModelConfig& point) const;

    /// BER at `point`, bit-identical to ber_of(point): from this model's
    /// PDFs when shares_pdfs(point), else from a fresh model.
    [[nodiscard]] double ber_at(const ModelConfig& point) const;

    /// Statistical eye margin for the worst run: distance in UI between the
    /// sample point and the 1e-12 quantile of the closing-edge
    /// distribution. Negative = eye closed at 1e-12.
    [[nodiscard]] double eye_margin_ui(double ber_target = 1e-12) const;

    [[nodiscard]] const ModelConfig& config() const { return cfg_; }

private:
    /// The BER terms at `c`, which must share this model's PDFs.
    [[nodiscard]] double late_error_prob(const ModelConfig& c,
                                         int run_length) const;
    [[nodiscard]] double ber(const ModelConfig& c) const;

    ModelConfig cfg_;
    std::vector<stats::GridPdf> edge_pdfs_;  ///< [L - 1], L = 1..max_cid
};

/// Convenience: BER for a config (builds a model and evaluates it).
[[nodiscard]] double ber_of(const ModelConfig& cfg);

/// Jitter tolerance at one normalized SJ frequency: the largest SJ
/// amplitude (UIpp) keeping BER <= target. Binary search on one model;
/// `amp_cap` bounds the search (low-frequency tolerance diverges for this
/// topology).
[[nodiscard]] double jtol_amplitude(ModelConfig base, double sj_freq_norm,
                                    double ber_target = 1e-12,
                                    double amp_cap = 100.0);

/// jtol_amplitude(base, ...) evaluated on `model`'s PDFs, bit for bit.
/// Only the PDFs come from `model`: freq_offset, trigger_mismatch_uirms
/// and run_model come from `base`, never from model.config(). Pass a
/// model that shares base's PDFs (shares_pdfs); any other model still
/// gives the same bits, through a fresh model per step (ber_at).
[[nodiscard]] double jtol_amplitude(const GatedOscStatModel& model,
                                    const ModelConfig& base,
                                    double sj_freq_norm,
                                    double ber_target = 1e-12,
                                    double amp_cap = 100.0);

/// Full JTOL curve over normalized frequencies, as absolute-frequency mask
/// points for comparison against masks::JtolMask. Each frequency's binary
/// search is independent and all of them read one model; pass a pool to
/// run them concurrently (the curve is bit-identical to the serial
/// evaluation).
[[nodiscard]] std::vector<masks::MaskPoint> jtol_curve(
    const ModelConfig& base, const std::vector<double>& sj_freq_norms,
    LinkRate rate, double ber_target = 1e-12,
    exec::ThreadPool* pool = nullptr);

/// jtol_curve(base, ...) evaluated on `model`'s PDFs, bit for bit, on the
/// terms of the model-taking jtol_amplitude: every field but the PDFs
/// comes from `base`.
[[nodiscard]] std::vector<masks::MaskPoint> jtol_curve(
    const GatedOscStatModel& model, const ModelConfig& base,
    const std::vector<double>& sj_freq_norms, LinkRate rate,
    double ber_target = 1e-12, exec::ThreadPool* pool = nullptr);

/// Frequency tolerance: largest |delta| (both signs checked) keeping
/// BER <= target with no sinusoidal jitter beyond the base config. Both
/// bisections read one model.
[[nodiscard]] double ftol(ModelConfig base, double ber_target = 1e-12);

}  // namespace gcdr::statmodel
