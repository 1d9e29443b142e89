#pragma once
// Cache-aware job execution: turns one JobSpec into a result envelope,
// consulting the content-addressed ResultCache before touching the
// statistical/MC model and storing every freshly computed payload back.
//
// Payloads (the cached unit) are compact JSON objects produced by
// deterministic pure functions of (resolved config, seed), so a cache
// hit returns byte-identical content to recomputation:
//   ber:   {"ber":x}
//   eye:   {"bathtub_opening_ui":x,"eye_margin_ui":y}
//   mc:    {"ber":..,"ci_hi":..,"ci_lo":..,"converged":..,"ess":..,
//           "n_samples":..,"std_err":..}
//   sweep: {"points":[<ber payload>|null, ...]}  (index order; null =
//          not computed before cancel/deadline)
//
// Sweep points are individually keyed (sweep_point_spec) and computed
// through one ThreadPool::parallel_for with a stop flag, so a job that
// hits its deadline or is cancelled returns kPartial/kCancelled with
// whatever completed — and those points are already stored, which is why
// resubmitting the same sweep resumes instead of recomputing. The missing
// points evaluate through one GatedOscStatModel where they share its edge
// PDFs (statmodel::shares_edge_pdfs), so an SJ-axis sweep convolves its
// PDFs once instead of once per point.

#include <cstdint>
#include <string>

#include "exec/thread_pool.hpp"
#include "obs/metrics.hpp"
#include "serve/cache.hpp"
#include "serve/protocol.hpp"
#include "serve/queue.hpp"
#include "statmodel/gated_osc_model.hpp"

namespace gcdr::serve {

inline constexpr const char* kResultSchema = "gcdr.serve.result/v1";

struct ExecOutcome {
    JobStatus status = JobStatus::kDone;
    std::string envelope;  ///< full gcdr.serve.result/v1 JSON
    std::uint64_t cache_hits = 0;
    std::uint64_t cache_misses = 0;
};

class JobExecutor {
public:
    /// `metrics` may be null (tests); serve.* instruments are optional.
    JobExecutor(ResultCache& cache, obs::MetricsRegistry* metrics = nullptr);

    /// Execute the job's spec; checks `job`'s cancel flag and deadline
    /// between compute units and streams per-point lines to
    /// job.stream_sink when set. Does NOT call job.finish() — the worker
    /// loop owns the state transition.
    ExecOutcome execute(JobState& job, exec::ThreadPool& pool);

    /// The cache key of a (resolved) spec — exposed for tests and the
    /// server's introspection endpoints.
    [[nodiscard]] static CacheKey key_of(const JobSpec& spec);

private:
    ExecOutcome run_single(JobState& job, exec::ThreadPool& pool);
    ExecOutcome run_sweep(JobState& job, exec::ThreadPool& pool);
    /// `job` non-null only for single (non-sweep-point) computations:
    /// scenario health_probe tasks push live gcdr.health/v1 frames into
    /// it for the /v1/watch stream. Cache hits bypass this path, so a
    /// fully cached job streams no frames — only the envelope. A ber
    /// point evaluates through `model`'s ber_at when given (sweeps share
    /// one model), which is bit-identical to ber_of.
    [[nodiscard]] std::string compute_payload(
        const JobSpec& spec, exec::ThreadPool& pool,
        JobState* job = nullptr,
        const statmodel::GatedOscStatModel* model = nullptr) const;

    ResultCache* cache_;
    obs::MetricsRegistry* metrics_;
};

}  // namespace gcdr::serve
