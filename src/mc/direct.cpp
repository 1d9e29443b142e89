#include "mc/direct.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <memory>

#include "exec/sweep.hpp"
#include "obs/progress.hpp"
#include "obs/trace_span.hpp"
#include "statmodel/timing.hpp"
#include "util/rng.hpp"

namespace gcdr::mc {

namespace {

// Runs drawn per stratum before they are evaluated, and runs per pool item
// within a chunk.
constexpr std::size_t kChunk = 1024;
constexpr std::size_t kBlock = 64;

}  // namespace

DirectSampler::DirectSampler(const MarginModel& model, Config cfg,
                             obs::MetricsRegistry* metrics)
    : model_(&model), cfg_(cfg), metrics_(metrics) {
    const int cap = model.max_run_length();
    pmf_ = statmodel::run_length_probs(cap);
    mean_len_ = statmodel::mean_run_length(pmf_);
    // Smallest pmf atom is 2^-(cap-1); a round that is a multiple of
    // 2^(cap-1) makes every n_l = N * P(l) an exact integer.
    const std::uint64_t quantum = 1ull << (cap - 1);
    runs_per_round_ =
        ((std::max<std::uint64_t>(cfg_.runs_per_round, 1) + quantum - 1) /
         quantum) *
        quantum;
    alloc_.resize(static_cast<std::size_t>(cap));
    std::uint64_t check = 0;
    for (int l = 1; l <= cap; ++l) {
        const double exact = static_cast<double>(runs_per_round_) * pmf_[l - 1];
        alloc_[l - 1] = static_cast<std::uint64_t>(std::llround(exact));
        check += alloc_[l - 1];
    }
    assert(check == runs_per_round_);
    (void)check;
}

McEstimate DirectSampler::estimate(exec::ThreadPool& pool) const {
    const std::size_t cap = alloc_.size();
    std::vector<std::uint64_t> errors(cap, 0);
    std::vector<std::uint64_t> runs(cap, 0);
    std::uint64_t total = 0;
    McEstimate est;
    est.confidence = cfg_.budget.confidence;
    std::uint64_t round = 0;
    auto refresh = [&]() {
        std::uint64_t k = 0;
        std::uint64_t n = 0;
        double var = 0.0;
        for (std::size_t l = 0; l < cap; ++l) {
            k += errors[l];
            n += runs[l];
            if (runs[l] > 1) {
                const double nn = static_cast<double>(runs[l]);
                const double p = static_cast<double>(errors[l]) / nn;
                var += pmf_[l] * pmf_[l] * p * (1.0 - p) / nn;
            }
        }
        est.n_samples = total;
        if (n == 0) return;
        // Self-weighting design: pooled fraction == stratified estimate.
        est.mean = static_cast<double>(k) / static_cast<double>(n) / mean_len_;
        est.std_err = std::sqrt(var) / mean_len_;
        Interval cp = clopper_pearson_interval(k, n, est.confidence);
        est.ci = Interval{cp.lo / mean_len_, cp.hi / mean_len_};
        est.ess = static_cast<double>(n);
        // Exact-interval convergence: the CP half-width relative to the
        // point estimate (the rule the ISSUE's "unbiased control" needs —
        // a zero-error tally never converges, it just tightens its bound).
        if (k > 0) {
            const double half = 0.5 * (cp.hi - cp.lo) / mean_len_;
            est.converged = half / est.mean <= cfg_.budget.target_rel_err &&
                            est.rel_err() <= cfg_.budget.target_rel_err;
        }
    };
    // Opt-in live progress against the eval budget (convergence exits
    // early; finish() emits the actual total).
    std::unique_ptr<obs::ProgressReporter> progress;
    if (obs::ProgressReporter::enabled() &&
        runs_per_round_ <= cfg_.budget.max_evals) {
        progress = std::make_unique<obs::ProgressReporter>(
            "mc.direct", cfg_.budget.max_evals);
    }
    std::vector<RunSample> buf;
    std::vector<double> margins;
    while (total + runs_per_round_ <= cfg_.budget.max_evals) {
        obs::TraceSpan round_span("mc.direct.round");
        for (std::size_t l = 0; l < cap; ++l) {
            Rng rng(exec::derive_seed(cfg_.budget.base_seed,
                                      round * cap + l));
            // Draw a chunk serially from the stratum's stream (cheap, and
            // in the same order as one-at-a-time sampling), then evaluate
            // it across the pool in fixed blocks through the batched
            // oracle. The chunk bounds buffer memory; neither size moves
            // the estimate.
            for (std::uint64_t done = 0; done < alloc_[l];) {
                const std::size_t c = static_cast<std::size_t>(
                    std::min<std::uint64_t>(kChunk, alloc_[l] - done));
                buf.resize(c);
                margins.resize(c);
                for (RunSample& s : buf) {
                    s.run_length = static_cast<int>(l) + 1;
                    s.u_dj = rng.uniform();
                    s.z_edge = rng.gaussian();
                    s.z_trig = rng.gaussian();
                    s.z_osc = rng.gaussian();
                    s.u_phase = rng.uniform();
                    s.z_early = rng.gaussian();
                    s.noise_seed = rng.generator()();
                }
                const std::size_t n_blocks = (c + kBlock - 1) / kBlock;
                pool.parallel_for(n_blocks, [&](std::size_t b) {
                    const std::size_t lo = b * kBlock;
                    model_->margin_ui_batch(&buf[lo], std::min(kBlock, c - lo),
                                            &margins[lo]);
                });
                for (double m : margins) {  // fixed merge order
                    if (m < 0.0) ++errors[l];
                }
                done += c;
            }
            runs[l] += alloc_[l];
        }
        total += runs_per_round_;
        ++round;
        refresh();
        if (progress) progress->add(runs_per_round_);
        if (metrics_) {
            metrics_->counter("mc.direct.runs").inc(runs_per_round_);
            metrics_->gauge("mc.direct.rounds").set(
                static_cast<double>(round));
            metrics_->gauge("mc.direct.ber").set(est.mean);
            metrics_->gauge("mc.direct.rel_err").set(est.rel_err());
        }
        if (est.converged) break;
    }
    if (progress) progress->finish();
    refresh();
    return est;
}

}  // namespace gcdr::mc
