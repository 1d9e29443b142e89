#pragma once
// Declarative N-dimensional parameter sweeps on top of exec::ThreadPool.
//
// A SweepGrid is an ordered list of named axes; its flat index space is
// row-major with the FIRST axis slowest, so results come back in exactly
// the order the old hand-rolled nested loops produced them:
//
//     for (fn : freqs)          // axis 0 (slow)
//         for (a : amps)        // axis 1 (fast)
//
// becomes
//
//     SweepGrid grid;
//     grid.axis("sj_freq_norm", freqs).axis("sj_uipp", amps);
//     auto bers = SweepRunner(pool, grid).map<double>(
//         [&](const SweepPoint& p) {
//             cfg.sj_freq_norm = p.value[0];
//             cfg.spec.sj_uipp = p.value[1];
//             return statmodel::ber_of(cfg);
//         });
//
// Determinism: every point gets a seed derived from (base_seed, flat
// index) by a splitmix64 finalizer — a pure function of the index — and
// each point writes only its own result slot. Results are therefore
// bit-identical regardless of thread count or scheduling order; only
// wall-clock changes. Stochastic points must draw exclusively from
// p.seed (never from a shared RNG). Tally shared telemetry once the map
// returns (one counter add of the point count), not per point.

#include <cstdint>
#include <string>
#include <vector>

#include <memory>

#include "exec/thread_pool.hpp"
#include "obs/progress.hpp"
#include "obs/trace_span.hpp"

namespace gcdr::exec {

/// splitmix64 finalizer over (base_seed, index): statistically independent
/// seeds for neighboring indices, stable across thread counts. index is
/// offset by a golden-ratio increment so (base, 0) != base.
[[nodiscard]] std::uint64_t derive_seed(std::uint64_t base_seed,
                                        std::uint64_t index);

struct SweepAxis {
    std::string name;
    std::vector<double> values;
};

/// One evaluated grid point, handed to the mapped lambda.
struct SweepPoint {
    std::size_t index = 0;             ///< flat row-major index
    std::uint64_t seed = 0;            ///< derive_seed(base_seed, index)
    std::vector<std::size_t> idx;      ///< per-axis value index
    std::vector<double> value;         ///< per-axis value
};

class SweepGrid {
public:
    SweepGrid() = default;
    /// The grid over `axes`, in order (each must be non-empty).
    explicit SweepGrid(std::vector<SweepAxis> axes);

    /// Append an axis (fluent). Empty axes are rejected via assert.
    SweepGrid& axis(std::string name, std::vector<double> values);

    [[nodiscard]] std::size_t n_axes() const { return axes_.size(); }
    [[nodiscard]] const SweepAxis& axis_at(std::size_t i) const {
        return axes_[i];
    }
    /// Total number of grid points (product of axis sizes; 0 if no axes).
    [[nodiscard]] std::size_t size() const;

    /// Decode a flat index into per-axis indices/values and attach the
    /// derived seed.
    [[nodiscard]] SweepPoint point(std::size_t flat_index,
                                   std::uint64_t base_seed) const;

private:
    std::vector<SweepAxis> axes_;
};

/// Maps a lambda over a SweepGrid on a ThreadPool. The result vector is
/// indexed like the grid (row-major, first axis slowest) and is
/// bit-identical for any pool size.
class SweepRunner {
public:
    SweepRunner(ThreadPool& pool, SweepGrid grid,
                std::uint64_t base_seed = 0)
        : pool_(&pool), grid_(std::move(grid)), base_seed_(base_seed) {}

    [[nodiscard]] const SweepGrid& grid() const { return grid_; }
    [[nodiscard]] std::uint64_t base_seed() const { return base_seed_; }

    /// Evaluate fn at every grid point; fn: (const SweepPoint&) -> R with
    /// R default-constructible. Point evaluation order is unspecified;
    /// the returned vector's order is not.
    template <typename R, typename F>
    [[nodiscard]] std::vector<R> map(F&& fn) const {
        obs::TraceSpan span("sweep.map");
        std::vector<R> out(grid_.size());
        // Live progress is globally opt-in (bench --progress); the
        // disabled path costs one relaxed load per sweep, nothing per
        // point. Purely observational — results stay bit-identical.
        std::unique_ptr<obs::ProgressReporter> progress;
        if (obs::ProgressReporter::enabled() && out.size() > 1) {
            progress = std::make_unique<obs::ProgressReporter>(
                "sweep.map", out.size());
        }
        pool_->parallel_for(out.size(), [&](std::size_t i) {
            obs::TraceSpan point_span("sweep.point");
            out[i] = fn(grid_.point(i, base_seed_));
            if (progress) progress->add();
        });
        if (progress) progress->finish();
        return out;
    }

private:
    ThreadPool* pool_;
    SweepGrid grid_;
    std::uint64_t base_seed_;
};

}  // namespace gcdr::exec
