// rare_event — the 1e-12 cross-validation flow: the four bench_xval_ber
// operating points (sj030, sj020, mid030, adv055; BER from about 1e-3
// down to 7e-13), each a generated scenario document with a model and an
// mc section. Importance sampling runs on AnalyticMarginModel to the
// document's target relative error; on BehavioralMarginModel with 16
// batch lanes, DirectSampler runs at sj030 and SplittingEngine at sj020,
// each under a fixed max_evals cap. One operation is one estimate; the
// rep's wall time is time to estimate, so an estimator that needs fewer
// evaluations shows.
//
// Why: the mc engines, the sim/batch kernel and its RNG do most of the
// work; the scalar kernel runs only inside splitting's pCN chains.

#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "exec/thread_pool.hpp"
#include "harness.hpp"
#include "mc/direct.hpp"
#include "mc/importance.hpp"
#include "mc/margin_model.hpp"
#include "mc/splitting.hpp"
#include "obs/trace_span.hpp"
#include "scenario/compile.hpp"

namespace gcdr::e2e {

namespace {

struct Point {
    const char* key;
    const char* model;  ///< scenario "model" section
};

// bench_xval_ber's operating points.
constexpr Point kPoints[] = {
    {"sj030", "{\"sj_uipp\":0.3,\"sj_freq_norm\":0.5}"},
    {"sj020", "{\"sj_uipp\":0.2,\"sj_freq_norm\":0.5}"},
    {"mid030", "{\"freq_offset\":0.03}"},
    {"adv055", "{\"sampling_advance_ui\":0.125,\"freq_offset\":0.055}"},
};

struct Sizes {
    std::uint64_t is_max_evals;
    double is_target_rel_err;
    /// Behavioral direct runs at sj030: one round of this many runs is
    /// also the cap, so its cost does not depend on the seed.
    std::uint64_t direct_runs;
    double direct_target_rel_err;
    std::uint64_t split_max_evals;   ///< behavioral splitting cap (sj020)
    std::size_t split_particles;
    double split_target_rel_err;
};

// The direct run count is bench_xval_ber's (1 << 14), in one round so its
// cost does not depend on the seed; its run-length-1 stratum, half the
// runs, executes on one pool lane. The direct target needs about 16
// errors where about 60 are expected.
constexpr Sizes kFull{8'000'000, 0.03, 16384, 0.5, 60000, 4096, 1.0};
constexpr Sizes kSmoke{400'000, 0.3, 4096, 2.0, 6000, 256, 2.0};

constexpr std::size_t kBatchLanes = 16;

class RareEvent final : public Workload {
public:
    explicit RareEvent(const Options& opts)
        : sizes_(opts.smoke ? kSmoke : kFull), pool_(opts.threads) {}

    const char* digest_name() const override { return "digest.mc"; }

    void setup(std::uint64_t rep_seed) override {
        points_.clear();
        budgets_.clear();
        char mc[160];
        std::snprintf(mc, sizeof mc,
                      "{\"max_evals\":%llu,\"target_rel_err\":%.17g}",
                      static_cast<unsigned long long>(sizes_.is_max_evals),
                      sizes_.is_target_rel_err);
        for (const Point& p : kPoints) {
            std::string text;
            {
                obs::TraceSpan span("e2e.generate");
                text = std::string("{\"schema\":\"gcdr.scenario/v1\","
                                   "\"name\":\"e2e_rare_") +
                       p.key + "\",\"model\":" + p.model + ",\"mc\":" + mc +
                       ",\"tasks\":[{\"kind\":\"differential\",\"prefix\":"
                       "\"xval\",\"behavioral_runs\":0}]}";
            }
            points_.push_back(load_scenario(text, "rare_event.json"));
            obs::TraceSpan span("scenario.compile");
            budgets_.push_back(
                scenario::compile_budget(points_.back().doc.mc, rep_seed));
        }
    }

    void run(RepRecord& rec, std::uint64_t& digest) override {
        pool_.attach_metrics(traced_ ? &pool_metrics_ : nullptr);
        obs::MetricsRegistry* engine_metrics =
            traced_ ? &engine_metrics_ : nullptr;

        for (std::size_t i = 0; i < points_.size(); ++i) {
            const mc::AnalyticMarginModel model(points_[i].doc.model);
            mc::ImportanceSampler::Config ic;
            ic.budget = budgets_[i];
            const mc::ImportanceSampler is(model, ic, engine_metrics);
            mc::McEstimate e;
            {
                obs::TraceSpan span("mc.is");
                e = is.estimate(pool_);
            }
            record(rec, digest, e, kPoints[i].key, "importance sampling");
            if (traced_) {
                counters_["mc.is.evals"] += static_cast<double>(e.n_samples);
                counters_["mc.is.estimates"] += 1.0;
            }
        }

        {
            auto bp = mc::BehavioralMarginModel::params_from(
                points_[0].doc.model);
            bp.batch_lanes = kBatchLanes;
            const mc::BehavioralMarginModel beh(bp);
            mc::DirectSampler::Config dc;
            dc.budget = budgets_[0];
            dc.budget.max_evals = sizes_.direct_runs;
            dc.budget.target_rel_err = sizes_.direct_target_rel_err;
            dc.runs_per_round = sizes_.direct_runs;
            const mc::DirectSampler direct(beh, dc, engine_metrics);
            mc::McEstimate e;
            {
                obs::TraceSpan span("mc.direct");
                e = direct.estimate(pool_);
            }
            record(rec, digest, e, kPoints[0].key, "behavioral direct");
            add_batch_stats(beh);
        }

        {
            auto bp = mc::BehavioralMarginModel::params_from(
                points_[1].doc.model);
            bp.batch_lanes = kBatchLanes;
            const mc::BehavioralMarginModel beh(bp);
            mc::SplittingEngine::Config sc;
            sc.budget = budgets_[1];
            sc.budget.max_evals = sizes_.split_max_evals;
            sc.budget.target_rel_err = sizes_.split_target_rel_err;
            sc.n_particles = sizes_.split_particles;
            const mc::SplittingEngine split(beh, sc, engine_metrics);
            mc::McEstimate e;
            {
                obs::TraceSpan span("mc.split");
                e = split.estimate(pool_);
            }
            record(rec, digest, e, kPoints[1].key, "behavioral splitting");
            add_batch_stats(beh);
            if (traced_) {
                counters_["mc.split.levels"] +=
                    engine_metrics_.gauge("mc.split.levels").value();
                counters_["mc.split.acceptance_rate"] +=
                    engine_metrics_.gauge("mc.split.acceptance_rate").value();
            }
        }
        for (const LoadedScenario& p : points_) fold(digest, p.hash);
    }

    void add_counters(Counters& out) const override {
        for (const auto& [k, v] : counters_) out[k] += v;
        add_pool_counters(pool_metrics_, pool_.size(), out);
    }

private:
    void record(RepRecord& rec, std::uint64_t& digest,
                const mc::McEstimate& e, const char* point,
                const char* engine) {
        ++rec.attempted;
        if (!e.converged || !std::isfinite(e.mean) || e.mean <= 0.0 ||
            e.mean > 0.5) {
            rec.fail(std::string("rare_event: ") + engine + " at " + point +
                     " missed its target (mean " + std::to_string(e.mean) +
                     ", rel err " + std::to_string(e.rel_err()) + ", " +
                     std::to_string(e.n_samples) + " evals)");
        }
        fold(digest, e.mean);
        fold(digest, e.std_err);
        digest = util::fnv1a64_u64(e.n_samples, digest);
        if (traced_) counters_["mc.evals"] += static_cast<double>(e.n_samples);
    }

    void add_batch_stats(const mc::BehavioralMarginModel& m) {
        if (!traced_) return;
        const auto& st = m.batch_stats();
        counters_["simbatch.evals"] += static_cast<double>(st.evals.load());
        counters_["simbatch.batches"] +=
            static_cast<double>(st.batches.load());
        counters_["simbatch.kernel_s"] += st.wall_seconds.load();
    }

    Sizes sizes_;
    exec::ThreadPool pool_;
    obs::MetricsRegistry pool_metrics_;
    obs::MetricsRegistry engine_metrics_;
    Counters counters_;
    std::vector<LoadedScenario> points_;
    std::vector<mc::McBudget> budgets_;
};

}  // namespace

std::unique_ptr<Workload> make_rare_event(const Options& opts) {
    return std::make_unique<RareEvent>(opts);
}

}  // namespace gcdr::e2e
