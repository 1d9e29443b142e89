// statmodel_sweep — the paper's statistical BER flow as a user runs it:
// generated gcdr.scenario/v1 documents, one per seeded jitter budget
// (RJ, DJ and CKJ drawn within +-15% of Table 1), each with three
// ber_surface tasks shaped like Fig 9 (with the 1e-12 JTOL search against
// the InfiniBand mask), Fig 10 (frequency-offset axis) and Fig 17
// (sampling advance 0.125), executed by scenario::run_scenario at the
// model's default grid_dx.
//
// Why: stats, statmodel and exec do all the work while sim, cdr,
// sim/batch and serve do none, so an event-kernel change must read "no
// change" here. One operation is one document run.

#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "exec/thread_pool.hpp"
#include "harness.hpp"
#include "obs/metrics.hpp"
#include "obs/trace_span.hpp"
#include "scenario/compile.hpp"
#include "scenario/run.hpp"
#include "util/rng.hpp"

namespace gcdr::e2e {

namespace {

struct Sizes {
    int docs;         ///< documents per rep
    int fig9_freqs;   ///< SJ frequencies of the Fig 9 surface
    int jtol_freqs;   ///< JTOL contour frequencies
    int fig10_points; ///< frequency-offset points of Fig 10
    int fig17_points; ///< frequency-offset points of Fig 17
    double grid_dx;   ///< 0 = the model default
};

constexpr Sizes kFull{2, 7, 5, 9, 9, 0.0};
constexpr Sizes kSmoke{1, 3, 2, 3, 3, 2e-3};

std::string make_doc(Rng& rng, int index, const Sizes& z) {
    // Table 1 budget, each term scaled within +-15%.
    const double dj = 0.4 * rng.uniform(0.85, 1.15);
    const double rj = 0.021 * rng.uniform(0.85, 1.15);
    const double ckj = 0.01 * rng.uniform(0.85, 1.15);
    char model[256];
    if (z.grid_dx > 0.0) {
        std::snprintf(model, sizeof model,
                      "{\"dj_uipp\":%.17g,\"rj_uirms\":%.17g,"
                      "\"ckj_uirms\":%.17g,\"grid_dx\":%.17g}",
                      dj, rj, ckj, z.grid_dx);
    } else {
        std::snprintf(model, sizeof model,
                      "{\"dj_uipp\":%.17g,\"rj_uirms\":%.17g,"
                      "\"ckj_uirms\":%.17g}",
                      dj, rj, ckj);
    }
    char tasks[2048];
    std::snprintf(
        tasks, sizeof tasks,
        "[{\"kind\":\"ber_surface\",\"prefix\":\"fig9\",\"axes\":["
        "{\"name\":\"sj_freq_norm\",\"logspace\":{\"from\":0.0001,"
        "\"to\":0.5,\"points\":%d}},"
        "{\"name\":\"sj_uipp\",\"values\":[0.1,0.35,0.7,1.5]}],"
        "\"jtol\":{\"freqs\":{\"logspace\":{\"from\":0.001,\"to\":0.5,"
        "\"points\":%d}},\"ber_target\":1e-12,\"mask\":\"infiniband_2g5\"}},"
        "{\"kind\":\"ber_surface\",\"prefix\":\"fig10\",\"axes\":["
        "{\"name\":\"freq_offset\",\"linspace\":{\"from\":-0.04,\"to\":0.04,"
        "\"points\":%d}},{\"name\":\"sj_uipp\",\"values\":[0.1,0.3]}]},"
        "{\"kind\":\"ber_surface\",\"prefix\":\"fig17\",\"axes\":["
        "{\"name\":\"sampling_advance_ui\",\"values\":[0.125]},"
        "{\"name\":\"freq_offset\",\"linspace\":{\"from\":0.0,\"to\":0.06,"
        "\"points\":%d}}]}]",
        z.fig9_freqs, z.jtol_freqs, z.fig10_points, z.fig17_points);
    return std::string("{\"schema\":\"gcdr.scenario/v1\",\"name\":"
                       "\"e2e_sweep_") +
           std::to_string(index) + "\",\"model\":" + model +
           ",\"tasks\":" + tasks + "}";
}

const std::vector<double>* find_series(const scenario::TaskResult& t,
                                       const char* name) {
    for (const auto& [key, values] : t.series) {
        if (key == name) return &values;
    }
    return nullptr;
}

class StatmodelSweep final : public Workload {
public:
    explicit StatmodelSweep(const Options& opts)
        : sizes_(opts.smoke ? kSmoke : kFull), pool_(opts.threads) {}

    const char* digest_name() const override { return "digest.ber_grid"; }

    void setup(std::uint64_t rep_seed) override {
        docs_.clear();
        grid_points_.clear();
        rep_seed_ = rep_seed;
        Rng rng(rep_seed);
        for (int i = 0; i < sizes_.docs; ++i) {
            std::string text;
            {
                obs::TraceSpan span("e2e.generate");
                text = make_doc(rng, i, sizes_);
            }
            docs_.push_back(load_scenario(text, "statmodel_sweep.json"));
            obs::TraceSpan span("scenario.compile");
            std::vector<std::size_t> points;
            for (const auto& task : docs_.back().doc.tasks) {
                points.push_back(scenario::compile_grid(task).size());
            }
            grid_points_.push_back(std::move(points));
        }
    }

    void run(RepRecord& rec, std::uint64_t& digest) override {
        pool_.attach_metrics(traced_ ? &pool_metrics_ : nullptr);
        scenario::ScenarioContext ctx;
        ctx.metrics = &scratch_;
        ctx.pool = &pool_;
        ctx.seed = rep_seed_;
        for (std::size_t d = 0; d < docs_.size(); ++d) {
            const scenario::ScenarioDoc& doc = docs_[d].doc;
            scenario::ScenarioResult result;
            {
                obs::TraceSpan span("scenario.run");
                result = scenario::run_scenario(doc, ctx);
            }
            ++rec.attempted;

            obs::TraceSpan span("e2e.check");
            if (!check(doc, result, grid_points_[d])) {
                rec.fail("statmodel_sweep: " + doc.name +
                         " has a missing, non-finite or out-of-range BER");
            }
            fold(digest, docs_[d].hash);
            fold(digest, scenario::result_payload_json(doc, result));
        }
    }

    void add_counters(Counters& out) const override {
        add_pool_counters(pool_metrics_, pool_.size(), out);
    }

private:
    static bool check(const scenario::ScenarioDoc& doc,
                      const scenario::ScenarioResult& result,
                      const std::vector<std::size_t>& points) {
        if (result.tasks.size() != doc.tasks.size()) return false;
        for (std::size_t t = 0; t < result.tasks.size(); ++t) {
            const std::vector<double>* ber =
                find_series(result.tasks[t], "ber");
            if (!ber || ber->size() != points[t]) return false;
            for (double b : *ber) {
                if (!std::isfinite(b) || b < 0.0 || b > 0.5) return false;
            }
            if (doc.tasks[t].has_jtol) {
                const std::vector<double>* tol =
                    find_series(result.tasks[t], "jtol_uipp");
                if (!tol || tol->size() != doc.tasks[t].jtol.freqs.size()) {
                    return false;
                }
                for (double a : *tol) {
                    if (!std::isfinite(a) || a < 0.0) return false;
                }
            }
        }
        return true;
    }

    Sizes sizes_;
    exec::ThreadPool pool_;
    obs::MetricsRegistry scratch_;       ///< the runner's bench-parity metrics
    obs::MetricsRegistry pool_metrics_;  ///< pool telemetry, traced reps only
    std::vector<LoadedScenario> docs_;
    std::vector<std::vector<std::size_t>> grid_points_;
    std::uint64_t rep_seed_ = 0;
};

}  // namespace

std::unique_ptr<Workload> make_statmodel_sweep(const Options& opts) {
    return std::make_unique<StatmodelSweep>(opts);
}

}  // namespace gcdr::e2e
