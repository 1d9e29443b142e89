#include "serve/executor.hpp"

#include <algorithm>
#include <atomic>
#include <mutex>
#include <optional>
#include <vector>

#include "mc/importance.hpp"
#include "mc/margin_model.hpp"
#include "obs/canonical.hpp"
#include "obs/json.hpp"
#include "obs/metrics.hpp"
#include "scenario/run.hpp"
#include "statmodel/bathtub.hpp"
#include "statmodel/gated_osc_model.hpp"
#include "util/hash.hpp"

namespace gcdr::serve {

namespace {

/// Envelope prefix shared by every result: schema, job id, status comes
/// last (it is decided after execution).
void envelope_header(obs::JsonWriter& w, const JobState& job,
                     const CacheKey& key, JobStatus status,
                     std::uint64_t hits, std::uint64_t misses) {
    w.key("schema").value(kResultSchema);
    w.key("job_id").value(job.id());
    w.key("status").value(job_status_name(status));
    w.key("type").value(job_type_name(job.spec().type));
    w.key("config_hash").value(util::hash_hex(key.config_hash));
    w.key("model_version").value(model_version_of(job.spec().type));
    w.key("seed").value(job.spec().seed);
    w.key("cache").begin_object();
    w.key("hits").value(hits);
    w.key("misses").value(misses);
    w.end_object();
}

}  // namespace

JobExecutor::JobExecutor(ResultCache& cache, obs::MetricsRegistry* metrics)
    : cache_(&cache), metrics_(metrics) {}

CacheKey JobExecutor::key_of(const JobSpec& spec) {
    CacheKey key;
    key.config_hash = spec_config_hash(spec);
    key.seed = spec.seed;
    key.model_hash = util::fnv1a64(model_version_of(spec.type));
    return key;
}

std::string JobExecutor::compute_payload(
    const JobSpec& spec, exec::ThreadPool& pool, JobState* job,
    const statmodel::GatedOscStatModel* model) const {
    if (spec.type == JobType::kScenario) {
        // Scenario payloads come from the runner's deterministic
        // TaskResults, never from a metrics registry (timers are
        // wall-clock, which would poison the cache). The scratch registry
        // absorbs the runner's bench-parity metrics and is dropped.
        obs::MetricsRegistry scratch;
        scenario::ScenarioContext ctx;
        ctx.metrics = &scratch;
        ctx.pool = &pool;
        ctx.seed = spec.seed;
        ctx.verbose = false;
        if (job) {
            // health_probe tasks call this once per completed slice and
            // once with the final snapshot; watchers on /v1/watch/<id>
            // see each frame as its own chunk.
            ctx.health_frame_sink = [job](const std::string& frame) {
                job->push_frame(frame);
            };
        }
        const scenario::ScenarioResult result =
            scenario::run_scenario(spec.scenario, ctx);
        std::string payload =
            scenario::result_payload_json(spec.scenario, result);
        std::string canon;
        if (!obs::canonicalize(payload, canon, nullptr)) return payload;
        return canon;
    }
    obs::JsonWriter w(obs::JsonWriter::kCompact);
    w.begin_object();
    switch (spec.type) {
        case JobType::kBer:
            w.key("ber").value(model ? model->ber_at(spec.cfg)
                                     : statmodel::ber_of(spec.cfg));
            break;
        case JobType::kEye: {
            const statmodel::GatedOscStatModel model(spec.cfg);
            w.key("bathtub_opening_ui")
                .value(statmodel::bathtub_opening_ui(spec.cfg,
                                                     spec.ber_target));
            w.key("eye_margin_ui").value(model.eye_margin_ui(spec.ber_target));
            break;
        }
        case JobType::kMc: {
            const mc::AnalyticMarginModel model(spec.cfg);
            mc::ImportanceSampler::Config cfg;
            cfg.budget.base_seed = spec.seed;
            cfg.budget.max_evals = spec.mc.max_evals;
            cfg.budget.target_rel_err = spec.mc.target_rel_err;
            const mc::ImportanceSampler sampler(model, cfg, nullptr);
            const mc::McEstimate est = sampler.estimate(pool);
            w.key("ber").value(est.mean);
            w.key("ci_hi").value(est.ci.hi);
            w.key("ci_lo").value(est.ci.lo);
            w.key("converged").value(est.converged);
            w.key("ess").value(est.ess);
            w.key("n_samples").value(est.n_samples);
            w.key("std_err").value(est.std_err);
            break;
        }
        case JobType::kSweep:
        case JobType::kScenario:
            break;  // sweep: run_sweep; scenario: early return above
    }
    w.end_object();
    // The cached unit must be canonical so a segment reload, a hit, and
    // a recomputation all agree byte for byte (JsonWriter's compact mode
    // still spaces after colons and formats integral doubles its own
    // way). One canonicalize per *computed* point — compute dominates.
    std::string canon;
    if (!obs::canonicalize(w.str(), canon, nullptr)) return w.str();
    return canon;
}

ExecOutcome JobExecutor::run_single(JobState& job, exec::ThreadPool& pool) {
    const JobSpec& spec = job.spec();
    const CacheKey key = key_of(spec);
    ExecOutcome out;
    std::string payload;
    if (cache_->lookup(key, payload)) {
        out.cache_hits = 1;
    } else {
        out.cache_misses = 1;
        obs::ScopedTimer t(metrics_, "serve.point_seconds");
        payload = compute_payload(spec, pool, &job);
        cache_->store(key, payload);
        if (metrics_) metrics_->counter("serve.points_computed").inc();
    }
    if (metrics_ && out.cache_hits) {
        metrics_->counter("serve.points_cached").inc();
    }
    out.status = JobStatus::kDone;
    obs::JsonWriter w(obs::JsonWriter::kCompact);
    w.begin_object();
    envelope_header(w, job, key, out.status, out.cache_hits,
                    out.cache_misses);
    w.key("cache_hit").value(out.cache_hits != 0);
    w.end_object();
    // Splice the payload in verbatim (JsonWriter cannot embed raw JSON;
    // the envelope is valid by construction either way).
    std::string env = w.str();
    env.insert(env.size() - 1, ",\"payload\":" + payload);
    out.envelope = std::move(env);
    return out;
}

ExecOutcome JobExecutor::run_sweep(JobState& job, exec::ThreadPool& pool) {
    const JobSpec& spec = job.spec();
    const CacheKey sweep_key = key_of(spec);
    const exec::SweepGrid grid(spec.axes);
    const std::size_t n = grid.size();

    auto point_spec = [&](std::size_t i) {
        return sweep_point_spec(spec, grid.point(i, spec.seed));
    };

    // Pre-pass: resolve every point's key and pull cached payloads.
    std::vector<CacheKey> keys(n);
    std::vector<std::string> payloads(n);
    std::vector<char> have(n, 0);
    std::vector<std::size_t> missing;
    ExecOutcome out;
    for (std::size_t i = 0; i < n; ++i) {
        keys[i] = key_of(point_spec(i));
        if (cache_->lookup(keys[i], payloads[i])) {
            have[i] = 1;
            ++out.cache_hits;
        } else {
            ++out.cache_misses;
            missing.push_back(i);
        }
    }
    if (metrics_) {
        metrics_->counter("serve.points_cached").inc(out.cache_hits);
    }
    std::mutex sink_mu;
    auto emit = [&](std::size_t i, bool cached) {
        if (!job.stream_sink) return;
        obs::JsonWriter w(obs::JsonWriter::kCompact);
        w.begin_object();
        w.key("index").value(static_cast<std::uint64_t>(i));
        w.key("cached").value(cached);
        w.end_object();
        std::string line = w.str();
        line.insert(line.size() - 1, ",\"payload\":" + payloads[i]);
        std::lock_guard<std::mutex> lk(sink_mu);
        job.stream_sink(line);
    };
    for (std::size_t i = 0; i < n; ++i) {
        if (have[i]) emit(i, /*cached=*/true);
    }

    // Missing points evaluate through one model built from the first of
    // them: ber_at reuses its edge PDFs for every point that shares them
    // (an SJ or frequency axis: all points) and builds a point's own model
    // otherwise. The model is built only when another point shares its
    // PDFs, so a PDF-shaping axis such as rj_uirms builds no extra one.
    std::optional<statmodel::GatedOscStatModel> model;
    if (!missing.empty()) {
        const statmodel::ModelConfig first = point_spec(missing[0]).cfg;
        if (std::any_of(missing.begin() + 1, missing.end(),
                        [&](std::size_t i) {
                            return statmodel::shares_edge_pdfs(
                                first, point_spec(i).cfg);
                        })) {
            model.emplace(first);
        }
    }

    // Compute phase: missing points through one pool job with a stop flag.
    // The stop flag latches on the first cancel/deadline observation;
    // in-flight points finish and are stored (resume-friendly).
    std::atomic<bool> stop{false};
    std::size_t ran = 0;
    if (!missing.empty()) {
        ran = pool.parallel_for(
            missing.size(),
            [&](std::size_t mi) {
                if (job.cancel_requested() || job.remaining_s() <= 0.0) {
                    stop.store(true, std::memory_order_relaxed);
                    // This index still runs (the handout already
                    // happened); that is fine — one extra point, stored.
                }
                const std::size_t i = missing[mi];
                obs::ScopedTimer t(metrics_, "serve.point_seconds");
                payloads[i] = compute_payload(point_spec(i), pool, nullptr,
                                              model ? &*model : nullptr);
                cache_->store(keys[i], payloads[i]);
                have[i] = 1;
                emit(i, /*cached=*/false);
            },
            &stop);
        if (metrics_) {
            metrics_->counter("serve.points_computed").inc(ran);
        }
    }

    std::size_t done = 0;
    for (std::size_t i = 0; i < n; ++i) done += have[i] != 0;
    if (done == n) {
        out.status = JobStatus::kDone;
    } else if (job.cancel_requested()) {
        out.status = JobStatus::kCancelled;
    } else {
        out.status = JobStatus::kPartial;  // deadline
    }

    obs::JsonWriter w(obs::JsonWriter::kCompact);
    w.begin_object();
    envelope_header(w, job, sweep_key, out.status, out.cache_hits,
                    out.cache_misses);
    w.key("points_total").value(static_cast<std::uint64_t>(n));
    w.key("points_done").value(static_cast<std::uint64_t>(done));
    w.end_object();
    std::string payload = "{\"points\":[";
    for (std::size_t i = 0; i < n; ++i) {
        if (i) payload += ',';
        payload += have[i] ? payloads[i] : "null";
    }
    payload += "]}";
    std::string env = w.str();
    env.insert(env.size() - 1, ",\"payload\":" + payload);
    out.envelope = std::move(env);
    return out;
}

ExecOutcome JobExecutor::execute(JobState& job, exec::ThreadPool& pool) {
    obs::ScopedTimer t(metrics_, "serve.job_seconds");
    if (job.spec().type == JobType::kSweep) return run_sweep(job, pool);
    // Single jobs are one atomic compute unit: resolve cancel/deadline
    // up front, then run to completion.
    JobStatus pre = JobStatus::kDone;
    if (job.cancel_requested()) {
        pre = JobStatus::kCancelled;
    } else if (job.remaining_s() <= 0.0) {
        pre = JobStatus::kExpired;
    }
    if (pre != JobStatus::kDone) {
        ExecOutcome out;
        out.status = pre;
        obs::JsonWriter w(obs::JsonWriter::kCompact);
        w.begin_object();
        envelope_header(w, job, key_of(job.spec()), pre, 0, 0);
        w.end_object();
        out.envelope = w.str();
        return out;
    }
    return run_single(job, pool);
}

}  // namespace gcdr::serve
