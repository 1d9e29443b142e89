#include "harness.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <optional>
#include <stdexcept>
#include <utility>

#include "exec/sweep.hpp"
#include "obs/json.hpp"
#include "obs/log.hpp"
#include "obs/process_stats.hpp"
#include "obs/report.hpp"
#include "obs/trace_span.hpp"

#ifndef GCDR_E2E_BUILD_TYPE
#define GCDR_E2E_BUILD_TYPE "unknown"
#endif

namespace gcdr::e2e {

namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

double median(std::vector<double> v) { return percentile(std::move(v), 0.5); }

double total(const std::vector<double>& v) {
    double sum = 0.0;
    for (double x : v) sum += x;
    return sum;
}

struct PhaseResult {
    /// Per measured rep: setup_s, wall_s and the workload's own samples.
    std::map<std::string, std::vector<double>> per_rep;
    std::uint64_t measured_ops = 0;  ///< operations of the measured reps
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    std::uint64_t digest = util::kFnv1a64OffsetBasis;

    [[nodiscard]] const std::vector<double>& wall_s() const {
        return per_rep.at("wall_s");
    }
};

/// One pass over the rep sequence. When `traced`, span collection and the
/// workload's instrumentation start after the warm-up rep, so the layer
/// rows cover exactly the measured reps.
PhaseResult run_phase(Workload& wl, const Options& opts, double budget_s,
                      bool traced) {
    PhaseResult res;
    obs::SpanCollector& col = obs::SpanCollector::global();
    wl.begin_phase();
    const Clock::time_point start = Clock::now();
    double last_rep_s = 0.0;
    for (std::size_t rep = 0;; ++rep) {
        const std::size_t measured = rep == 0 ? 0 : rep - 1;
        // Stop before a rep that would end past the budget, so a run
        // takes its budget, not its budget plus a rep.
        if (measured >= kMinMeasuredReps && rep >= kDigestReps &&
            seconds_since(start) + last_rep_s > budget_s) {
            break;
        }
        const Clock::time_point rep_start = Clock::now();
        if (traced && rep == 1) {
            col.clear();
            // Room for every span of a run: the sweep workloads record
            // a few hundred thousand convolve spans.
            col.enable(std::size_t{1} << 20);
            wl.set_traced(true);
        }
        const std::uint64_t rep_seed = exec::derive_seed(opts.seed, rep);
        RepRecord rec;
        std::uint64_t rep_digest = util::kFnv1a64OffsetBasis;
        double setup_s = 0.0;
        {
            obs::TraceSpan root("e2e.root");
            const Clock::time_point t0 = Clock::now();
            wl.setup(rep_seed);
            setup_s = seconds_since(t0);
        }
        double wall_s = 0.0;
        {
            std::optional<obs::TraceSpan> root;
            if (!wl.own_root_spans()) root.emplace("e2e.root");
            const Clock::time_point t0 = Clock::now();
            wl.run(rec, rep_digest);
            wall_s = seconds_since(t0);
        }
        wl.teardown();
        last_rep_s = seconds_since(rep_start);

        res.attempted += rec.attempted;
        res.failed += rec.failed;
        if (rep < kDigestReps) {
            res.digest = util::fnv1a64_u64(rep_digest, res.digest);
        }
        if (rep == 0) continue;  // warm-up
        res.per_rep["setup_s"].push_back(setup_s);
        res.per_rep["wall_s"].push_back(wall_s);
        for (const auto& [name, v] : rec.samples) {
            res.per_rep[name].push_back(v);
        }
        res.measured_ops += rec.attempted;
    }
    if (traced) {
        wl.set_traced(false);
        col.disable();
    }
    return res;
}

// --- span attribution ------------------------------------------------------

struct NameStats {
    std::uint64_t count = 0;
    double busy_s = 0.0;  ///< summed span durations
    double self_s = 0.0;  ///< durations minus direct children on the thread
};

struct SpanAnalysis {
    std::map<std::string, NameStats> by_name;
    double root_s = 0.0;          ///< summed "e2e.root" durations
    double unattributed_s = 0.0;  ///< root time no child span covers
};

SpanAnalysis analyze(std::vector<obs::SpanCollector::Span> spans) {
    std::sort(spans.begin(), spans.end(),
              [](const obs::SpanCollector::Span& a,
                 const obs::SpanCollector::Span& b) {
                  if (a.tid != b.tid) return a.tid < b.tid;
                  if (a.t0_s != b.t0_s) return a.t0_s < b.t0_s;
                  return a.t1_s > b.t1_s;  // parent before child
              });
    struct Open {
        const obs::SpanCollector::Span* span;
        double child_s;
    };
    SpanAnalysis out;
    std::vector<Open> stack;
    auto close = [&](const Open& o) {
        const double dur = o.span->t1_s - o.span->t0_s;
        NameStats& st = out.by_name[o.span->name];
        ++st.count;
        st.busy_s += dur;
        st.self_s += std::max(0.0, dur - o.child_s);
        if (std::strcmp(o.span->name, "e2e.root") == 0) {
            out.root_s += dur;
            out.unattributed_s += std::max(0.0, dur - o.child_s);
        }
    };
    std::uint32_t tid = 0;
    for (const auto& s : spans) {
        if (s.tid != tid) {
            while (!stack.empty()) {
                close(stack.back());
                stack.pop_back();
            }
            tid = s.tid;
        }
        while (!stack.empty() && stack.back().span->t1_s <= s.t0_s) {
            close(stack.back());
            stack.pop_back();
        }
        if (!stack.empty()) stack.back().child_s += s.t1_s - s.t0_s;
        stack.push_back({&s, 0.0});
    }
    while (!stack.empty()) {
        close(stack.back());
        stack.pop_back();
    }
    return out;
}

/// Sum of a stat over every span name of a layer: the name itself and
/// its dotted children ("mc.is" covers "mc.is.round"). The summed self
/// time is the layer's busy time minus the nested spans of other layers.
double layer_sum(const SpanAnalysis& a, const std::string& layer,
                 double NameStats::*field) {
    double total = 0.0;
    for (const auto& [name, st] : a.by_name) {
        if (name == layer || name.rfind(layer + ".", 0) == 0) {
            total += st.*field;
        }
    }
    return total;
}

/// The per-layer rows of the traced run, every row present for every
/// workload (0 where the layer does no work). Times and counts are per
/// traced rep. The names are the per_layer list of BENCHMARK.json.
std::vector<std::pair<std::string, double>> layer_metrics(
    const SpanAnalysis& a, const Counters& counters,
    const PhaseResult& untraced, const PhaseResult& traced) {
    const double reps = static_cast<double>(traced.wall_s().size());
    auto per_rep = [&](double v) { return reps > 0 ? v / reps : 0.0; };
    auto counter = [&](const char* name) {
        const auto it = counters.find(name);
        return it == counters.end() ? 0.0 : it->second;
    };
    auto busy = [&](const char* layer) {
        return layer_sum(a, layer, &NameStats::busy_s);
    };
    auto self = [&](const char* layer) {
        return layer_sum(a, layer, &NameStats::self_s);
    };
    auto count = [&](const char* name) {
        const auto it = a.by_name.find(name);
        return it == a.by_name.end() ? 0.0
                                     : static_cast<double>(it->second.count);
    };
    auto ratio = [](double num, double den) {
        return den > 0.0 ? num / den : 0.0;
    };
    const double traced_wall_s = total(traced.wall_s());

    const double hits = counter("serve.cache.hits");
    const double misses = counter("serve.cache.misses");
    return {
        {"scenario.load_s", per_rep(busy("scenario.load"))},
        {"scenario.hash_s", per_rep(busy("scenario.hash"))},
        {"scenario.compile_s", per_rep(busy("scenario.compile"))},
        {"exec.items", per_rep(counter("exec.items"))},
        {"exec.lane_utilization",
         ratio(counter("exec.item_s"), counter("exec.lane_job_s"))},
        {"stats.convolve.calls", per_rep(count("pdf.convolve"))},
        {"stats.convolve.self_s", per_rep(self("pdf.convolve"))},
        {"statmodel.points", per_rep(count("sweep.point"))},
        {"statmodel.point.self_s", per_rep(self("sweep.point"))},
        {"statmodel.points_per_s", ratio(count("sweep.point"), traced_wall_s)},
        {"jitter.edges", per_rep(counter("jitter.edges"))},
        {"jitter.busy_s", per_rep(busy("jitter.edges"))},
        {"sim.events", per_rep(counter("sim.events"))},
        {"sim.events_per_s", ratio(counter("sim.events"), busy("cdr.run"))},
        {"cdr.decisions", per_rep(counter("cdr.decisions"))},
        {"cdr.run.busy_s", per_rep(busy("cdr.run"))},
        {"cdr.elastic.busy_s", per_rep(busy("cdr.elastic"))},
        {"simbatch.evals", per_rep(counter("simbatch.evals"))},
        {"simbatch.batches", per_rep(counter("simbatch.batches"))},
        {"simbatch.kernel_s", per_rep(counter("simbatch.kernel_s"))},
        {"simbatch.evals_per_s",
         ratio(counter("simbatch.evals"), counter("simbatch.kernel_s"))},
        {"mc.evals", per_rep(counter("mc.evals"))},
        {"mc.is.evals_to_target",
         ratio(counter("mc.is.evals"), counter("mc.is.estimates"))},
        {"mc.is.self_s", per_rep(self("mc.is"))},
        {"mc.direct.self_s", per_rep(self("mc.direct"))},
        {"mc.split.self_s", per_rep(self("mc.split"))},
        {"mc.split.levels", per_rep(counter("mc.split.levels"))},
        {"mc.split.acceptance_rate",
         per_rep(counter("mc.split.acceptance_rate"))},
        {"serve.cache.reload_s", per_rep(busy("serve.cache.reload"))},
        {"serve.protocol.parse_s", per_rep(busy("serve.protocol.parse"))},
        {"serve.protocol.hash_s", per_rep(busy("serve.protocol.hash"))},
        {"serve.cache.lookup_s", per_rep(busy("serve.cache.lookup"))},
        {"serve.http_p50_ms", per_rep(counter("serve.http_p50_ms"))},
        {"serve.queue_wait_p50_ms",
         per_rep(counter("serve.queue_wait_p50_ms"))},
        {"serve.request_p50_ms", per_rep(counter("serve.request_p50_ms"))},
        {"serve.cache.hits", per_rep(hits)},
        {"serve.cache.misses", per_rep(misses)},
        {"serve.cache.stores", per_rep(counter("serve.cache.stores"))},
        {"serve.cache.hit_ratio", ratio(hits, hits + misses)},
        {"unattributed_s", per_rep(a.unattributed_s)},
        {"unattributed_ratio", ratio(a.unattributed_s, a.root_s)},
        {"trace_overhead_ratio",
         ratio(median(traced.wall_s()), median(untraced.wall_s()))},
    };
}

void print_layer_table(const std::string& workload, const SpanAnalysis& a,
                       const std::vector<std::pair<std::string, double>>& rows,
                       double traced_wall_s) {
    std::fprintf(stderr, "\n[%s] traced spans (all threads)\n",
                 workload.c_str());
    std::fprintf(stderr, "%-24s %10s %12s %12s %8s\n", "span", "count",
                 "busy_s", "self_s", "share");
    for (const auto& [name, st] : a.by_name) {
        std::fprintf(stderr, "%-24s %10llu %12.6f %12.6f %8.3f\n",
                     name.c_str(), static_cast<unsigned long long>(st.count),
                     st.busy_s, st.self_s,
                     traced_wall_s > 0 ? st.busy_s / traced_wall_s : 0.0);
    }
    std::fprintf(stderr, "\n[%s] per-layer metrics (per traced rep)\n",
                 workload.c_str());
    for (const auto& [name, v] : rows) {
        std::fprintf(stderr, "%-28s %.6g\n", name.c_str(), v);
    }
}

bool write_file(const std::string& path, const std::string& text) {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (!f) {
        std::fprintf(stderr, "bench_e2e: cannot write %s\n", path.c_str());
        return false;
    }
    const bool ok = std::fwrite(text.data(), 1, text.size(), f) ==
                    text.size();
    return std::fclose(f) == 0 && ok;
}

std::unique_ptr<Workload> make_workload(const Options& opts) {
    if (opts.workload == "statmodel_sweep") return make_statmodel_sweep(opts);
    if (opts.workload == "lane_sim") return make_lane_sim(opts);
    if (opts.workload == "rare_event") return make_rare_event(opts);
    if (opts.workload == "serve_mixed") return make_serve_mixed(opts);
    return nullptr;
}

}  // namespace

void RepRecord::fail(const std::string& why) {
    ++failed;
    static std::atomic<int> printed{0};
    if (printed.fetch_add(1, std::memory_order_relaxed) < 20) {
        std::fprintf(stderr, "bench_e2e: FAILED %s\n", why.c_str());
    }
}

double percentile(std::vector<double> v, double p) {
    if (v.empty()) return 0.0;
    std::sort(v.begin(), v.end());
    const double rank = p * static_cast<double>(v.size() - 1);
    const std::size_t lo = static_cast<std::size_t>(rank);
    const std::size_t hi = std::min(lo + 1, v.size() - 1);
    return v[lo] + (v[hi] - v[lo]) * (rank - static_cast<double>(lo));
}

void fold(std::uint64_t& digest, const std::string& bytes) {
    digest = util::fnv1a64(bytes, digest);
}

void fold(std::uint64_t& digest, double value) {
    std::uint64_t bits = 0;
    static_assert(sizeof bits == sizeof value);
    std::memcpy(&bits, &value, sizeof bits);
    digest = util::fnv1a64_u64(bits, digest);
}

void add_pool_counters(const obs::MetricsRegistry& reg, std::size_t lanes,
                       Counters& out) {
    const auto& counters = reg.counters();
    const auto& hists = reg.histograms();
    if (const auto it = counters.find("exec.items"); it != counters.end()) {
        out["exec.items"] += static_cast<double>(it->second->value());
    }
    if (const auto it = hists.find("exec.item_seconds"); it != hists.end()) {
        out["exec.item_s"] += it->second->sum();
    }
    if (const auto it = hists.find("exec.job_seconds"); it != hists.end()) {
        out["exec.lane_job_s"] +=
            static_cast<double>(lanes) * it->second->sum();
    }
}

double ms_since(std::chrono::steady_clock::time_point t0) {
    return std::chrono::duration<double, std::milli>(Clock::now() - t0)
        .count();
}

LoadedScenario load_scenario(const std::string& text, const char* file) {
    LoadedScenario out;
    std::vector<scenario::Diagnostic> diags;
    bool ok = false;
    {
        obs::TraceSpan span("scenario.load");
        ok = scenario::scenario_from_string(text, out.doc, diags, file);
    }
    if (!ok) {
        throw std::runtime_error(
            diags.empty() ? std::string("scenario rejected")
                          : diags.front().render());
    }
    obs::TraceSpan span("scenario.hash");
    out.hash = scenario::scenario_hash(out.doc);
    return out;
}

int run_benchmark(const Options& opts) {
    std::unique_ptr<Workload> wl = make_workload(opts);
    if (!wl) {
        std::fprintf(stderr, "bench_e2e: unknown workload '%s'\n",
                     opts.workload.c_str());
        return 2;
    }
    // The daemon access-logs every request at info; a benchmark run
    // keeps warnings only.
    obs::Logger::global().set_level(obs::LogLevel::kWarn);

    const bool traced_run = !opts.trace_dir.empty();
    const double budget = traced_run ? opts.seconds / 2.0 : opts.seconds;
    const PhaseResult untraced = run_phase(*wl, opts, budget, false);
    const double peak_rss_mb =
        static_cast<double>(obs::process_peak_rss_bytes()) / (1024.0 * 1024.0);

    std::uint64_t attempted = untraced.attempted;
    std::uint64_t failed = untraced.failed;
    std::vector<std::pair<std::string, double>> layers;
    if (traced_run) {
        obs::SpanCollector& col = obs::SpanCollector::global();
        const PhaseResult traced = run_phase(*wl, opts, budget, true);
        attempted += traced.attempted;
        failed += traced.failed;
        if (traced.digest != untraced.digest) {
            ++failed;
            std::fprintf(stderr,
                         "bench_e2e: FAILED traced digest %s differs from "
                         "untraced %s\n",
                         util::hash_hex(traced.digest).c_str(),
                         util::hash_hex(untraced.digest).c_str());
        }
        if (col.dropped() > 0) {
            std::fprintf(stderr, "bench_e2e: warning: %llu spans dropped\n",
                         static_cast<unsigned long long>(col.dropped()));
        }
        Counters counters;
        wl->add_counters(counters);
        const SpanAnalysis a = analyze(col.merged());
        layers = layer_metrics(a, counters, untraced, traced);
        const double traced_wall_s = total(traced.wall_s());
        print_layer_table(opts.workload, a, layers, traced_wall_s);

        const std::string base = opts.trace_dir + "/" + opts.workload;
        col.write_chrome_trace(base + ".trace.json");
        obs::JsonWriter w(2);
        w.begin_object();
        w.key("schema").value("gcdr.e2e.layers/v1");
        w.key("workload").value(opts.workload);
        w.key("seed").value(opts.seed);
        w.key("traced_reps")
            .value(static_cast<std::uint64_t>(traced.wall_s().size()));
        w.key("traced_wall_s").value(traced_wall_s);
        w.key("dropped_spans").value(col.dropped());
        w.key("spans").begin_array();
        for (const auto& [name, st] : a.by_name) {
            w.begin_object();
            w.key("name").value(name);
            w.key("count").value(st.count);
            w.key("busy_s").value(st.busy_s);
            w.key("self_s").value(st.self_s);
            w.key("share_of_wall")
                .value(traced_wall_s > 0 ? st.busy_s / traced_wall_s : 0.0);
            w.end_object();
        }
        w.end_array();
        w.key("metrics").begin_object();
        for (const auto& [name, v] : layers) w.key(name).value(v);
        w.end_object();
        w.end_object();
        write_file(base + ".layers.json", w.str() + "\n");
        col.clear();
    }

    const obs::BuildInfo build = obs::BuildInfo::current();
    obs::JsonWriter w(obs::JsonWriter::kCompact);
    w.begin_object();
    w.key("schema").value("gcdr.e2e.run/v1");
    w.key("workload").value(opts.workload);
    w.key("seed").value(opts.seed);
    w.key("threads").value(static_cast<std::uint64_t>(opts.threads));
    w.key("smoke").value(opts.smoke);
    w.key("git_sha").value(build.git_sha);
    w.key("compiler").value(build.compiler);
    w.key("build_type").value(GCDR_E2E_BUILD_TYPE);
    w.key("reps").value(static_cast<std::uint64_t>(untraced.wall_s().size()));
    w.key("measured_ops").value(untraced.measured_ops);
    w.key("per_rep").begin_object();
    for (const auto& [name, v] : untraced.per_rep) {
        w.key(name).begin_array();
        for (double x : v) w.value(x);
        w.end_array();
    }
    w.end_object();
    w.key("peak_rss_mb").value(peak_rss_mb);
    w.key("attempted").value(attempted);
    w.key("failed").value(failed);
    w.key("digests").begin_object();
    w.key(wl->digest_name()).value(util::hash_hex(untraced.digest));
    w.end_object();
    if (traced_run) {
        w.key("layers").begin_object();
        for (const auto& [name, v] : layers) w.key(name).value(v);
        w.end_object();
    }
    w.end_object();
    std::printf("%s\n", w.str().c_str());
    std::fflush(stdout);
    if (opts.check && failed > 0) return 1;
    return 0;
}

}  // namespace gcdr::e2e
