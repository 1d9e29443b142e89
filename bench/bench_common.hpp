#pragma once
// Shared CLI + formatting + telemetry plumbing for the figure/table
// reproduction benches.
//
// Every bench that parses Options supports:
//   --json <path>   write a BENCH report (obs::write_run_report schema,
//                   see DESIGN.md "Telemetry") with the run's metrics
//   --quiet         suppress the human-readable tables; telemetry only
//   --threads N     sweep concurrency: lanes of the bench's ThreadPool,
//                   N <= util::kMaxThreadCount (0 = one per hardware
//                   thread); sweep results are bit-identical for every
//                   N by design
//   --seed S        base seed all sweep points derive from
//   --trace FILE    enable span profiling (obs::SpanCollector::global())
//                   and write a Chrome trace_event JSON to FILE at the
//                   end — open in chrome://tracing or ui.perfetto.dev.
//                   --trace=FILE also accepted. A per-span summary is
//                   folded into the --json report's "spans" object.
//   --log-level L   structured-logger threshold (trace|debug|info|warn|
//                   error|off); default info
//   --log-json FILE route structured log records to an append-mode JSONL
//                   file (gcdr.log/v1) IN ADDITION to stderr text
//   --progress      live rate-limited progress lines for sweeps and MC
//                   budgets (obs::ProgressReporter; default off)
//   --metrics-out FILE
//                   write the final metrics snapshot in Prometheus text
//                   exposition format (obs::to_prometheus)
// Unrecognized arguments are left in argv for the bench's own flags; an
// argument that neither reads ends the run through unknown_flag(). A flag
// only some benches read is theirs alone: bench_scenario parses
// --scenario FILE, and bench_scenario and bench_xval_ber parse
// --flight-recorder. Every integer flag value goes through uint_flag(): a
// missing, non-decimal or out-of-range value exits 2 naming the flag, as
// do an unknown --log-level and a --log-json file that cannot be opened.
// Both --threads and --seed are recorded in the report's "run" object.

#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <memory>
#include <string>
#include <thread>

#include "exec/thread_pool.hpp"
#include "obs/log.hpp"
#include "obs/metrics.hpp"
#include "obs/process_stats.hpp"
#include "obs/progress.hpp"
#include "obs/prometheus.hpp"
#include "obs/report.hpp"
#include "obs/trace_span.hpp"
#include "util/parse_uint.hpp"

namespace gcdr::bench {

/// The value of the flag at argv[i] as a decimal integer in [0, max]
/// (util::parse_uint), advancing i past it. A missing or bad value ends
/// the run with exit 2 and a message naming the flag, before the bench
/// has built anything (no pool, no thread).
inline std::uint64_t uint_flag(
    int argc, char** argv, int& i,
    std::uint64_t max = std::numeric_limits<std::uint64_t>::max()) {
    const char* flag = argv[i];
    if (i + 1 >= argc) {
        std::fprintf(stderr, "%s: missing value\n", flag);
        std::exit(2);
    }
    const char* text = argv[++i];
    if (const auto value = util::parse_uint(text, max)) return *value;
    std::fprintf(stderr, "%s: want an integer in [0, %llu], got '%s'\n",
                 flag, static_cast<unsigned long long>(max), text);
    std::exit(2);
}

struct Options {
    std::string json_path;  ///< empty: no report requested
    bool quiet = false;
    /// ThreadPool lanes for the bench's sweeps. 1 = serial (the default:
    /// identical cost profile to the pre-exec benches); 0 = one lane per
    /// hardware thread.
    std::size_t threads = 1;
    /// Base seed for per-point seed derivation (exec::derive_seed) and
    /// any behavioral-model RNG streams.
    std::uint64_t seed = 1;
    /// Chrome trace output path; empty = span profiling disabled.
    std::string trace_path;
    /// Prometheus text-exposition output path; empty = not requested.
    std::string metrics_out_path;
    /// JSONL log-sink path; empty = stderr text only.
    std::string log_json_path;
    /// Live progress reporting (obs::ProgressReporter); default off.
    bool progress = false;

    /// Strip the flags this layer owns out of (argc, argv). Also applies
    /// the global observability toggles (log level/sink, progress) so
    /// benches need no extra wiring.
    [[nodiscard]] static Options parse(int& argc, char** argv) {
        Options opts;
        int out = 1;
        for (int i = 1; i < argc; ++i) {
            if (std::strcmp(argv[i], "--quiet") == 0) {
                opts.quiet = true;
            } else if (std::strcmp(argv[i], "--json") == 0 &&
                       i + 1 < argc) {
                opts.json_path = argv[++i];
            } else if (std::strcmp(argv[i], "--threads") == 0) {
                opts.threads = static_cast<std::size_t>(
                    uint_flag(argc, argv, i, util::kMaxThreadCount));
            } else if (std::strcmp(argv[i], "--seed") == 0) {
                opts.seed = uint_flag(argc, argv, i);
            } else if (std::strcmp(argv[i], "--trace") == 0 &&
                       i + 1 < argc) {
                opts.trace_path = argv[++i];
            } else if (std::strncmp(argv[i], "--trace=", 8) == 0) {
                opts.trace_path = argv[i] + 8;
            } else if (std::strcmp(argv[i], "--metrics-out") == 0 &&
                       i + 1 < argc) {
                opts.metrics_out_path = argv[++i];
            } else if (std::strcmp(argv[i], "--log-json") == 0 &&
                       i + 1 < argc) {
                opts.log_json_path = argv[++i];
            } else if (std::strcmp(argv[i], "--log-level") == 0 &&
                       i + 1 < argc) {
                obs::LogLevel level{};
                if (!obs::parse_log_level(argv[++i], level)) {
                    std::fprintf(stderr,
                                 "--log-level: want trace|debug|info|warn|"
                                 "error|off, got '%s'\n",
                                 argv[i]);
                    std::exit(2);
                }
                obs::Logger::global().set_level(level);
            } else if (std::strcmp(argv[i], "--progress") == 0) {
                opts.progress = true;
            } else {
                argv[out++] = argv[i];
            }
        }
        argc = out;
        if (!opts.log_json_path.empty()) {
            auto sink =
                std::make_shared<obs::JsonlFileSink>(opts.log_json_path);
            if (!sink->ok()) {
                std::fprintf(stderr, "--log-json: cannot open '%s'\n",
                             opts.log_json_path.c_str());
                std::exit(2);
            }
            // Keep stderr text alongside the file: add_sink() drops the
            // implicit default, so re-add it explicitly first.
            obs::Logger::global().add_sink(
                std::make_shared<obs::StderrSink>());
            obs::Logger::global().add_sink(std::move(sink));
        }
        if (opts.progress) obs::ProgressReporter::set_enabled(true);
        return opts;
    }

    /// Lanes the pool will actually get (resolves threads == 0).
    [[nodiscard]] std::size_t resolved_threads() const {
        if (threads != 0) return threads;
        const unsigned hw = std::thread::hardware_concurrency();
        return hw ? hw : 1;
    }
};

/// One per bench main(): owns the run's MetricsRegistry, times the whole
/// run, and writes the JSON report at the end when --json was given.
class RunReport {
public:
    RunReport(const Options& opts, std::string id, std::string title)
        : opts_(opts),
          id_(std::move(id)),
          title_(std::move(title)),
          t0_(std::chrono::steady_clock::now()) {
        if (!opts_.trace_path.empty()) {
            obs::SpanCollector::global().enable();
            run_span_ = std::make_unique<obs::TraceSpan>("bench.run");
        }
    }

    [[nodiscard]] obs::MetricsRegistry& metrics() { return registry_; }
    [[nodiscard]] bool quiet() const { return opts_.quiet; }
    [[nodiscard]] std::uint64_t seed() const { return opts_.seed; }
    [[nodiscard]] bool tracing() const { return !opts_.trace_path.empty(); }

    /// Record a gcdr.health/v1 snapshot (a scenario's health_probe task
    /// produces it); write() embeds it as the report's "health" block.
    void set_health_json(std::string json) {
        health_json_ = std::move(json);
    }

    /// The bench's sweep pool, created on first use with --threads lanes.
    /// Always instrumented: the exec.* gauges cost two clock reads per
    /// sweep item, noise next to the >= 10 us items the pool contract
    /// assumes.
    [[nodiscard]] exec::ThreadPool& pool() {
        if (!pool_) {
            pool_ = std::make_unique<exec::ThreadPool>(
                opts_.resolved_threads());
            pool_->attach_metrics(&registry_);
        }
        return *pool_;
    }

    /// Record scenario provenance (--scenario runs): the config file and
    /// the hex fnv1a64 of its canonical resolved JSON. Lands in the
    /// report's "run" object, so a scenario run is traceable to the
    /// exact document content, not just a path.
    void set_scenario(std::string file, std::string hash_hex) {
        scenario_file_ = std::move(file);
        scenario_hash_ = std::move(hash_hex);
    }

    /// Write the report (and the Chrome trace, when --trace was given).
    /// Returns false only on I/O failure.
    bool write() {
        bool ok = true;
        if (!opts_.trace_path.empty()) {
            // Close the whole-run span before exporting so it appears in
            // both the Chrome trace and the report summary.
            run_span_.reset();
            auto& spans = obs::SpanCollector::global();
            ok = spans.write_chrome_trace(opts_.trace_path) && ok;
            if (ok && !opts_.quiet) {
                std::printf("\n[trace written to %s — open in "
                            "chrome://tracing or ui.perfetto.dev]\n",
                            opts_.trace_path.c_str());
            }
        }
        if (opts_.json_path.empty() && opts_.metrics_out_path.empty()) {
            return ok;
        }
        // Peak/current RSS gauges ride along in every exported snapshot.
        obs::record_process_stats(registry_);
        obs::ReportInfo info;
        info.id = id_;
        info.title = title_;
        info.wall_seconds =
            std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                          t0_)
                .count();
        info.threads = pool_ ? pool_->size() : opts_.resolved_threads();
        info.seed = opts_.seed;
        info.scenario_file = scenario_file_;
        info.scenario_hash = scenario_hash_;
        if (!opts_.trace_path.empty()) {
            info.spans = &obs::SpanCollector::global();
        }
        info.health_json = health_json_;
        if (!opts_.json_path.empty()) {
            ok = obs::write_run_report(opts_.json_path, registry_, info) &&
                 ok;
            if (ok && !opts_.quiet) {
                std::printf("\n[report written to %s]\n",
                            opts_.json_path.c_str());
            }
        }
        if (!opts_.metrics_out_path.empty()) {
            ok = obs::write_prometheus(opts_.metrics_out_path, registry_) &&
                 ok;
            if (ok && !opts_.quiet) {
                std::printf("[metrics written to %s]\n",
                            opts_.metrics_out_path.c_str());
            }
        }
        return ok;
    }

private:
    Options opts_;
    std::string id_;
    std::string title_;
    std::string scenario_file_;
    std::string scenario_hash_;
    obs::MetricsRegistry registry_;
    std::unique_ptr<exec::ThreadPool> pool_;
    std::string health_json_;
    std::unique_ptr<obs::TraceSpan> run_span_;
    std::chrono::steady_clock::time_point t0_;
};

/// Exit status for an argument that neither Options::parse nor the bench
/// reads: a typo or a retired flag must not run a different workload
/// than the one asked for.
inline int unknown_flag(const char* arg) {
    std::fprintf(stderr, "unknown flag: %s\n", arg);
    return 2;
}

inline void header(const std::string& id, const std::string& title) {
    std::printf("==================================================================\n");
    std::printf("%s — %s\n", id.c_str(), title.c_str());
    std::printf("==================================================================\n");
}

inline void section(const std::string& title) {
    std::printf("\n--- %s ---\n", title.c_str());
}

/// log10(BER), floored for printing; "<-30" marks numerically-zero cells.
inline std::string log_ber(double ber) {
    if (ber <= 1e-30) return "  <-30";
    char buf[32];
    std::snprintf(buf, sizeof buf, "%6.1f", std::log10(ber));
    return buf;
}

}  // namespace gcdr::bench
