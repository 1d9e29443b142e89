#pragma once
// Run-report emitter: one JSON document per bench/example run capturing
// the metrics snapshot, total wall time and build provenance.
// scripts/run_benches.sh collects them under bench/reports/BENCH_<id>.json;
// CI holds fresh reports' counters identical to the committed baselines
// there. Schema documented in DESIGN.md ("Telemetry" section); bump
// kReportSchema on breaking changes.

#include <cstddef>
#include <cstdint>
#include <string>

#include "obs/metrics.hpp"
#include "obs/trace_span.hpp"

namespace gcdr::obs {

inline constexpr const char* kReportSchema = "gcdr.bench.report/v1";

/// Compiler / standard / build-mode string triple baked in at compile
/// time, so reports from different checkouts are attributable.
struct BuildInfo {
    std::string compiler;    ///< e.g. "gcc 12.2.0"
    long cxx_standard;       ///< __cplusplus value
    std::string build_mode;  ///< "release" (NDEBUG) or "debug"
    std::string sanitizer;   ///< "address", "thread", ... or "none"
    /// Checkout the binary was built from: the GCDR_GIT_SHA environment
    /// variable when set (CI exports it; a stale build can't lie), else
    /// the sha baked in at configure time, else "unknown".
    std::string git_sha;

    [[nodiscard]] static BuildInfo current();
};

struct ReportInfo {
    std::string id;     ///< bench identifier, e.g. "kernel_perf"
    std::string title;  ///< human-readable one-liner
    double wall_seconds = 0.0;  ///< total run wall time
    /// Execution-layer provenance (bench --threads/--seed): lanes the
    /// run's ThreadPool actually had (0 = single-threaded/not recorded)
    /// and the base seed every sweep point derived from. Emitted as a
    /// "run" object so perf diffs can bucket reports by concurrency.
    std::size_t threads = 0;
    std::uint64_t seed = 0;
    /// Scenario provenance (bench --scenario): the config file the run
    /// was compiled from and the fnv1a64 of its canonical resolved JSON.
    /// Both ride in the "run" object when set, so
    /// a report traces back to the exact declarative config — not just
    /// the file path, whose contents may have changed since.
    std::string scenario_file;
    std::string scenario_hash;  ///< hex; empty = not a scenario run
    /// Optional span profile (bench --trace): emitted as a top-level
    /// "spans" object — per-name count/total_seconds/max_seconds — kept
    /// OUT of "metrics" so bench_diff's missing-metric check doesn't fire
    /// when diffing a traced run against an untraced baseline. Wall-clock
    /// data: informational in diffs, never identity-compared.
    const SpanCollector* spans = nullptr;
    /// Optional lane-health snapshot (scenario health_probe tasks): a
    /// complete gcdr.health/v1 document (compact JSON, see
    /// obs/health) spliced verbatim as a top-level "health" key. Kept OUT
    /// of "metrics" for the same bench_diff reason as spans.
    std::string health_json;
};

/// Serialize the full report document (schema above) to a string.
[[nodiscard]] std::string run_report_json(const MetricsRegistry& registry,
                                          const ReportInfo& info);

/// Write the report to `path`. Returns false (and prints to stderr) on
/// I/O failure; benches treat that as a soft error.
bool write_run_report(const std::string& path,
                      const MetricsRegistry& registry,
                      const ReportInfo& info);

}  // namespace gcdr::obs
