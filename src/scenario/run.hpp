#pragma once
// Executing a validated scenario. run_scenario() walks the document's
// tasks; each one records its counters, gauges and histograms under the
// task's prefix with a fixed SweepRunner / parallel_for call pattern, so
// the counters are a function of (document, seed), not of the pool's
// lane count (CI diffs fig9's at --threads 1 and 8).
//
// Besides metrics, every task returns a deterministic TaskResult
// (scalars + series) that depends only on (document, seed, thread-count-
// invariant math). The serving daemon builds its cached payloads from
// TaskResults, never from the registry, because timers are wall-clock;
// bench_scenario prints its figure tables from them.

#include <cstdint>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "exec/thread_pool.hpp"
#include "obs/flight_recorder.hpp"
#include "obs/metrics.hpp"
#include "scenario/scenario_doc.hpp"

namespace gcdr::scenario {

struct ScenarioContext {
    obs::MetricsRegistry* metrics = nullptr;  ///< required
    exec::ThreadPool* pool = nullptr;         ///< required
    std::uint64_t seed = 1;
    bool verbose = false;  ///< print per-lane / per-check lines to stdout
    /// When set, health_probe tasks wire lane-health lock-loss dumps (and
    /// the receiver's own fault hooks) into this recorder.
    obs::FlightRecorder* flight = nullptr;
    /// When set, health_probe tasks call this after every run slice with
    /// a gcdr.health/v1 snapshot — the daemon's /v1/watch live stream.
    /// The final frame equals the task's health_json byte for byte.
    std::function<void(const std::string&)> health_frame_sink;
};

/// Deterministic output of one task: named scalars plus named series,
/// both in sorted key order. Identical for any thread count.
struct TaskResult {
    std::string prefix;
    std::string kind;
    bool ok = true;  ///< differential gates / mask checks passed
    std::vector<std::pair<std::string, double>> scalars;
    std::vector<std::pair<std::string, std::vector<double>>> series;
    /// health_probe only: final gcdr.health/v1 snapshot (compact JSON).
    std::string health_json;
};

struct ScenarioResult {
    std::vector<TaskResult> tasks;  ///< document order
    bool ok = true;                 ///< all tasks ok
};

/// Run every task of the document. The context's registry/pool are
/// typically a bench::RunReport's (bench_scenario) or scratch instances
/// (the daemon's scenario executor).
[[nodiscard]] ScenarioResult run_scenario(const ScenarioDoc& doc,
                                          const ScenarioContext& ctx);

/// Canonical JSON payload of a result: {"name":...,"ok":...,"tasks":{
/// <prefix>:{"kind":...,"ok":...,"scalars":{..},"series":{..}}}}, keys
/// sorted, obs/canonical number rendering — byte-stable across runs and
/// thread counts, the daemon's cacheable scenario payload.
[[nodiscard]] std::string result_payload_json(const ScenarioDoc& doc,
                                              const ScenarioResult& result);

}  // namespace gcdr::scenario
