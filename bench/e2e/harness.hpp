#pragma once
// End-to-end benchmark harness: the rep loop every workload runs under,
// the timing rules, and the span attribution of the traced run.
//
// Timing rules (see bench/e2e/README.md for the metric table):
//   - one process runs one workload, so peak RSS is per workload;
//   - rep r draws its inputs from exec::derive_seed(seed, r): the same
//     size every rep, never the same values, so no result memo can win;
//   - rep 0 warms up (FFT plan caches, page faults, pool spin-up) and is
//     discarded; reps continue while the next one, as long as the last,
//     still fits the time budget, and until at least kMinMeasuredReps
//     were measured;
//   - each rep is one timed setup (setup_s) followed by one timed run
//     (wall_s); a workload may add its own per-rep samples (the serve
//     workload's request latencies);
//   - every metric is the median over the measured reps, so a burst of
//     machine noise moves one rep, not the result;
//   - result digests fold reps [0, kDigestReps) only, so they do not
//     depend on how many reps the time budget allowed.
//
// The traced run repeats the same rep sequence with obs::SpanCollector
// enabled, after an untraced phase of equal budget. The untraced phase
// supplies the end-to-end numbers and the traced phase the per-layer
// rows; the two must produce identical digests.

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "obs/metrics.hpp"
#include "scenario/scenario_doc.hpp"
#include "util/hash.hpp"

namespace gcdr::e2e {

inline constexpr std::size_t kMinMeasuredReps = 5;
inline constexpr std::size_t kDigestReps = 3;

struct Options {
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 20.0;
    std::size_t threads = 4;
    std::string trace_dir;  ///< empty = untraced run
    std::string work_dir = ".";  ///< scratch files (the serve cache)
    bool check = false;     ///< exit nonzero on any failed operation
    bool smoke = false;     ///< tiny sizes (smoke.sh)
};

/// What one rep reports back to the harness.
struct RepRecord {
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    /// Named per-rep values reported, like wall_s, as their median over
    /// the measured reps (the serve workload's qps and latencies).
    std::map<std::string, double> samples;

    /// Count one failed operation and say why on stderr.
    void fail(const std::string& why);
};

/// Layer counters a workload accumulates while traced, summed over the
/// traced reps (the harness divides by the rep count).
using Counters = std::map<std::string, double>;

class Workload {
public:
    virtual ~Workload() = default;

    /// Name of the digest this workload emits ("digest.ber_grid", ...).
    [[nodiscard]] virtual const char* digest_name() const = 0;
    /// Called before each pass over the rep sequence (untraced, traced):
    /// reset any state a previous pass left, so both passes see the same
    /// work. Untimed.
    virtual void begin_phase() {}
    /// Prepare rep inputs from `rep_seed`. Timed as setup_s.
    virtual void setup(std::uint64_t rep_seed) = 0;
    /// Run the rep prepared by setup(). Timed as wall_s. `digest` is an
    /// FNV-1a stream the workload folds its results into.
    virtual void run(RepRecord& rec, std::uint64_t& digest) = 0;
    /// Untimed cleanup after every run().
    virtual void teardown() {}
    /// True when run() records its own "e2e.root" spans on the threads
    /// that issue the work (the serve clients); otherwise the harness
    /// wraps run() in one on the calling thread.
    [[nodiscard]] virtual bool own_root_spans() const { return false; }
    /// Turn traced-phase instrumentation (pool and engine metrics) on or
    /// off. Counters accumulate only while on.
    void set_traced(bool on) { traced_ = on; }
    virtual void add_counters(Counters& out) const { (void)out; }

protected:
    bool traced_ = false;
};

std::unique_ptr<Workload> make_statmodel_sweep(const Options& opts);
std::unique_ptr<Workload> make_lane_sim(const Options& opts);
std::unique_ptr<Workload> make_rare_event(const Options& opts);
std::unique_ptr<Workload> make_serve_mixed(const Options& opts);

/// Linear-interpolated percentile (p in [0,1]) of unsorted samples;
/// 0 for an empty set.
[[nodiscard]] double percentile(std::vector<double> v, double p);

/// Fold a string / a double's bit pattern into an FNV-1a digest stream.
void fold(std::uint64_t& digest, const std::string& bytes);
void fold(std::uint64_t& digest, double value);

/// Add the exec.* telemetry of a pool attached to `reg` (traced reps
/// only) to the layer counters: items run, summed item seconds, and
/// lanes x summed job seconds (their ratio is the lane utilization).
void add_pool_counters(const obs::MetricsRegistry& reg, std::size_t lanes,
                       Counters& out);

/// Milliseconds since `t0` on the steady clock.
[[nodiscard]] double ms_since(std::chrono::steady_clock::time_point t0);

struct LoadedScenario {
    scenario::ScenarioDoc doc;
    std::uint64_t hash = 0;  ///< scenario_hash(doc); folded into digests
};

/// Load a generated scenario document the way a user's file is loaded:
/// parse + validate under a "scenario.load" span, then scenario_hash
/// (resolved_json + fnv1a64) under "scenario.hash". Throws
/// std::runtime_error with the first diagnostic when the document is
/// rejected (a generator bug).
[[nodiscard]] LoadedScenario load_scenario(const std::string& text,
                                           const char* file);

/// Run the workload named in `opts` and print one gcdr.e2e.run/v1 JSON
/// line on stdout. Returns the process exit code.
int run_benchmark(const Options& opts);

}  // namespace gcdr::e2e
