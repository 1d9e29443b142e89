#pragma once
// Request/job protocol of the serving daemon (gcdr.serve.job/v1).
//
// A job is a JSON object:
//
//   {"type":"ber"|"eye"|"sweep"|"mc"|"scenario",
//    "config":{...a scenario "model" section...},
//    "axes":[...scenario sweep axes...],                     // sweep only
//    "ber_target":1e-12,                                     // eye only
//    "mc":{"max_evals":200000,"target_rel_err":0.1},         // mc only
//    "scenario":{...gcdr.scenario/v1 document...},           // scenario only
//    "seed":1, "priority":0, "deadline_s":0, "stream":false}
//
// A "scenario" job carries a full gcdr.scenario/v1 document (the same
// format bench_scenario loads from scenarios/*.json) in its "scenario"
// key and excludes config/axes/ber_target/mc — the document defines the
// whole workload. Its payload is scenario::result_payload_json of the
// run: deterministic, thread-count invariant, cacheable.
//
// The other kinds speak the scenario grammar (scenario/scenario_doc.hpp):
// "config" is read, checked and emitted through the model table, "mc"
// through the mc table's budget rows, and "axes" by the scenario axis
// reader, generator forms included. The envelope keys and ber_target are
// the rows of kJobFields in protocol.cpp. Unknown keys are a hard parse
// error at every level — a typo that silently fell back to a default
// would poison the cache under a wrong key. The resolved config, and a
// sweep's config at every grid point, must pass
// statmodel::check_model_config, which bounds the PDF grid a worker
// would allocate; a sweep of more than scenario::kMaxGridPoints points
// is refused before any point is visited.
//
// Content addressing: the cache key hashes the RESOLVED spec — every
// field explicitly re-serialized from the parsed struct in sorted key
// order with canonical number formatting (obs/canonical.hpp) — so
// requests that differ only in key order, float spelling, or omitted
// defaults address the same cache entry. seed / priority / deadline_s /
// stream are execution envelope, not workload, and stay out of the hash
// (seed is a separate key component).

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "exec/sweep.hpp"
#include "obs/json_parse.hpp"
#include "scenario/scenario_doc.hpp"
#include "statmodel/gated_osc_model.hpp"

namespace gcdr::serve {

/// Version stamp of the numerical model backing cached results. Part of
/// every cache key: bump it whenever statmodel/mc produce different
/// numbers for the same config, and stale cache segments stop matching
/// instead of serving wrong answers.
inline constexpr const char* kModelVersion = "gcdr-statmodel/1";

/// Scenario jobs execute the full scenario runtime (statmodel + mc +
/// behavioral cdr), so they carry their own version stamp: a change in
/// any of those layers invalidates scenario results without having to
/// bump the narrower statmodel version (and vice versa).
inline constexpr const char* kScenarioModelVersion = "gcdr-scenario/1";

enum class JobType { kBer, kEye, kSweep, kMc, kScenario };

[[nodiscard]] const char* job_type_name(JobType t);

/// The model-version stamp hashed into a job's cache key.
[[nodiscard]] const char* model_version_of(JobType t);

struct JobSpec {
    JobType type = JobType::kBer;
    statmodel::ModelConfig cfg;
    std::vector<exec::SweepAxis> axes;  ///< sweep only
    double ber_target = 1e-12;          ///< eye only
    scenario::McSpec mc;                ///< mc only (budget rows)
    scenario::ScenarioDoc scenario;     ///< scenario only
    bool has_scenario = false;
    // Execution envelope (not part of the config hash).
    std::uint64_t seed = 1;
    int priority = 0;
    double deadline_s = 0.0;  ///< 0 = no deadline
    bool stream = false;      ///< sweep: chunked per-point streaming
};

/// Parse a gcdr.serve.job/v1 object. On failure returns false and fills
/// `error` with a one-line reason (unknown key, bad type, empty axis, a
/// config or sweep point check_model_config rejects...).
[[nodiscard]] bool parse_job(const obs::JsonValue& v, JobSpec& spec,
                             std::string& error);

/// Canonical resolved serialization of the workload-defining part of a
/// spec (type + full config + axes/ber_target/mc) — the string whose
/// fnv1a64 is the cache key's config_hash. Already in canonical form:
/// canonicalizing its parse is the identity (tested).
[[nodiscard]] std::string resolved_spec_json(const JobSpec& spec);

/// fnv1a64(resolved_spec_json(spec)).
[[nodiscard]] std::uint64_t spec_config_hash(const JobSpec& spec);

/// The spec of one sweep grid point: the base spec's config with the
/// point's axis values applied, as a BER job (axes cleared). Sweep
/// points therefore share cache entries with standalone BER queries for
/// the same resolved config.
[[nodiscard]] JobSpec sweep_point_spec(const JobSpec& sweep,
                                       const exec::SweepPoint& p);

}  // namespace gcdr::serve
