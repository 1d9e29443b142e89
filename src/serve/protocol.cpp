#include "serve/protocol.hpp"

#include <algorithm>
#include <iterator>

#include "obs/canonical.hpp"
#include "scenario/compile.hpp"
#include "util/hash.hpp"

namespace gcdr::serve {

namespace {

using scenario::Field;
using scenario::Slot;

/// Job type names in JobType order.
constexpr const char* kJobTypes[] = {"ber", "eye", "sweep", "mc", "scenario"};

// The job envelope and eye jobs' ber_target (row format:
// scenario/spec_table.hpp). "config", "axes" and "mc" are scenario
// sections, read through the scenario tables.
constexpr Field<JobSpec> kJobFields[] = {
    {"ber_target", [](JobSpec& j) -> Slot { return &j.ber_target; },
     [](double v) { return v > 0.0 && v < 1.0; }, "want in (0, 1)"},
    {"deadline_s", [](JobSpec& j) -> Slot { return &j.deadline_s; },
     [](double v) { return v >= 0.0; }, "want >= 0"},
    {"priority", [](JobSpec& j) -> Slot { return &j.priority; }},
    {"seed", [](JobSpec& j) -> Slot { return &j.seed; }},
    {"stream", [](JobSpec& j) -> Slot { return &j.stream; }},
};

/// One-line job error: "path: message" per diagnostic.
std::string one_line(const std::vector<scenario::Diagnostic>& diags) {
    std::string out;
    for (const scenario::Diagnostic& d : diags) {
        if (!out.empty()) out += "; ";
        out += d.path + ": " + d.message;
    }
    return out;
}

}  // namespace

const char* job_type_name(JobType t) {
    return kJobTypes[static_cast<std::size_t>(t)];
}

const char* model_version_of(JobType t) {
    return t == JobType::kScenario ? kScenarioModelVersion : kModelVersion;
}

bool parse_job(const obs::JsonValue& v, JobSpec& spec, std::string& error) {
    spec = JobSpec{};
    if (!v.is_object()) {
        error = "job must be a JSON object";
        return false;
    }
    std::vector<scenario::Diagnostic> diags;
    scenario::DiagSink sink{{}, {}, &diags};
    bool saw_type = false;
    bool saw_workload = false;  // config / axes / ber_target / mc
    for (const auto& [key, val] : v.members) {
        saw_workload = saw_workload || key == "config" || key == "axes" ||
                       key == "ber_target" || key == "mc";
        if (key == "type") {
            saw_type = true;
            const std::string t = val.string_or("");
            const auto* it = std::find(std::begin(kJobTypes),
                                       std::end(kJobTypes), t);
            if (it == std::end(kJobTypes)) {
                error = "unknown job type \"" + t + "\"";
                return false;
            }
            spec.type = static_cast<JobType>(it - std::begin(kJobTypes));
        } else if (key == "config") {
            scenario::read_model(sink, val, key, spec.cfg);
        } else if (key == "axes") {
            scenario::read_axes(sink, val, key, spec.axes);
        } else if (key == "mc") {
            scenario::read_object(sink, val, key,
                                  scenario::mc_budget_fields(), spec.mc);
        } else if (key == "scenario") {
            if (!val.is_object()) {
                error = "\"scenario\" must be an object";
                return false;
            }
            if (!scenario::scenario_from_json(val, spec.scenario, diags)) {
                // One-line job error; the full diagnostic list is the
                // scenario path (no source text over the wire, so no
                // line/column — the path locates the fault instead).
                error = "scenario: ";
                for (std::size_t i = 0; i < diags.size(); ++i) {
                    if (i) error += "; ";
                    error += diags[i].render();
                }
                return false;
            }
            spec.has_scenario = true;
        } else if (!scenario::read_field(sink, kJobFields, key, val, key,
                                         spec)) {
            error = "unknown job key \"" + key + "\"";
            return false;
        }
        if (!diags.empty()) {
            error = one_line(diags);
            return false;
        }
    }
    if (!saw_type) {
        error = "missing \"type\"";
        return false;
    }
    if (spec.type == JobType::kSweep && spec.axes.empty()) {
        error = "sweep job needs \"axes\"";
        return false;
    }
    if (spec.type != JobType::kSweep && !spec.axes.empty()) {
        error = "\"axes\" only valid for sweep jobs";
        return false;
    }
    if (spec.type == JobType::kScenario) {
        if (!spec.has_scenario) {
            error = "scenario job needs \"scenario\"";
            return false;
        }
        if (saw_workload) {
            error = "config/axes/ber_target/mc not valid for scenario jobs "
                    "(the scenario document defines the workload)";
            return false;
        }
    } else if (spec.has_scenario) {
        error = "\"scenario\" only valid for scenario jobs";
        return false;
    }
    // Every sweep point must fit the PDF grid bounds before a worker
    // builds a model from it (the config itself was checked on read).
    const std::string why =
        scenario::grid_fault(spec.cfg, spec.axes, "sweep point");
    if (!why.empty()) {
        error = "axes: " + why;
        return false;
    }
    return true;
}

std::string resolved_spec_json(const JobSpec& spec) {
    // Sections render through the scenario tables, numbers through
    // canonical_number, members sorted: already canonical (canonical_json
    // of its parse is the identity). scenario::resolved_json is itself
    // canonical (tested fixed point), so it embeds verbatim.
    scenario::CanonicalObject out;
    if (spec.type == JobType::kSweep) {
        out.add("axes", scenario::axes_json(spec.axes));
    }
    if (spec.type == JobType::kEye) {
        out.add("ber_target", obs::canonical_number(spec.ber_target, {}));
    }
    if (spec.type == JobType::kMc) {
        out.add("mc", scenario::CanonicalObject()
                          .add(scenario::mc_budget_fields(), spec.mc)
                          .str());
    }
    if (spec.type == JobType::kScenario) {
        out.add("scenario", scenario::resolved_json(spec.scenario));
    } else {
        out.add("config", scenario::CanonicalObject()
                              .add(scenario::model_fields(), spec.cfg)
                              .str());
    }
    out.add("type", scenario::json_string(job_type_name(spec.type)));
    return out.str();
}

std::uint64_t spec_config_hash(const JobSpec& spec) {
    return util::fnv1a64(resolved_spec_json(spec));
}

JobSpec sweep_point_spec(const JobSpec& sweep, const exec::SweepPoint& p) {
    JobSpec point = sweep;
    point.type = JobType::kBer;
    point.axes.clear();
    point.cfg = scenario::compile_point_model(sweep.cfg, sweep.axes, p);
    point.seed = p.seed;
    return point;
}

}  // namespace gcdr::serve
