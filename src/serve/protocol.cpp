#include "serve/protocol.hpp"

#include <cmath>

#include "obs/canonical.hpp"
#include "obs/json.hpp"
#include "util/hash.hpp"

namespace gcdr::serve {

namespace {

/// Uniform numeric read: any JSON number (the parser keeps doubles).
bool read_double(const obs::JsonValue& v, double& out) {
    if (!v.is_number() || !std::isfinite(v.number)) return false;
    out = v.number;
    return true;
}

bool read_int(const obs::JsonValue& v, int& out) {
    double d = 0.0;
    if (!read_double(v, d) || std::nearbyint(d) != d) return false;
    out = static_cast<int>(d);
    return true;
}

void append_field(std::string& out, bool& first, std::string_view key,
                  std::string_view rendered) {
    if (!first) out += ',';
    first = false;
    out += '"';
    out += key;
    out += "\":";
    out += rendered;
}

void append_number(std::string& out, bool& first, std::string_view key,
                   double value) {
    append_field(out, first, key, obs::canonical_number(value, {}));
}

/// The sweep's config with one point's axis values applied. Names were
/// validated at parse time; apply cannot fail here.
statmodel::ModelConfig point_config(const JobSpec& sweep,
                                    const exec::SweepPoint& p) {
    statmodel::ModelConfig cfg = sweep.cfg;
    for (std::size_t a = 0; a < sweep.axes.size(); ++a) {
        (void)scenario::apply_model_field(cfg, sweep.axes[a].name, p.value[a]);
    }
    return cfg;
}

}  // namespace

const char* job_type_name(JobType t) {
    switch (t) {
        case JobType::kBer:
            return "ber";
        case JobType::kEye:
            return "eye";
        case JobType::kSweep:
            return "sweep";
        case JobType::kMc:
            return "mc";
        case JobType::kScenario:
            return "scenario";
    }
    return "?";
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
    bool saw_type = false;
    bool saw_workload = false;  // config / axes / ber_target / mc
    for (const auto& [key, val] : v.members) {
        if (key == "type") {
            saw_type = true;
            const std::string t = val.string_or("");
            if (t == "ber") {
                spec.type = JobType::kBer;
            } else if (t == "eye") {
                spec.type = JobType::kEye;
            } else if (t == "sweep") {
                spec.type = JobType::kSweep;
            } else if (t == "mc") {
                spec.type = JobType::kMc;
            } else if (t == "scenario") {
                spec.type = JobType::kScenario;
            } else {
                error = "unknown job type \"" + t + "\"";
                return false;
            }
        } else if (key == "config") {
            saw_workload = true;
            if (!val.is_object()) {
                error = "\"config\" must be an object";
                return false;
            }
            for (const auto& [ck, cv] : val.members) {
                if (ck == "max_cid" || ck == "cid_ref") {
                    int n = 0;
                    if (!read_int(cv, n) || n < 1 || n > 16) {
                        error = "config." + ck + ": want integer in [1,16]";
                        return false;
                    }
                    (ck == "max_cid" ? spec.cfg.max_cid : spec.cfg.cid_ref) =
                        n;
                } else if (ck == "run_model") {
                    const std::string m = cv.string_or("");
                    if (m == "weighted") {
                        spec.cfg.run_model = statmodel::RunModel::kWeighted;
                    } else if (m == "worst_case") {
                        spec.cfg.run_model = statmodel::RunModel::kWorstCase;
                    } else {
                        error = "config.run_model: want \"weighted\" or "
                                "\"worst_case\"";
                        return false;
                    }
                } else {
                    double d = 0.0;
                    if (!read_double(cv, d)) {
                        error = "config." + ck + ": want finite number";
                        return false;
                    }
                    if (!scenario::apply_model_field(spec.cfg, ck, d)) {
                        error = "config." + ck + ": unknown field";
                        return false;
                    }
                }
            }
            if (spec.cfg.grid_dx <= 0.0 || spec.cfg.grid_dx > 0.1) {
                error = "config.grid_dx: want in (0, 0.1]";
                return false;
            }
        } else if (key == "axes") {
            saw_workload = true;
            if (!val.is_array() || val.items.empty()) {
                error = "\"axes\" must be a non-empty array";
                return false;
            }
            for (const auto& axis : val.items) {
                const obs::JsonValue* name = axis.find("name");
                const obs::JsonValue* values = axis.find("values");
                if (!name || !name->is_string() || !values ||
                    !values->is_array() || values->items.empty()) {
                    error = "axes[]: want {\"name\":...,\"values\":[...]}";
                    return false;
                }
                statmodel::ModelConfig probe;
                if (!scenario::apply_model_field(probe, name->text, 0.0)) {
                    error = "axes[].name: unknown config field \"" +
                            name->text + "\"";
                    return false;
                }
                exec::SweepAxis out;
                out.name = name->text;
                for (const auto& item : values->items) {
                    double d = 0.0;
                    if (!read_double(item, d)) {
                        error = "axes[].values: want finite numbers";
                        return false;
                    }
                    out.values.push_back(d);
                }
                spec.axes.push_back(std::move(out));
            }
        } else if (key == "ber_target") {
            saw_workload = true;
            if (!read_double(val, spec.ber_target) || spec.ber_target <= 0 ||
                spec.ber_target >= 1) {
                error = "ber_target: want number in (0,1)";
                return false;
            }
        } else if (key == "mc") {
            saw_workload = true;
            if (!val.is_object()) {
                error = "\"mc\" must be an object";
                return false;
            }
            for (const auto& [mk, mv] : val.members) {
                if (mk == "max_evals") {
                    spec.mc.max_evals = mv.uint_or(0);
                    if (spec.mc.max_evals == 0) {
                        error = "mc.max_evals: want positive integer";
                        return false;
                    }
                } else if (mk == "target_rel_err") {
                    if (!read_double(mv, spec.mc.target_rel_err) ||
                        spec.mc.target_rel_err <= 0) {
                        error = "mc.target_rel_err: want positive number";
                        return false;
                    }
                } else {
                    error = "mc." + mk + ": unknown field";
                    return false;
                }
            }
        } else if (key == "scenario") {
            if (!val.is_object()) {
                error = "\"scenario\" must be an object";
                return false;
            }
            std::vector<scenario::Diagnostic> diags;
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
        } else if (key == "seed") {
            if (!val.is_number()) {
                error = "seed: want unsigned integer";
                return false;
            }
            spec.seed = val.uint_or(0);
        } else if (key == "priority") {
            if (!read_int(val, spec.priority)) {
                error = "priority: want integer";
                return false;
            }
        } else if (key == "deadline_s") {
            if (!read_double(val, spec.deadline_s) || spec.deadline_s < 0) {
                error = "deadline_s: want non-negative number";
                return false;
            }
        } else if (key == "stream") {
            if (!val.is_bool()) {
                error = "stream: want boolean";
                return false;
            }
            spec.stream = val.boolean;
        } else {
            error = "unknown job key \"" + key + "\"";
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
    if (spec.type != JobType::kScenario) {
        // The config and every sweep point must fit the PDF grid bounds
        // before a worker builds a model from them.
        std::string why = statmodel::check_model_config(spec.cfg);
        if (!why.empty()) {
            error = "config." + why;
            return false;
        }
        exec::SweepGrid grid;
        for (const auto& axis : spec.axes) grid.axis(axis.name, axis.values);
        for (std::size_t i = 0; i < grid.size(); ++i) {
            why = statmodel::check_model_config(
                point_config(spec, grid.point(i, spec.seed)));
            if (!why.empty()) {
                error = "axes: sweep point " + std::to_string(i) + ": " + why;
                return false;
            }
        }
    }
    return true;
}

std::string resolved_spec_json(const JobSpec& spec) {
    // Top-level and config keys emitted in sorted order by construction;
    // numbers go through canonical_number, so the result is already
    // canonical (canonical_json of its parse is the identity).
    std::string out = "{";
    bool first = true;
    if (spec.type == JobType::kSweep) {
        std::string axes = "[";
        for (std::size_t i = 0; i < spec.axes.size(); ++i) {
            if (i) axes += ',';
            axes += "{\"name\":\"" + spec.axes[i].name + "\",\"values\":[";
            for (std::size_t j = 0; j < spec.axes[i].values.size(); ++j) {
                if (j) axes += ',';
                axes += obs::canonical_number(spec.axes[i].values[j], {});
            }
            axes += "]}";
        }
        axes += ']';
        append_field(out, first, "axes", axes);
    }
    if (spec.type == JobType::kEye) {
        append_number(out, first, "ber_target", spec.ber_target);
    }
    if (spec.type != JobType::kScenario) {
        std::string cfg = "{";
        bool cfirst = true;
        const statmodel::ModelConfig& c = spec.cfg;
        append_number(cfg, cfirst, "cid_ref", c.cid_ref);
        append_number(cfg, cfirst, "ckj_uirms", c.spec.ckj_uirms);
        append_number(cfg, cfirst, "dj_uipp", c.spec.dj_uipp);
        append_number(cfg, cfirst, "freq_offset", c.freq_offset);
        append_number(cfg, cfirst, "grid_dx", c.grid_dx);
        append_number(cfg, cfirst, "max_cid", c.max_cid);
        append_number(cfg, cfirst, "pdf_prune_floor", c.pdf_prune_floor);
        append_number(cfg, cfirst, "rj_uirms", c.spec.rj_uirms);
        append_field(cfg, cfirst, "run_model",
                     c.run_model == statmodel::RunModel::kWeighted
                         ? "\"weighted\""
                         : "\"worst_case\"");
        append_number(cfg, cfirst, "sampling_advance_ui",
                      c.sampling_advance_ui);
        append_number(cfg, cfirst, "sj_freq_norm", c.sj_freq_norm);
        append_number(cfg, cfirst, "sj_uipp", c.spec.sj_uipp);
        append_number(cfg, cfirst, "trigger_mismatch_uirms",
                      c.trigger_mismatch_uirms);
        cfg += '}';
        append_field(out, first, "config", cfg);
    }
    if (spec.type == JobType::kMc) {
        std::string mc = "{";
        bool mfirst = true;
        append_number(mc, mfirst, "max_evals",
                      static_cast<double>(spec.mc.max_evals));
        append_number(mc, mfirst, "target_rel_err", spec.mc.target_rel_err);
        mc += '}';
        append_field(out, first, "mc", mc);
    }
    if (spec.type == JobType::kScenario) {
        // scenario::resolved_json is itself canonical (tested fixed
        // point), so embedding it verbatim keeps the whole spec
        // canonical.
        append_field(out, first, "scenario",
                     scenario::resolved_json(spec.scenario));
    }
    append_field(out, first, "type",
                 std::string("\"") + job_type_name(spec.type) + "\"");
    out += '}';
    return out;
}

std::uint64_t spec_config_hash(const JobSpec& spec) {
    return util::fnv1a64(resolved_spec_json(spec));
}

JobSpec sweep_point_spec(const JobSpec& sweep, const exec::SweepPoint& p) {
    JobSpec point = sweep;
    point.type = JobType::kBer;
    point.axes.clear();
    point.cfg = point_config(sweep, p);
    point.seed = p.seed;
    return point;
}

}  // namespace gcdr::serve
