#include "scenario/scenario_doc.hpp"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <fstream>
#include <sstream>

#include "obs/canonical.hpp"
#include "obs/json.hpp"
#include "scenario/compile.hpp"
#include "util/hash.hpp"
#include "util/mathx.hpp"

namespace gcdr::scenario {

std::string Diagnostic::render() const {
    std::string out;
    if (!file.empty()) {
        out += file;
        if (line > 0) {
            out += ':' + std::to_string(line) + ':' + std::to_string(column);
        }
        out += ": ";
    }
    if (!path.empty()) {
        out += "at " + path + ": ";
    }
    out += message;
    return out;
}

const char* task_kind_name(TaskSpec::Kind k) {
    switch (k) {
        case TaskSpec::Kind::kBerSurface:
            return "ber_surface";
        case TaskSpec::Kind::kBaselineJtol:
            return "baseline_jtol";
        case TaskSpec::Kind::kNetlistRun:
            return "netlist_run";
        case TaskSpec::Kind::kDifferential:
            return "differential";
        case TaskSpec::Kind::kHealthProbe:
            return "health_probe";
    }
    return "?";
}

bool apply_model_field(statmodel::ModelConfig& cfg, std::string_view name,
                       double value) {
    if (name == "sj_freq_norm") {
        cfg.sj_freq_norm = value;
    } else if (name == "freq_offset") {
        cfg.freq_offset = value;
    } else if (name == "sampling_advance_ui") {
        cfg.sampling_advance_ui = value;
    } else if (name == "trigger_mismatch_uirms") {
        cfg.trigger_mismatch_uirms = value;
    } else if (name == "grid_dx") {
        cfg.grid_dx = value;
    } else if (name == "pdf_prune_floor") {
        cfg.pdf_prune_floor = value;
    } else if (name == "dj_uipp") {
        cfg.spec.dj_uipp = value;
    } else if (name == "rj_uirms") {
        cfg.spec.rj_uirms = value;
    } else if (name == "sj_uipp") {
        cfg.spec.sj_uipp = value;
    } else if (name == "ckj_uirms") {
        cfg.spec.ckj_uirms = value;
    } else {
        return false;
    }
    return true;
}

namespace {

/// Validation context: every fail() appends one Diagnostic (with
/// line/column resolved from the value's byte offset when the source
/// text is at hand) and keeps going, so a bad document reports as many
/// problems as one pass can see.
struct Ctx {
    std::string_view source;
    std::string_view file;
    std::vector<Diagnostic>* diags;

    void fail(const obs::JsonValue* v, std::string path, std::string msg) {
        Diagnostic d;
        d.file = std::string(file);
        d.path = std::move(path);
        d.message = std::move(msg);
        if (v && !source.empty()) {
            const obs::LineColumn lc = obs::line_column(source, v->offset);
            d.line = lc.line;
            d.column = lc.column;
        }
        diags->push_back(std::move(d));
    }
};

bool is_identifier(std::string_view s) {
    if (s.empty() || s.size() > 64) return false;
    for (char c : s) {
        const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                        (c >= '0' && c <= '9') || c == '_';
        if (!ok) return false;
    }
    return true;
}

bool read_double(Ctx& ctx, const obs::JsonValue& v, const std::string& path,
                 double& out) {
    if (!v.is_number() || !std::isfinite(v.number)) {
        ctx.fail(&v, path, "want a finite number");
        return false;
    }
    out = v.number;
    return true;
}

bool read_uint(Ctx& ctx, const obs::JsonValue& v, const std::string& path,
               std::uint64_t& out) {
    if (!v.is_number()) {
        ctx.fail(&v, path, "want a non-negative integer");
        return false;
    }
    const std::uint64_t sentinel = ~std::uint64_t{0};
    const std::uint64_t got = v.uint_or(sentinel);
    if (got == sentinel) {
        ctx.fail(&v, path, "want a non-negative integer");
        return false;
    }
    out = got;
    return true;
}

bool read_bool(Ctx& ctx, const obs::JsonValue& v, const std::string& path,
               bool& out) {
    if (!v.is_bool()) {
        ctx.fail(&v, path, "want true or false");
        return false;
    }
    out = v.boolean;
    return true;
}

bool read_string(Ctx& ctx, const obs::JsonValue& v, const std::string& path,
                 std::string& out) {
    if (!v.is_string()) {
        ctx.fail(&v, path, "want a string");
        return false;
    }
    out = v.text;
    return true;
}

/// Bound on expanded sweep values — a generator that asks for more is a
/// config bug, not a workload.
constexpr std::size_t kMaxSweepValues = 10'000;

/// Parse a from/to range object shared by linspace/logspace/steps.
bool read_range(Ctx& ctx, const obs::JsonValue& v, const std::string& path,
                double& from, double& to, double* step,
                std::uint64_t* points) {
    if (!v.is_object()) {
        ctx.fail(&v, path, "want an object");
        return false;
    }
    bool ok = true, saw_from = false, saw_to = false;
    bool saw_third = false;
    for (const auto& [key, val] : v.members) {
        const std::string kp = path + "." + key;
        if (key == "from") {
            saw_from = read_double(ctx, val, kp, from);
            ok = ok && saw_from;
        } else if (key == "to") {
            saw_to = read_double(ctx, val, kp, to);
            ok = ok && saw_to;
        } else if (step && key == "step") {
            saw_third = read_double(ctx, val, kp, *step);
            ok = ok && saw_third;
        } else if (points && key == "points") {
            saw_third = read_uint(ctx, val, kp, *points);
            ok = ok && saw_third;
        } else {
            ctx.fail(&val, kp, "unknown key \"" + key + "\"");
            ok = false;
        }
    }
    if (ok && (!saw_from || !saw_to || !saw_third)) {
        ctx.fail(&v, path,
                 std::string("want {\"from\", \"to\", ") +
                     (step ? "\"step\"}" : "\"points\"}"));
        ok = false;
    }
    return ok;
}

/// Expand one values spec — a literal array or a generator object — to an
/// explicit list. Generators call util::linspace/logspace so the doubles
/// are bit-identical to the C++ benches that build the same grids.
bool read_values(Ctx& ctx, const obs::JsonValue& v, const std::string& path,
                 std::vector<double>& out) {
    out.clear();
    if (v.is_array()) {
        if (v.items.empty()) {
            ctx.fail(&v, path, "want at least one value");
            return false;
        }
        for (std::size_t i = 0; i < v.items.size(); ++i) {
            double d = 0.0;
            if (!read_double(ctx, v.items[i],
                             path + "[" + std::to_string(i) + "]", d)) {
                return false;
            }
            out.push_back(d);
        }
        return true;
    }
    if (!v.is_object() || v.members.size() != 1) {
        ctx.fail(&v, path,
                 "want an array of numbers or exactly one of "
                 "{\"values\"|\"linspace\"|\"logspace\"|\"steps\"}");
        return false;
    }
    const auto& [key, val] = v.members.front();
    const std::string kp = path + "." + key;
    if (key == "values") {
        if (!val.is_array()) {
            ctx.fail(&val, kp, "want an array of numbers");
            return false;
        }
        return read_values(ctx, val, kp, out);
    }
    if (key == "linspace" || key == "logspace") {
        double from = 0.0, to = 0.0;
        std::uint64_t points = 0;
        if (!read_range(ctx, val, kp, from, to, nullptr, &points)) {
            return false;
        }
        if (points < 2 || points > kMaxSweepValues) {
            ctx.fail(&val, kp + ".points",
                     "want an integer in [2, " +
                         std::to_string(kMaxSweepValues) + "]");
            return false;
        }
        if (key == "logspace" && (from <= 0.0 || to <= 0.0)) {
            ctx.fail(&val, kp, "logspace endpoints must be positive");
            return false;
        }
        out = key == "linspace"
                  ? linspace(from, to, static_cast<std::size_t>(points))
                  : logspace(from, to, static_cast<std::size_t>(points));
        return true;
    }
    if (key == "steps") {
        double from = 0.0, to = 0.0, step = 0.0;
        if (!read_range(ctx, val, kp, from, to, &step, nullptr)) {
            return false;
        }
        if (step <= 0.0) {
            ctx.fail(&val, kp + ".step",
                     "sweep step must be positive, got " +
                         std::to_string(step));
            return false;
        }
        if (to < from) {
            ctx.fail(&val, kp, "want from <= to");
            return false;
        }
        // Half-step tolerance on the upper end so from=0.1 to=0.5
        // step=0.1 yields five points despite binary rounding.
        const double n_exact = (to - from) / step;
        const std::size_t n =
            static_cast<std::size_t>(std::floor(n_exact + 0.5 * 1e-9)) + 1;
        if (n > kMaxSweepValues) {
            ctx.fail(&val, kp,
                     "steps generator yields " + std::to_string(n) +
                         " points, cap is " +
                         std::to_string(kMaxSweepValues));
            return false;
        }
        for (std::size_t i = 0; i < n; ++i) {
            out.push_back(from + static_cast<double>(i) * step);
        }
        return true;
    }
    ctx.fail(&val, kp, "unknown key \"" + key + "\"");
    return false;
}

void parse_model(Ctx& ctx, const obs::JsonValue& v,
                 statmodel::ModelConfig& cfg) {
    if (!v.is_object()) {
        ctx.fail(&v, "model", "want an object");
        return;
    }
    for (const auto& [key, val] : v.members) {
        const std::string kp = "model." + key;
        if (key == "max_cid" || key == "cid_ref") {
            std::uint64_t n = 0;
            if (read_uint(ctx, val, kp, n)) {
                if (n < 1 || n > 16) {
                    ctx.fail(&val, kp, "want an integer in [1, 16]");
                } else {
                    (key == "max_cid" ? cfg.max_cid : cfg.cid_ref) =
                        static_cast<int>(n);
                }
            }
        } else if (key == "run_model") {
            std::string m;
            if (read_string(ctx, val, kp, m)) {
                if (m == "weighted") {
                    cfg.run_model = statmodel::RunModel::kWeighted;
                } else if (m == "worst_case") {
                    cfg.run_model = statmodel::RunModel::kWorstCase;
                } else {
                    ctx.fail(&val, kp,
                             "want \"weighted\" or \"worst_case\"");
                }
            }
        } else {
            double d = 0.0;
            if (!read_double(ctx, val, kp, d)) continue;
            statmodel::ModelConfig probe;
            if (!apply_model_field(probe, key, d)) {
                ctx.fail(&val, kp, "unknown key \"" + key + "\"");
                continue;
            }
            (void)apply_model_field(cfg, key, d);
        }
    }
    if (cfg.grid_dx <= 0.0 || cfg.grid_dx > 0.1) {
        ctx.fail(&v, "model.grid_dx", "want in (0, 0.1]");
    } else if (const std::string why = statmodel::check_model_config(cfg);
               !why.empty()) {
        ctx.fail(&v, "model", why);
    }
}

void parse_mc(Ctx& ctx, const obs::JsonValue& v, McSpec& mc) {
    if (!v.is_object()) {
        ctx.fail(&v, "mc", "want an object");
        return;
    }
    for (const auto& [key, val] : v.members) {
        const std::string kp = "mc." + key;
        if (key == "max_evals") {
            if (read_uint(ctx, val, kp, mc.max_evals) &&
                mc.max_evals == 0) {
                ctx.fail(&val, kp,
                         "mc.max_evals must be >= 1 (a zero budget "
                         "computes nothing)");
            }
        } else if (key == "target_rel_err") {
            if (read_double(ctx, val, kp, mc.target_rel_err) &&
                mc.target_rel_err <= 0.0) {
                ctx.fail(&val, kp, "want a positive number");
            }
        } else if (key == "confidence") {
            if (read_double(ctx, val, kp, mc.confidence) &&
                (mc.confidence <= 0.0 || mc.confidence >= 1.0)) {
                ctx.fail(&val, kp, "want in (0, 1)");
            }
        } else {
            ctx.fail(&val, kp, "unknown key \"" + key + "\"");
        }
    }
}

// --- netlist -------------------------------------------------------------

struct PortRef {
    std::string inst, port;
};

bool split_endpoint(const std::string& text, PortRef& out) {
    const auto dot = text.find('.');
    if (dot == std::string::npos || dot == 0 || dot + 1 >= text.size()) {
        return false;
    }
    out.inst = text.substr(0, dot);
    out.port = text.substr(dot + 1);
    return out.port.find('.') == std::string::npos;
}

enum class InstKind { kSource, kChannel, kMonitor };

void parse_netlist(Ctx& ctx, const obs::JsonValue& v, NetlistSpec& net) {
    if (!v.is_object()) {
        ctx.fail(&v, "netlist", "want an object");
        return;
    }
    const obs::JsonValue* instances = nullptr;
    const obs::JsonValue* wires = nullptr;
    for (const auto& [key, val] : v.members) {
        if (key == "instances") {
            instances = &val;
        } else if (key == "wires") {
            wires = &val;
        } else {
            ctx.fail(&val, "netlist." + key, "unknown key \"" + key + "\"");
        }
    }
    if (!instances || !instances->is_object()) {
        ctx.fail(instances ? instances : &v, "netlist.instances",
                 "want an object of named instances");
        return;
    }

    // Instances. Names must be identifiers and unique (json_parse keeps
    // duplicate keys, so duplicates are detectable here).
    std::vector<std::pair<std::string, InstKind>> kinds;
    for (const auto& [name, inst] : instances->members) {
        const std::string ip = "netlist.instances." + name;
        if (!is_identifier(name)) {
            ctx.fail(&inst, ip,
                     "instance name must be [A-Za-z0-9_]{1,64}");
            continue;
        }
        bool dup = false;
        for (const auto& [seen, k] : kinds) {
            (void)k;
            if (seen == name) dup = true;
        }
        if (dup) {
            ctx.fail(&inst, ip, "duplicate instance \"" + name + "\"");
            continue;
        }
        if (!inst.is_object()) {
            ctx.fail(&inst, ip, "want an object");
            continue;
        }
        const obs::JsonValue* kindv = inst.find("kind");
        const std::string kind = kindv ? kindv->string_or("") : "";
        if (kind == "source") {
            SourceSpec s;
            s.name = name;
            bool saw_bits = false, saw_prbs = false, saw_repeat = false;
            for (const auto& [key, val] : inst.members) {
                const std::string kp = ip + "." + key;
                if (key == "kind") continue;
                if (key == "bits") {
                    saw_bits = true;
                    if (read_uint(ctx, val, kp, s.bits) &&
                        (s.bits < 1 || s.bits > 10'000'000)) {
                        ctx.fail(&val, kp,
                                 "want an integer in [1, 10000000]");
                    }
                } else if (key == "prbs") {
                    saw_prbs = true;
                    std::uint64_t order = 0;
                    if (read_uint(ctx, val, kp, order)) {
                        if (order != 7 && order != 9 && order != 15 &&
                            order != 23 && order != 31) {
                            ctx.fail(&val, kp,
                                     "want a PRBS order: 7, 9, 15, 23 or "
                                     "31");
                        } else {
                            s.prbs = static_cast<int>(order);
                        }
                    }
                } else if (key == "start_ns") {
                    if (read_double(ctx, val, kp, s.start_ns) &&
                        s.start_ns < 0.0) {
                        ctx.fail(&val, kp, "want >= 0");
                    }
                } else if (key == "pattern") {
                    if (!val.is_array() || val.items.empty() ||
                        val.items.size() > 4096) {
                        ctx.fail(&val, kp,
                                 "want an array of 0/1 bits, size "
                                 "[1, 4096]");
                        continue;
                    }
                    s.pattern.clear();
                    for (std::size_t b = 0; b < val.items.size(); ++b) {
                        const obs::JsonValue& bit = val.items[b];
                        const std::uint64_t got = bit.uint_or(2);
                        if (!bit.is_number() || got > 1) {
                            ctx.fail(&bit,
                                     kp + "[" + std::to_string(b) + "]",
                                     "pattern bits must be 0 or 1");
                            break;
                        }
                        s.pattern.push_back(static_cast<int>(got));
                    }
                } else if (key == "repeat") {
                    saw_repeat = true;
                    if (read_uint(ctx, val, kp, s.repeat) &&
                        (s.repeat < 1 || s.repeat > 100'000)) {
                        ctx.fail(&val, kp,
                                 "want an integer in [1, 100000]");
                    }
                } else if (key == "rate_offset") {
                    if (read_double(ctx, val, kp, s.rate_offset) &&
                        std::fabs(s.rate_offset) > 0.5) {
                        ctx.fail(&val, kp, "want in [-0.5, 0.5]");
                    }
                } else {
                    ctx.fail(&val, kp, "unknown key \"" + key + "\"");
                }
            }
            if (!s.pattern.empty() && (saw_bits || saw_prbs)) {
                ctx.fail(&inst, ip,
                         "\"pattern\" replaces the PRBS stream; it "
                         "cannot be combined with \"bits\" or \"prbs\"");
            }
            if (saw_repeat && s.pattern.empty()) {
                ctx.fail(&inst, ip,
                         "\"repeat\" only applies to a \"pattern\" "
                         "source");
            }
            net.sources.push_back(std::move(s));
            kinds.emplace_back(name, InstKind::kSource);
        } else if (kind == "channel") {
            ChannelSpec c;
            c.name = name;
            for (const auto& [key, val] : inst.members) {
                const std::string kp = ip + "." + key;
                if (key == "kind") continue;
                if (key == "f_osc_hz") {
                    if (read_double(ctx, val, kp, c.f_osc_hz) &&
                        c.f_osc_hz <= 0.0) {
                        ctx.fail(&val, kp, "want > 0");
                    }
                } else if (key == "ckj_uirms") {
                    if (read_double(ctx, val, kp, c.ckj_uirms) &&
                        c.ckj_uirms < 0.0) {
                        ctx.fail(&val, kp, "want >= 0");
                    }
                } else if (key == "improved_sampling") {
                    (void)read_bool(ctx, val, kp, c.improved_sampling);
                } else {
                    ctx.fail(&val, kp, "unknown key \"" + key + "\"");
                }
            }
            net.channels.push_back(std::move(c));
            kinds.emplace_back(name, InstKind::kChannel);
        } else if (kind == "monitor") {
            MonitorSpec m;
            m.name = name;
            for (const auto& [key, val] : inst.members) {
                if (key == "kind") continue;
                ctx.fail(&val, ip + "." + key,
                         "unknown key \"" + key + "\"");
            }
            net.monitors.push_back(std::move(m));
            kinds.emplace_back(name, InstKind::kMonitor);
        } else {
            ctx.fail(kindv ? kindv : &inst, ip + ".kind",
                     "want \"source\", \"channel\" or \"monitor\"");
        }
    }
    if (net.channels.empty()) {
        ctx.fail(instances, "netlist.instances",
                 "netlist needs at least one channel instance");
    }

    // The multichannel receiver instantiates one shared channel template,
    // so per-instance channel parameters must agree.
    for (std::size_t i = 1; i < net.channels.size(); ++i) {
        const ChannelSpec& a = net.channels[0];
        const ChannelSpec& b = net.channels[i];
        if (a.f_osc_hz != b.f_osc_hz || a.ckj_uirms != b.ckj_uirms ||
            a.improved_sampling != b.improved_sampling) {
            ctx.fail(instances, "netlist.instances." + b.name,
                     "channel parameters must match across instances "
                     "(the multichannel receiver shares one channel "
                     "template); \"" +
                         b.name + "\" differs from \"" + a.name + "\"");
        }
    }

    auto kind_of = [&](const std::string& name,
                       InstKind& out) {
        for (const auto& [seen, k] : kinds) {
            if (seen == name) {
                out = k;
                return true;
            }
        }
        return false;
    };

    // Wires: "inst.port" endpoints, output -> input only.
    if (wires) {
        if (!wires->is_array()) {
            ctx.fail(wires, "netlist.wires", "want an array");
            return;
        }
        for (std::size_t i = 0; i < wires->items.size(); ++i) {
            const obs::JsonValue& wv = wires->items[i];
            const std::string wp =
                "netlist.wires[" + std::to_string(i) + "]";
            if (!wv.is_object()) {
                ctx.fail(&wv, wp, "want an object");
                continue;
            }
            WireSpec w;
            bool ok = true;
            bool saw_from = false, saw_to = false;
            for (const auto& [key, val] : wv.members) {
                const std::string kp = wp + "." + key;
                if (key == "from" || key == "to") {
                    std::string text;
                    if (!read_string(ctx, val, kp, text)) {
                        ok = false;
                        continue;
                    }
                    PortRef ref;
                    if (!split_endpoint(text, ref)) {
                        ctx.fail(&val, kp,
                                 "want \"instance.port\", got \"" + text +
                                     "\"");
                        ok = false;
                        continue;
                    }
                    InstKind k{};
                    if (!kind_of(ref.inst, k)) {
                        ctx.fail(&val, kp,
                                 "unknown instance \"" + ref.inst + "\"");
                        ok = false;
                        continue;
                    }
                    // Port tables per kind; from must name an output, to
                    // an input.
                    const bool is_output =
                        (k == InstKind::kSource && ref.port == "out") ||
                        (k == InstKind::kChannel && ref.port == "dout");
                    const bool is_input =
                        (k == InstKind::kChannel && ref.port == "din") ||
                        (k == InstKind::kMonitor && ref.port == "in");
                    if (!is_output && !is_input) {
                        ctx.fail(&val, kp,
                                 "instance \"" + ref.inst +
                                     "\" has no port \"" + ref.port +
                                     "\"");
                        ok = false;
                        continue;
                    }
                    if (key == "from") {
                        if (!is_output) {
                            ctx.fail(&val, kp,
                                     "\"" + ref.port +
                                         "\" is an input port; a wire's "
                                         "\"from\" must be an output");
                            ok = false;
                            continue;
                        }
                        w.from_inst = ref.inst;
                        w.from_port = ref.port;
                        saw_from = true;
                    } else {
                        if (!is_input) {
                            ctx.fail(&val, kp,
                                     "\"" + ref.port +
                                         "\" is an output port; a wire's "
                                         "\"to\" must be an input");
                            ok = false;
                            continue;
                        }
                        w.to_inst = ref.inst;
                        w.to_port = ref.port;
                        saw_to = true;
                    }
                } else if (key == "skew_ps") {
                    ok = read_double(ctx, val, kp, w.skew_ps) && ok;
                } else {
                    ctx.fail(&val, kp, "unknown key \"" + key + "\"");
                    ok = false;
                }
            }
            if (ok && (!saw_from || !saw_to)) {
                ctx.fail(&wv, wp, "want both \"from\" and \"to\"");
                ok = false;
            }
            if (ok) {
                // Wire type check: source.out feeds channel.din,
                // channel.dout feeds monitor.in.
                InstKind fk{}, tk{};
                (void)kind_of(w.from_inst, fk);
                (void)kind_of(w.to_inst, tk);
                if (fk == InstKind::kSource && tk != InstKind::kChannel) {
                    ctx.fail(&wv, wp,
                             "a source output must drive a channel din");
                    ok = false;
                } else if (fk == InstKind::kChannel &&
                           tk != InstKind::kMonitor) {
                    ctx.fail(&wv, wp,
                             "a channel dout must drive a monitor in");
                    ok = false;
                }
            }
            if (ok) net.wires.push_back(std::move(w));
        }
    }

    // Connectivity: every channel din and monitor in driven exactly once,
    // every source output driving at least one channel.
    for (const ChannelSpec& c : net.channels) {
        int drivers = 0;
        for (const WireSpec& w : net.wires) {
            if (w.to_inst == c.name && w.to_port == "din") ++drivers;
        }
        if (drivers == 0) {
            ctx.fail(wires ? wires : instances, "netlist.wires",
                     "channel \"" + c.name +
                         "\" input din is not driven by any wire");
        } else if (drivers > 1) {
            ctx.fail(wires, "netlist.wires",
                     "channel \"" + c.name +
                         "\" input din is driven more than once");
        }
    }
    for (const MonitorSpec& m : net.monitors) {
        int drivers = 0;
        for (const WireSpec& w : net.wires) {
            if (w.to_inst == m.name && w.to_port == "in") ++drivers;
        }
        if (drivers == 0) {
            ctx.fail(wires ? wires : instances, "netlist.wires",
                     "monitor \"" + m.name +
                         "\" input in is not driven by any wire");
        } else if (drivers > 1) {
            ctx.fail(wires, "netlist.wires",
                     "monitor \"" + m.name +
                         "\" input in is driven more than once");
        }
    }
    for (const SourceSpec& s : net.sources) {
        bool drives = false;
        for (const WireSpec& w : net.wires) {
            if (w.from_inst == s.name) drives = true;
        }
        if (!drives) {
            ctx.fail(wires ? wires : instances, "netlist.wires",
                     "source \"" + s.name +
                         "\" output out drives nothing");
        }
    }

    // Canonical orders: instances by name, wires by (from, to). Channel i
    // of the compiled receiver is channels[i] under this order, so the
    // compile is a function of the canonical form, not of key order.
    auto by_name = [](const auto& a, const auto& b) {
        return a.name < b.name;
    };
    std::sort(net.sources.begin(), net.sources.end(), by_name);
    std::sort(net.channels.begin(), net.channels.end(), by_name);
    std::sort(net.monitors.begin(), net.monitors.end(), by_name);
    std::sort(net.wires.begin(), net.wires.end(),
              [](const WireSpec& a, const WireSpec& b) {
                  if (a.from_inst != b.from_inst)
                      return a.from_inst < b.from_inst;
                  if (a.from_port != b.from_port)
                      return a.from_port < b.from_port;
                  if (a.to_inst != b.to_inst) return a.to_inst < b.to_inst;
                  return a.to_port < b.to_port;
              });
}

// --- tasks ---------------------------------------------------------------

void parse_task(Ctx& ctx, const obs::JsonValue& v, const std::string& tp,
                TaskSpec& task) {
    const obs::JsonValue* kindv = v.find("kind");
    const std::string kind = kindv ? kindv->string_or("") : "";
    if (kind == "ber_surface") {
        task.kind = TaskSpec::Kind::kBerSurface;
    } else if (kind == "baseline_jtol") {
        task.kind = TaskSpec::Kind::kBaselineJtol;
    } else if (kind == "netlist_run") {
        task.kind = TaskSpec::Kind::kNetlistRun;
    } else if (kind == "differential") {
        task.kind = TaskSpec::Kind::kDifferential;
    } else if (kind == "health_probe") {
        task.kind = TaskSpec::Kind::kHealthProbe;
    } else {
        ctx.fail(kindv ? kindv : &v, tp + ".kind",
                 "want \"ber_surface\", \"baseline_jtol\", "
                 "\"netlist_run\", \"differential\" or \"health_probe\"");
        return;
    }
    task.prefix = task_kind_name(task.kind);

    const bool surface = task.kind == TaskSpec::Kind::kBerSurface;
    const bool baseline = task.kind == TaskSpec::Kind::kBaselineJtol;
    const bool differential = task.kind == TaskSpec::Kind::kDifferential;
    const bool healthprobe = task.kind == TaskSpec::Kind::kHealthProbe;

    for (const auto& [key, val] : v.members) {
        const std::string kp = tp + "." + key;
        if (key == "kind") continue;
        if (key == "prefix") {
            std::string p;
            if (read_string(ctx, val, kp, p)) {
                bool ok = !p.empty() && p.size() <= 64;
                for (char c : p) {
                    ok = ok && ((c >= 'a' && c <= 'z') ||
                                (c >= '0' && c <= '9') || c == '_' ||
                                c == '.');
                }
                if (!ok) {
                    ctx.fail(&val, kp,
                             "metric prefix must be [a-z0-9_.]{1,64}");
                } else {
                    task.prefix = p;
                }
            }
        } else if (surface && key == "axes") {
            if (!val.is_array() || val.items.empty()) {
                ctx.fail(&val, kp, "want a non-empty array of axes");
                continue;
            }
            for (std::size_t i = 0; i < val.items.size(); ++i) {
                const obs::JsonValue& av = val.items[i];
                const std::string ap = kp + "[" + std::to_string(i) + "]";
                if (!av.is_object()) {
                    ctx.fail(&av, ap, "want an object");
                    continue;
                }
                AxisSpec axis;
                for (const auto& [ak, avv] : av.members) {
                    if (ak == "name") {
                        if (read_string(ctx, avv, ap + ".name",
                                        axis.name)) {
                            statmodel::ModelConfig probe;
                            if (!apply_model_field(probe, axis.name,
                                                   0.0)) {
                                ctx.fail(&avv, ap + ".name",
                                         "unknown model field \"" +
                                             axis.name + "\"");
                            }
                        }
                    } else if (ak == "values" || ak == "linspace" ||
                               ak == "logspace" || ak == "steps") {
                        // Re-wrap as a one-member object so read_values
                        // sees the generator form.
                        obs::JsonValue wrap;
                        wrap.type = obs::JsonValue::Type::kObject;
                        wrap.offset = avv.offset;
                        wrap.members.emplace_back(ak, avv);
                        (void)read_values(ctx, wrap, ap, axis.values);
                    } else {
                        ctx.fail(&avv, ap + "." + ak,
                                 "unknown key \"" + ak + "\"");
                    }
                }
                if (axis.name.empty()) {
                    ctx.fail(&av, ap, "axis needs a \"name\"");
                } else if (axis.values.empty()) {
                    ctx.fail(&av, ap,
                             "axis needs values (literal or generator)");
                } else {
                    task.axes.push_back(std::move(axis));
                }
            }
        } else if (surface && key == "jtol") {
            if (!val.is_object()) {
                ctx.fail(&val, kp, "want an object");
                continue;
            }
            task.has_jtol = true;
            bool saw_freqs = false;
            for (const auto& [jk, jv] : val.members) {
                const std::string jp = kp + "." + jk;
                if (jk == "freqs") {
                    saw_freqs =
                        read_values(ctx, jv, jp, task.jtol.freqs);
                } else if (jk == "ber_target") {
                    if (read_double(ctx, jv, jp, task.jtol.ber_target) &&
                        (task.jtol.ber_target <= 0.0 ||
                         task.jtol.ber_target >= 1.0)) {
                        ctx.fail(&jv, jp, "want in (0, 1)");
                    }
                } else if (jk == "mask") {
                    if (read_string(ctx, jv, jp, task.jtol.mask) &&
                        task.jtol.mask != "infiniband_2g5" &&
                        task.jtol.mask != "none") {
                        ctx.fail(&jv, jp,
                                 "want \"infiniband_2g5\" or \"none\"");
                    }
                } else {
                    ctx.fail(&jv, jp, "unknown key \"" + jk + "\"");
                }
            }
            if (!saw_freqs) {
                ctx.fail(&val, kp, "jtol needs \"freqs\"");
            }
        } else if (baseline && key == "jtol_freqs") {
            (void)read_values(ctx, val, kp, task.jtol_freqs);
        } else if (baseline && key == "jtol_bits") {
            if (read_uint(ctx, val, kp, task.jtol_bits) &&
                (task.jtol_bits < 1000 || task.jtol_bits > 10'000'000)) {
                ctx.fail(&val, kp, "want an integer in [1000, 10000000]");
            }
        } else if (baseline && key == "ber_target") {
            if (read_double(ctx, val, kp, task.ber_target) &&
                (task.ber_target <= 0.0 || task.ber_target >= 1.0)) {
                ctx.fail(&val, kp, "want in (0, 1)");
            }
        } else if (baseline && key == "amp_cap") {
            if (read_double(ctx, val, kp, task.amp_cap) &&
                task.amp_cap <= 0.0) {
                ctx.fail(&val, kp, "want > 0");
            }
        } else if (baseline && key == "offsets") {
            (void)read_values(ctx, val, kp, task.offsets);
        } else if (baseline && key == "offset_bits") {
            if (read_uint(ctx, val, kp, task.offset_bits) &&
                (task.offset_bits < 1000 ||
                 task.offset_bits > 10'000'000)) {
                ctx.fail(&val, kp, "want an integer in [1000, 10000000]");
            }
        } else if (differential && key == "behavioral_runs") {
            if (read_uint(ctx, val, kp, task.behavioral_runs) &&
                task.behavioral_runs > 1'000'000) {
                ctx.fail(&val, kp, "want <= 1000000");
            }
        } else if (differential && key == "behavioral_min_ber") {
            if (read_double(ctx, val, kp, task.behavioral_min_ber) &&
                (task.behavioral_min_ber <= 0.0 ||
                 task.behavioral_min_ber >= 1.0)) {
                ctx.fail(&val, kp, "want in (0, 1)");
            }
        } else if (differential && key == "behavioral_tau") {
            if (read_double(ctx, val, kp, task.behavioral_tau) &&
                task.behavioral_tau < 1.0) {
                ctx.fail(&val, kp, "want >= 1");
            }
        } else if (healthprobe && key == "frames") {
            if (read_uint(ctx, val, kp, task.frames) &&
                (task.frames < 1 || task.frames > 1000)) {
                ctx.fail(&val, kp, "want an integer in [1, 1000]");
            }
        } else {
            ctx.fail(&val, kp,
                     "unknown key \"" + key + "\" for kind \"" + kind +
                         "\"");
        }
    }

    if (surface && task.axes.empty()) {
        ctx.fail(&v, tp, "ber_surface needs \"axes\"");
    }
    if (baseline && task.jtol_freqs.empty()) {
        ctx.fail(&v, tp, "baseline_jtol needs \"jtol_freqs\"");
    }
}

/// Every grid point of a ber_surface task, the model with its axis values
/// applied, must pass statmodel::check_model_config: the axes can move
/// grid_dx and the jitter terms past the model section's checks.
void check_surface_points(Ctx& ctx, const obs::JsonValue& root,
                          std::size_t index,
                          const statmodel::ModelConfig& model,
                          const TaskSpec& task) {
    const std::string tp = "tasks[" + std::to_string(index) + "].axes";
    const obs::JsonValue* at = &root;
    const obs::JsonValue* tasks = root.find("tasks");
    if (tasks && index < tasks->items.size()) {
        if (const obs::JsonValue* axes = tasks->items[index].find("axes")) {
            at = axes;
        }
    }
    const exec::SweepGrid grid = compile_grid(task);
    for (std::size_t i = 0; i < grid.size(); ++i) {
        const std::string why = statmodel::check_model_config(
            compile_point_model(model, task, grid.point(i, 0)));
        if (!why.empty()) {
            ctx.fail(at, tp, "grid point " + std::to_string(i) + ": " + why);
            return;
        }
    }
}

}  // namespace

bool scenario_from_json(const obs::JsonValue& root, ScenarioDoc& doc,
                        std::vector<Diagnostic>& diags,
                        std::string_view source, std::string_view file) {
    doc = ScenarioDoc{};
    const std::size_t diags_before = diags.size();
    Ctx ctx{source, file, &diags};
    if (!root.is_object()) {
        ctx.fail(&root, "", "scenario must be a JSON object");
        return false;
    }
    bool saw_schema = false, saw_name = false, saw_tasks = false;
    for (const auto& [key, val] : root.members) {
        if (key == "schema") {
            saw_schema = true;
            if (val.string_or("") != kScenarioSchema) {
                ctx.fail(&val, "schema",
                         std::string("want \"") + kScenarioSchema + "\"");
            }
        } else if (key == "name") {
            saw_name = true;
            if (read_string(ctx, val, "name", doc.name) &&
                !is_identifier(doc.name)) {
                ctx.fail(&val, "name",
                         "scenario name must be [A-Za-z0-9_]{1,64}");
            }
        } else if (key == "title") {
            (void)read_string(ctx, val, "title", doc.title);
        } else if (key == "model") {
            parse_model(ctx, val, doc.model);
        } else if (key == "mc") {
            parse_mc(ctx, val, doc.mc);
        } else if (key == "netlist") {
            doc.has_netlist = true;
            parse_netlist(ctx, val, doc.netlist);
        } else if (key == "tasks") {
            saw_tasks = true;
            if (!val.is_array() || val.items.empty()) {
                ctx.fail(&val, "tasks", "want a non-empty array");
                continue;
            }
            for (std::size_t i = 0; i < val.items.size(); ++i) {
                TaskSpec task;
                const std::size_t before = diags.size();
                parse_task(ctx, val.items[i],
                           "tasks[" + std::to_string(i) + "]", task);
                if (diags.size() == before) {
                    doc.tasks.push_back(std::move(task));
                }
            }
        } else {
            ctx.fail(&val, key, "unknown key \"" + key + "\"");
        }
    }
    if (!saw_schema) ctx.fail(&root, "schema", "missing \"schema\"");
    if (!saw_name) ctx.fail(&root, "name", "missing \"name\"");
    if (!saw_tasks) ctx.fail(&root, "tasks", "missing \"tasks\"");

    // Cross-cutting checks only meaningful once everything parsed.
    if (diags.size() == diags_before) {
        for (std::size_t i = 0; i < doc.tasks.size(); ++i) {
            for (std::size_t j = i + 1; j < doc.tasks.size(); ++j) {
                if (doc.tasks[i].prefix == doc.tasks[j].prefix) {
                    ctx.fail(&root, "tasks[" + std::to_string(j) + "]",
                             "duplicate metric prefix \"" +
                                 doc.tasks[j].prefix +
                                 "\" (metrics would collide)");
                }
            }
            if ((doc.tasks[i].kind == TaskSpec::Kind::kNetlistRun ||
                 doc.tasks[i].kind == TaskSpec::Kind::kHealthProbe) &&
                !doc.has_netlist) {
                ctx.fail(&root, "tasks[" + std::to_string(i) + "]",
                         std::string(task_kind_name(doc.tasks[i].kind)) +
                             " task needs a \"netlist\" section");
            }
            if (doc.tasks[i].kind == TaskSpec::Kind::kBerSurface) {
                check_surface_points(ctx, root, i, doc.model, doc.tasks[i]);
            }
        }
    }
    return diags.size() == diags_before;
}

bool scenario_from_string(std::string_view text, ScenarioDoc& doc,
                          std::vector<Diagnostic>& diags,
                          std::string_view file) {
    obs::JsonValue root;
    std::string err;
    if (!obs::json_parse(text, root, &err)) {
        Diagnostic d;
        d.file = std::string(file);
        d.message = "JSON parse error: " + err;
        // The parser's "<what> at byte N" prefix is stable (json_parse
        // contract); map the offset back so parse errors point like
        // validation errors do.
        const std::size_t at = err.find(" at byte ");
        if (at != std::string::npos) {
            const std::size_t off =
                std::strtoull(err.c_str() + at + 9, nullptr, 10);
            const obs::LineColumn lc = obs::line_column(text, off);
            d.line = lc.line;
            d.column = lc.column;
        }
        diags.push_back(std::move(d));
        return false;
    }
    return scenario_from_json(root, doc, diags, text, file);
}

bool scenario_from_file(const std::string& path, ScenarioDoc& doc,
                        std::vector<Diagnostic>& diags) {
    std::ifstream is(path);
    if (!is) {
        Diagnostic d;
        d.file = path;
        d.message = "cannot open scenario file";
        diags.push_back(std::move(d));
        return false;
    }
    std::ostringstream ss;
    ss << is.rdbuf();
    const std::string text = ss.str();
    return scenario_from_string(text, doc, diags, path);
}

namespace {

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

void append_uint(std::string& out, bool& first, std::string_view key,
                 std::uint64_t value) {
    append_field(out, first, key, std::to_string(value));
}

void append_string(std::string& out, bool& first, std::string_view key,
                   const std::string& value) {
    append_field(out, first, key,
                 "\"" + obs::JsonWriter::escape(value) + "\"");
}

std::string values_json(const std::vector<double>& values) {
    std::string out = "[";
    for (std::size_t i = 0; i < values.size(); ++i) {
        if (i) out += ',';
        out += obs::canonical_number(values[i], {});
    }
    out += ']';
    return out;
}

std::string task_json(const TaskSpec& t) {
    // Collect (key, rendered) and sort so the member order stays
    // canonical no matter which kind contributes which keys.
    std::vector<std::pair<std::string, std::string>> fields;
    const auto num = [&](const char* k, double v) {
        fields.emplace_back(k, obs::canonical_number(v, {}));
    };
    const auto uint = [&](const char* k, std::uint64_t v) {
        fields.emplace_back(k, std::to_string(v));
    };
    const auto str = [&](const char* k, const std::string& v) {
        fields.emplace_back(k, "\"" + obs::JsonWriter::escape(v) + "\"");
    };
    switch (t.kind) {
        case TaskSpec::Kind::kBerSurface: {
            std::string axes = "[";
            for (std::size_t i = 0; i < t.axes.size(); ++i) {
                if (i) axes += ',';
                axes += "{\"name\":\"" +
                        obs::JsonWriter::escape(t.axes[i].name) +
                        "\",\"values\":" + values_json(t.axes[i].values) +
                        "}";
            }
            axes += ']';
            fields.emplace_back("axes", std::move(axes));
            if (t.has_jtol) {
                std::string jtol = "{";
                bool jfirst = true;
                append_number(jtol, jfirst, "ber_target",
                              t.jtol.ber_target);
                append_field(jtol, jfirst, "freqs",
                             values_json(t.jtol.freqs));
                append_string(jtol, jfirst, "mask", t.jtol.mask);
                jtol += '}';
                fields.emplace_back("jtol", std::move(jtol));
            }
            break;
        }
        case TaskSpec::Kind::kBaselineJtol:
            num("amp_cap", t.amp_cap);
            num("ber_target", t.ber_target);
            uint("jtol_bits", t.jtol_bits);
            fields.emplace_back("jtol_freqs", values_json(t.jtol_freqs));
            uint("offset_bits", t.offset_bits);
            if (!t.offsets.empty()) {
                fields.emplace_back("offsets", values_json(t.offsets));
            }
            break;
        case TaskSpec::Kind::kNetlistRun:
            break;
        case TaskSpec::Kind::kDifferential:
            num("behavioral_min_ber", t.behavioral_min_ber);
            uint("behavioral_runs", t.behavioral_runs);
            num("behavioral_tau", t.behavioral_tau);
            break;
        case TaskSpec::Kind::kHealthProbe:
            uint("frames", t.frames);
            break;
    }
    str("kind", std::string(task_kind_name(t.kind)));
    str("prefix", t.prefix);
    std::sort(fields.begin(), fields.end());

    std::string out = "{";
    bool first = true;
    for (const auto& [k, v] : fields) append_field(out, first, k, v);
    out += '}';
    return out;
}

std::string netlist_json(const NetlistSpec& net) {
    // Instance names are sorted (the loader's canonical order) and kinds
    // sort as channel < monitor < source, so emitting channels, then
    // monitors, then sources interleaved by name keeps the member list
    // bytewise sorted only if names don't interleave across kinds —
    // which they can. Collect (name, rendered) pairs and sort instead.
    std::vector<std::pair<std::string, std::string>> insts;
    for (const ChannelSpec& c : net.channels) {
        std::string o = "{";
        bool first = true;
        append_number(o, first, "ckj_uirms", c.ckj_uirms);
        append_number(o, first, "f_osc_hz", c.f_osc_hz);
        append_field(o, first, "improved_sampling",
                     c.improved_sampling ? "true" : "false");
        append_string(o, first, "kind", "channel");
        o += '}';
        insts.emplace_back(c.name, std::move(o));
    }
    for (const MonitorSpec& m : net.monitors) {
        insts.emplace_back(m.name, "{\"kind\":\"monitor\"}");
    }
    for (const SourceSpec& s : net.sources) {
        // Pattern sources replace the PRBS stream, so exactly one of the
        // two generator descriptions is emitted; rate_offset only when
        // non-default. This keeps pre-existing documents' canonical bytes
        // (and therefore scenario hashes) unchanged — same conditional-
        // emission precedent as the baseline task's "offsets".
        std::string o = "{";
        bool first = true;
        if (s.pattern.empty()) {
            append_uint(o, first, "bits", s.bits);
            append_string(o, first, "kind", "source");
            append_uint(o, first, "prbs",
                        static_cast<std::uint64_t>(s.prbs));
        } else {
            append_string(o, first, "kind", "source");
            std::string pat = "[";
            for (std::size_t b = 0; b < s.pattern.size(); ++b) {
                if (b) pat += ',';
                pat += s.pattern[b] ? '1' : '0';
            }
            pat += ']';
            append_field(o, first, "pattern", pat);
        }
        if (s.rate_offset != 0.0) {
            append_number(o, first, "rate_offset", s.rate_offset);
        }
        if (!s.pattern.empty()) {
            append_uint(o, first, "repeat", s.repeat);
        }
        append_number(o, first, "start_ns", s.start_ns);
        o += '}';
        insts.emplace_back(s.name, std::move(o));
    }
    std::sort(insts.begin(), insts.end());

    std::string out = "{\"instances\":{";
    for (std::size_t i = 0; i < insts.size(); ++i) {
        if (i) out += ',';
        out += '"' + obs::JsonWriter::escape(insts[i].first) +
               "\":" + insts[i].second;
    }
    out += "},\"wires\":[";
    for (std::size_t i = 0; i < net.wires.size(); ++i) {
        const WireSpec& w = net.wires[i];
        if (i) out += ',';
        std::string o = "{";
        bool first = true;
        append_string(o, first, "from", w.from_inst + "." + w.from_port);
        append_number(o, first, "skew_ps", w.skew_ps);
        append_string(o, first, "to", w.to_inst + "." + w.to_port);
        o += '}';
        out += o;
    }
    out += "]}";
    return out;
}

}  // namespace

std::string resolved_json(const ScenarioDoc& doc) {
    std::string out = "{";
    bool first = true;
    {
        std::string mc = "{";
        bool mfirst = true;
        append_number(mc, mfirst, "confidence", doc.mc.confidence);
        append_uint(mc, mfirst, "max_evals", doc.mc.max_evals);
        append_number(mc, mfirst, "target_rel_err", doc.mc.target_rel_err);
        mc += '}';
        append_field(out, first, "mc", mc);
    }
    {
        std::string cfg = "{";
        bool cfirst = true;
        const statmodel::ModelConfig& c = doc.model;
        append_uint(cfg, cfirst, "cid_ref",
                    static_cast<std::uint64_t>(c.cid_ref));
        append_number(cfg, cfirst, "ckj_uirms", c.spec.ckj_uirms);
        append_number(cfg, cfirst, "dj_uipp", c.spec.dj_uipp);
        append_number(cfg, cfirst, "freq_offset", c.freq_offset);
        append_number(cfg, cfirst, "grid_dx", c.grid_dx);
        append_uint(cfg, cfirst, "max_cid",
                    static_cast<std::uint64_t>(c.max_cid));
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
        append_field(out, first, "model", cfg);
    }
    append_string(out, first, "name", doc.name);
    if (doc.has_netlist) {
        append_field(out, first, "netlist", netlist_json(doc.netlist));
    }
    append_string(out, first, "schema", kScenarioSchema);
    {
        std::string tasks = "[";
        for (std::size_t i = 0; i < doc.tasks.size(); ++i) {
            if (i) tasks += ',';
            tasks += task_json(doc.tasks[i]);
        }
        tasks += ']';
        append_field(out, first, "tasks", tasks);
    }
    append_string(out, first, "title", doc.title);
    out += '}';
    return out;
}

std::uint64_t scenario_hash(const ScenarioDoc& doc) {
    return util::fnv1a64(resolved_json(doc));
}

}  // namespace gcdr::scenario
