#include "scenario/scenario_doc.hpp"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <tuple>

#include "scenario/compile.hpp"
#include "util/hash.hpp"

namespace gcdr::scenario {

namespace {

using statmodel::ModelConfig;

// --- key tables (row format: spec_table.hpp) -----------------------------

constexpr bool cid_range(double v) { return v >= 1.0 && v <= 16.0; }
constexpr bool positive(double v) { return v > 0.0; }
constexpr bool non_negative(double v) { return v >= 0.0; }
constexpr bool unit_open(double v) { return v > 0.0 && v < 1.0; }
constexpr bool bit_budget(double v) { return v >= 1000.0 && v <= 1e7; }

constexpr std::string_view kRunModels[] = {"weighted", "worst_case"};
constexpr std::string_view kMasks[] = {"infiniband_2g5", "none"};

constexpr Field<ModelConfig> kModelFields[] = {
    {"cid_ref", [](ModelConfig& m) -> Slot { return &m.cid_ref; }, cid_range,
     "want an integer in [1, 16]"},
    {"ckj_uirms", [](ModelConfig& m) -> Slot { return &m.spec.ckj_uirms; }},
    {"dj_uipp", [](ModelConfig& m) -> Slot { return &m.spec.dj_uipp; }},
    {"freq_offset", [](ModelConfig& m) -> Slot { return &m.freq_offset; }},
    {"grid_dx", [](ModelConfig& m) -> Slot { return &m.grid_dx; },
     [](double v) { return v > 0.0 && v <= 0.1; }, "want in (0, 0.1]"},
    {"max_cid", [](ModelConfig& m) -> Slot { return &m.max_cid; }, cid_range,
     "want an integer in [1, 16]"},
    {"pdf_prune_floor",
     [](ModelConfig& m) -> Slot { return &m.pdf_prune_floor; }},
    {"rj_uirms", [](ModelConfig& m) -> Slot { return &m.spec.rj_uirms; }},
    {"run_model", [](ModelConfig& m) -> Slot { return &m.run_model; },
     nullptr, "want \"weighted\" or \"worst_case\"", kRunModels},
    {"sampling_advance_ui",
     [](ModelConfig& m) -> Slot { return &m.sampling_advance_ui; }},
    {"sj_freq_norm", [](ModelConfig& m) -> Slot { return &m.sj_freq_norm; }},
    {"sj_uipp", [](ModelConfig& m) -> Slot { return &m.spec.sj_uipp; }},
    {"trigger_mismatch_uirms",
     [](ModelConfig& m) -> Slot { return &m.trigger_mismatch_uirms; }},
};

// "confidence" first: a daemon mc job takes only the rows after it.
constexpr Field<McSpec> kMcFields[] = {
    {"confidence", [](McSpec& m) -> Slot { return &m.confidence; }, unit_open,
     "want in (0, 1)"},
    {"max_evals", [](McSpec& m) -> Slot { return &m.max_evals; },
     [](double v) { return v >= 1.0; },
     "mc.max_evals must be >= 1 (a zero budget computes nothing)"},
    {"target_rel_err", [](McSpec& m) -> Slot { return &m.target_rel_err; },
     positive, "want a positive number"},
};

// A pattern replaces the PRBS stream, so the canonical form carries
// either bits/prbs or pattern/repeat; rate_offset only when non-zero.
// Both rules keep the canonical bytes (and hashes) of documents written
// before those keys existed.
bool prbs_stream(const SourceSpec& s) { return s.pattern.empty(); }
bool pattern_stream(const SourceSpec& s) { return !s.pattern.empty(); }

constexpr Field<SourceSpec> kSourceFields[] = {
    {"bits", [](SourceSpec& s) -> Slot { return &s.bits; },
     [](double v) { return v >= 1.0 && v <= 1e7; },
     "want an integer in [1, 10000000]", {}, prbs_stream},
    {"pattern", [](SourceSpec& s) -> Slot { return &s.pattern; },
     [](double n) { return n >= 1.0 && n <= 4096.0; },
     "want an array of 0/1 bits, size [1, 4096]", {}, pattern_stream},
    {"prbs", [](SourceSpec& s) -> Slot { return &s.prbs; },
     [](double v) { return v == 7 || v == 9 || v == 15 || v == 23 || v == 31; },
     "want a PRBS order: 7, 9, 15, 23 or 31", {}, prbs_stream},
    {"rate_offset", [](SourceSpec& s) -> Slot { return &s.rate_offset; },
     [](double v) { return v >= -0.5 && v <= 0.5; }, "want in [-0.5, 0.5]",
     {}, [](const SourceSpec& s) { return s.rate_offset != 0.0; }},
    {"repeat", [](SourceSpec& s) -> Slot { return &s.repeat; },
     [](double v) { return v >= 1.0 && v <= 1e5; },
     "want an integer in [1, 100000]", {}, pattern_stream},
    {"start_ns", [](SourceSpec& s) -> Slot { return &s.start_ns; },
     non_negative, "want >= 0"},
};

constexpr Field<ChannelSpec> kChannelFields[] = {
    {"ckj_uirms", [](ChannelSpec& c) -> Slot { return &c.ckj_uirms; },
     non_negative, "want >= 0"},
    {"f_osc_hz", [](ChannelSpec& c) -> Slot { return &c.f_osc_hz; },
     positive, "want > 0"},
    {"improved_sampling",
     [](ChannelSpec& c) -> Slot { return &c.improved_sampling; }},
};

constexpr Field<WireSpec> kWireFields[] = {
    {"from", [](WireSpec& w) -> Slot { return &w.from; }},
    {"skew_ps", [](WireSpec& w) -> Slot { return &w.skew_ps; }},
    {"to", [](WireSpec& w) -> Slot { return &w.to; }},
};

constexpr Field<JtolSpec> kJtolFields[] = {
    {"ber_target", [](JtolSpec& j) -> Slot { return &j.ber_target; },
     unit_open, "want in (0, 1)"},
    {"freqs", [](JtolSpec& j) -> Slot { return &j.freqs; }},
    {"mask", [](JtolSpec& j) -> Slot { return &j.mask; }, nullptr,
     "want \"infiniband_2g5\" or \"none\"", kMasks},
};

constexpr Field<TaskSpec> kBaselineJtolFields[] = {
    {"amp_cap", [](TaskSpec& t) -> Slot { return &t.amp_cap; }, positive,
     "want > 0"},
    {"ber_target", [](TaskSpec& t) -> Slot { return &t.ber_target; },
     unit_open, "want in (0, 1)"},
    {"jtol_bits", [](TaskSpec& t) -> Slot { return &t.jtol_bits; },
     bit_budget, "want an integer in [1000, 10000000]"},
    {"jtol_freqs", [](TaskSpec& t) -> Slot { return &t.jtol_freqs; }},
    {"offset_bits", [](TaskSpec& t) -> Slot { return &t.offset_bits; },
     bit_budget, "want an integer in [1000, 10000000]"},
    {"offsets", [](TaskSpec& t) -> Slot { return &t.offsets; }, nullptr, {},
     {}, [](const TaskSpec& t) { return !t.offsets.empty(); }},
};

constexpr Field<TaskSpec> kDifferentialFields[] = {
    {"behavioral_min_ber",
     [](TaskSpec& t) -> Slot { return &t.behavioral_min_ber; }, unit_open,
     "want in (0, 1)"},
    {"behavioral_runs",
     [](TaskSpec& t) -> Slot { return &t.behavioral_runs; },
     [](double v) { return v <= 1e6; }, "want <= 1000000"},
    {"behavioral_tau", [](TaskSpec& t) -> Slot { return &t.behavioral_tau; },
     [](double v) { return v >= 1.0; }, "want >= 1"},
};

constexpr Field<TaskSpec> kHealthProbeFields[] = {
    {"frames", [](TaskSpec& t) -> Slot { return &t.frames; },
     [](double v) { return v >= 1.0 && v <= 1000.0; },
     "want an integer in [1, 1000]"},
};

/// Task kinds in TaskSpec::Kind order: name, key table and the key the
/// kind cannot do without. ber_surface's "axes" and "jtol" (an axis list
/// and an optional sub-object) are read by hand in parse_task.
struct TaskKind {
    std::string_view name;
    TaskSpec::Kind kind;
    std::span<const Field<TaskSpec>> fields;
    std::string_view required;
};

constexpr TaskKind kTaskKinds[] = {
    {"ber_surface", TaskSpec::Kind::kBerSurface, {}, "axes"},
    {"baseline_jtol", TaskSpec::Kind::kBaselineJtol, kBaselineJtolFields,
     "jtol_freqs"},
    {"netlist_run", TaskSpec::Kind::kNetlistRun, {}, {}},
    {"differential", TaskSpec::Kind::kDifferential, kDifferentialFields, {}},
    {"health_probe", TaskSpec::Kind::kHealthProbe, kHealthProbeFields, {}},
};

static_assert([] {
    for (std::size_t i = 0; i < std::size(kTaskKinds); ++i) {
        if (static_cast<std::size_t>(kTaskKinds[i].kind) != i) return false;
    }
    return true;
}());

const TaskKind& task_kind(TaskSpec::Kind k) {
    return kTaskKinds[static_cast<std::size_t>(k)];
}

/// The real-valued model row named `key`, inside `cfg`; nullptr when
/// there is none.
double* model_real(ModelConfig& cfg, std::string_view key) {
    for (const Field<ModelConfig>& f : kModelFields) {
        if (f.key != key) continue;
        const Slot slot = f.at(cfg);
        const auto* real = std::get_if<double*>(&slot);
        return real ? *real : nullptr;
    }
    return nullptr;
}

}  // namespace

const char* task_kind_name(TaskSpec::Kind k) {
    return task_kind(k).name.data();
}

std::string_view endpoint_instance(std::string_view endpoint) {
    return endpoint.substr(0, endpoint.find('.'));
}

bool apply_model_field(ModelConfig& cfg, std::string_view name,
                       double value) {
    double* field = model_real(cfg, name);
    if (field) *field = value;
    return field != nullptr;
}

std::span<const Field<ModelConfig>> model_fields() { return kModelFields; }

std::span<const Field<McSpec>> mc_budget_fields() {
    return std::span(kMcFields).subspan(1);
}

void read_model(DiagSink& sink, const obs::JsonValue& v,
                const std::string& path, ModelConfig& cfg) {
    read_object(sink, v, path, kModelFields, cfg);
    const std::string why = statmodel::check_model_config(cfg);
    if (why.empty()) return;
    // check_model_config names the field first: "<field>: <reason>".
    const std::size_t colon = why.find(": ");
    if (colon == std::string::npos) {
        sink.fail(&v, path, why);
    } else {
        sink.fail(&v, path + "." + why.substr(0, colon),
                  why.substr(colon + 2));
    }
}

void read_axes(DiagSink& sink, const obs::JsonValue& v,
               const std::string& path, std::vector<exec::SweepAxis>& axes) {
    if (!v.is_array() || v.items.empty()) {
        sink.fail(&v, path, "want a non-empty array of axes");
        return;
    }
    for (std::size_t i = 0; i < v.items.size(); ++i) {
        const obs::JsonValue& av = v.items[i];
        const std::string ap = path + "[" + std::to_string(i) + "]";
        if (!av.is_object()) {
            sink.fail(&av, ap, "want an object");
            continue;
        }
        exec::SweepAxis axis;
        bool saw_values = false;
        for (const auto& [key, val] : av.members) {
            const std::string kp = ap + "." + key;
            if (key == "name") {
                ModelConfig probe;
                if (read_slot(sink, val, kp, &axis.name) &&
                    !model_real(probe, axis.name)) {
                    sink.fail(&val, kp,
                              "unknown model field \"" + axis.name + "\"");
                }
            } else if (key == "values" || key == "linspace" ||
                       key == "logspace" || key == "steps") {
                if (saw_values) {
                    sink.fail(&val, kp,
                              "an axis takes exactly one of \"values\", "
                              "\"linspace\", \"logspace\" or \"steps\"");
                } else {
                    (void)read_generator(sink, key, val, kp, axis.values);
                }
                saw_values = true;
            } else {
                sink.fail(&val, kp, "unknown key \"" + key + "\"");
            }
        }
        if (axis.name.empty()) {
            sink.fail(&av, ap, "axis needs a \"name\"");
        } else if (axis.values.empty()) {
            sink.fail(&av, ap, "axis needs values (literal or generator)");
        } else {
            axes.push_back(std::move(axis));
        }
    }
}

std::string axes_json(const std::vector<exec::SweepAxis>& axes) {
    std::string out = "[";
    for (const exec::SweepAxis& a : axes) {
        if (out.size() > 1) out += ',';
        out += "{\"name\":" + json_string(a.name) +
               ",\"values\":" + values_json(a.values) + "}";
    }
    return out + ']';
}

std::string grid_fault(const ModelConfig& base,
                       const std::vector<exec::SweepAxis>& axes,
                       std::string_view noun) {
    // The size check comes first: a few hundred bytes of generators can
    // describe a grid no point walk could finish.
    double points = 1.0;
    for (const exec::SweepAxis& a : axes) {
        points *= static_cast<double>(a.values.size());
    }
    if (points > static_cast<double>(kMaxGridPoints)) {
        char msg[96];
        std::snprintf(msg, sizeof msg,
                      "grid of %.0f points exceeds the cap of %zu", points,
                      kMaxGridPoints);
        return msg;
    }
    const exec::SweepGrid grid(axes);
    for (std::size_t i = 0; i < grid.size(); ++i) {
        const std::string why = statmodel::check_model_config(
            compile_point_model(base, axes, grid.point(i, 0)));
        if (!why.empty()) {
            return std::string(noun) + " " + std::to_string(i) + ": " + why;
        }
    }
    return {};
}

namespace {

bool is_identifier(std::string_view s) {
    if (s.empty() || s.size() > 64) return false;
    for (char c : s) {
        const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                        (c >= '0' && c <= '9') || c == '_';
        if (!ok) return false;
    }
    return true;
}

// --- netlist -------------------------------------------------------------

enum class InstKind { kSource, kChannel, kMonitor };
using InstKinds = std::vector<std::pair<std::string, InstKind>>;

/// Check one wire endpoint: "instance.port" naming a known instance's
/// output port (`output`) or input port. Sets `kind` to the instance's.
bool check_endpoint(DiagSink& sink, const obs::JsonValue& v,
                    const std::string& path, bool output,
                    const InstKinds& kinds, InstKind& kind) {
    const std::string& text = v.text;
    const std::size_t dot = text.find('.');
    if (dot == std::string::npos || dot == 0 || dot + 1 >= text.size() ||
        text.find('.', dot + 1) != std::string::npos) {
        sink.fail(&v, path, "want \"instance.port\", got \"" + text + "\"");
        return false;
    }
    const std::string inst = text.substr(0, dot);
    const std::string port = text.substr(dot + 1);
    const auto it =
        std::find_if(kinds.begin(), kinds.end(),
                     [&](const auto& k) { return k.first == inst; });
    if (it == kinds.end()) {
        sink.fail(&v, path, "unknown instance \"" + inst + "\"");
        return false;
    }
    kind = it->second;
    // Port tables per kind.
    const bool is_output = (kind == InstKind::kSource && port == "out") ||
                           (kind == InstKind::kChannel && port == "dout");
    const bool is_input = (kind == InstKind::kChannel && port == "din") ||
                          (kind == InstKind::kMonitor && port == "in");
    if (!is_output && !is_input) {
        sink.fail(&v, path,
                  "instance \"" + inst + "\" has no port \"" + port + "\"");
        return false;
    }
    if (output && !is_output) {
        sink.fail(&v, path,
                  "\"" + port +
                      "\" is an input port; a wire's \"from\" must be an "
                      "output");
        return false;
    }
    if (!output && !is_input) {
        sink.fail(&v, path,
                  "\"" + port +
                      "\" is an output port; a wire's \"to\" must be an "
                      "input");
        return false;
    }
    return true;
}

void parse_netlist(DiagSink& sink, const obs::JsonValue& v,
                   NetlistSpec& net) {
    if (!v.is_object()) {
        sink.fail(&v, "netlist", "want an object");
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
            sink.fail(&val, "netlist." + key, "unknown key \"" + key + "\"");
        }
    }
    if (!instances || !instances->is_object()) {
        sink.fail(instances ? instances : &v, "netlist.instances",
                  "want an object of named instances");
        return;
    }

    // Instances. Names must be identifiers and unique (json_parse keeps
    // duplicate keys, so duplicates are detectable here).
    InstKinds kinds;
    for (const auto& [name, inst] : instances->members) {
        const std::string ip = "netlist.instances." + name;
        if (!is_identifier(name)) {
            sink.fail(&inst, ip, "instance name must be [A-Za-z0-9_]{1,64}");
            continue;
        }
        if (std::any_of(kinds.begin(), kinds.end(),
                        [&](const auto& k) { return k.first == name; })) {
            sink.fail(&inst, ip, "duplicate instance \"" + name + "\"");
            continue;
        }
        if (!inst.is_object()) {
            sink.fail(&inst, ip, "want an object");
            continue;
        }
        const obs::JsonValue* kindv = inst.find("kind");
        const std::string kind = kindv ? kindv->string_or("") : "";
        if (kind == "source") {
            SourceSpec s;
            s.name = name;
            read_object(sink, inst, ip, kSourceFields, s, "kind");
            if (!s.pattern.empty() &&
                (inst.find("bits") || inst.find("prbs"))) {
                sink.fail(&inst, ip,
                          "\"pattern\" replaces the PRBS stream; it cannot "
                          "be combined with \"bits\" or \"prbs\"");
            }
            if (inst.find("repeat") && s.pattern.empty()) {
                sink.fail(&inst, ip,
                          "\"repeat\" only applies to a \"pattern\" source");
            }
            net.sources.push_back(std::move(s));
            kinds.emplace_back(name, InstKind::kSource);
        } else if (kind == "channel") {
            ChannelSpec c;
            c.name = name;
            read_object(sink, inst, ip, kChannelFields, c, "kind");
            net.channels.push_back(std::move(c));
            kinds.emplace_back(name, InstKind::kChannel);
        } else if (kind == "monitor") {
            MonitorSpec m;
            m.name = name;
            read_object(sink, inst, ip, {}, m, "kind");
            net.monitors.push_back(std::move(m));
            kinds.emplace_back(name, InstKind::kMonitor);
        } else {
            sink.fail(kindv ? kindv : &inst, ip + ".kind",
                      "want \"source\", \"channel\" or \"monitor\"");
        }
    }
    if (net.channels.empty()) {
        sink.fail(instances, "netlist.instances",
                  "netlist needs at least one channel instance");
    }

    // The multichannel receiver instantiates one shared channel template,
    // so per-instance channel parameters must agree.
    for (std::size_t i = 1; i < net.channels.size(); ++i) {
        const ChannelSpec& a = net.channels[0];
        const ChannelSpec& b = net.channels[i];
        if (a.f_osc_hz != b.f_osc_hz || a.ckj_uirms != b.ckj_uirms ||
            a.improved_sampling != b.improved_sampling) {
            sink.fail(instances, "netlist.instances." + b.name,
                      "channel parameters must match across instances "
                      "(the multichannel receiver shares one channel "
                      "template); \"" +
                          b.name + "\" differs from \"" + a.name + "\"");
        }
    }

    // Wires: "inst.port" endpoints, output -> input only.
    if (wires && !wires->is_array()) {
        sink.fail(wires, "netlist.wires", "want an array");
        return;
    }
    for (std::size_t i = 0; wires && i < wires->items.size(); ++i) {
        const obs::JsonValue& wv = wires->items[i];
        const std::string wp = "netlist.wires[" + std::to_string(i) + "]";
        WireSpec w;
        const std::size_t before = sink.count();
        read_object(sink, wv, wp, kWireFields, w);
        if (sink.count() != before) continue;
        const obs::JsonValue* from = wv.find("from");
        const obs::JsonValue* to = wv.find("to");
        if (!from || !to) {
            sink.fail(&wv, wp, "want both \"from\" and \"to\"");
            continue;
        }
        InstKind fk{}, tk{};
        const bool from_ok =
            check_endpoint(sink, *from, wp + ".from", true, kinds, fk);
        if (!check_endpoint(sink, *to, wp + ".to", false, kinds, tk) ||
            !from_ok) {
            continue;
        }
        // Wire type check: source.out feeds channel.din, channel.dout
        // feeds monitor.in.
        if (fk == InstKind::kSource && tk != InstKind::kChannel) {
            sink.fail(&wv, wp, "a source output must drive a channel din");
        } else if (fk == InstKind::kChannel && tk != InstKind::kMonitor) {
            sink.fail(&wv, wp, "a channel dout must drive a monitor in");
        } else {
            net.wires.push_back(std::move(w));
        }
    }

    // Connectivity: every channel din and monitor in driven exactly once,
    // every source output driving at least one channel.
    const auto check_driven = [&](const std::string& what,
                                  const std::string& inst,
                                  const std::string& port) {
        const std::string input = inst + "." + port;
        const auto drivers =
            std::count_if(net.wires.begin(), net.wires.end(),
                          [&](const WireSpec& w) { return w.to == input; });
        const std::string head =
            what + " \"" + inst + "\" input " + port + " is ";
        if (drivers == 0) {
            sink.fail(wires ? wires : instances, "netlist.wires",
                      head + "not driven by any wire");
        } else if (drivers > 1) {
            sink.fail(wires, "netlist.wires", head + "driven more than once");
        }
    };
    for (const ChannelSpec& c : net.channels) {
        check_driven("channel", c.name, "din");
    }
    for (const MonitorSpec& m : net.monitors) {
        check_driven("monitor", m.name, "in");
    }
    for (const SourceSpec& s : net.sources) {
        const std::string output = s.name + ".out";
        if (std::none_of(net.wires.begin(), net.wires.end(),
                         [&](const WireSpec& w) { return w.from == output; })) {
            sink.fail(wires ? wires : instances, "netlist.wires",
                      "source \"" + s.name + "\" output out drives nothing");
        }
    }

    // Canonical orders: instances by name, wires by (from, to). Channel i
    // of the compiled receiver is channels[i] under this order, so the
    // compile is a function of the canonical form, not of key order. ('.'
    // sorts below every identifier character, so comparing "inst.port"
    // strings orders by instance, then port.)
    auto by_name = [](const auto& a, const auto& b) {
        return a.name < b.name;
    };
    std::sort(net.sources.begin(), net.sources.end(), by_name);
    std::sort(net.channels.begin(), net.channels.end(), by_name);
    std::sort(net.monitors.begin(), net.monitors.end(), by_name);
    std::sort(net.wires.begin(), net.wires.end(),
              [](const WireSpec& a, const WireSpec& b) {
                  return std::tie(a.from, a.to) < std::tie(b.from, b.to);
              });
}

// --- tasks ---------------------------------------------------------------

void parse_task(DiagSink& sink, const obs::JsonValue& v,
                const std::string& tp, TaskSpec& task) {
    const obs::JsonValue* kindv = v.find("kind");
    const std::string kind = kindv ? kindv->string_or("") : "";
    const auto* tk = std::find_if(
        std::begin(kTaskKinds), std::end(kTaskKinds),
        [&](const TaskKind& k) { return k.name == kind; });
    if (tk == std::end(kTaskKinds)) {
        sink.fail(kindv ? kindv : &v, tp + ".kind",
                  "want \"ber_surface\", \"baseline_jtol\", "
                  "\"netlist_run\", \"differential\" or \"health_probe\"");
        return;
    }
    task.kind = tk->kind;
    task.prefix = tk->name;
    const bool surface = task.kind == TaskSpec::Kind::kBerSurface;

    for (const auto& [key, val] : v.members) {
        const std::string kp = tp + "." + key;
        if (key == "kind") continue;
        if (key == "prefix") {
            std::string p;
            if (read_slot(sink, val, kp, &p)) {
                bool ok = !p.empty() && p.size() <= 64;
                for (char c : p) {
                    ok = ok && ((c >= 'a' && c <= 'z') ||
                                (c >= '0' && c <= '9') || c == '_' ||
                                c == '.');
                }
                if (!ok) {
                    sink.fail(&val, kp,
                              "metric prefix must be [a-z0-9_.]{1,64}");
                } else {
                    task.prefix = p;
                }
            }
        } else if (surface && key == "axes") {
            read_axes(sink, val, kp, task.axes);
        } else if (surface && key == "jtol") {
            task.has_jtol = true;
            read_object(sink, val, kp, kJtolFields, task.jtol);
            if (val.is_object() && !val.find("freqs")) {
                sink.fail(&val, kp, "jtol needs \"freqs\"");
            }
        } else if (!read_field(sink, tk->fields, key, val, kp, task)) {
            sink.fail(&val, kp,
                      "unknown key \"" + key + "\" for kind \"" + kind +
                          "\"");
        }
    }
    if (!tk->required.empty() && !v.find(tk->required)) {
        sink.fail(&v, tp,
                  kind + " needs \"" + std::string(tk->required) + "\"");
    }
}

}  // namespace

bool scenario_from_json(const obs::JsonValue& root, ScenarioDoc& doc,
                        std::vector<Diagnostic>& diags,
                        std::string_view source, std::string_view file) {
    doc = ScenarioDoc{};
    const std::size_t diags_before = diags.size();
    DiagSink sink{source, file, &diags};
    if (!root.is_object()) {
        sink.fail(&root, "", "scenario must be a JSON object");
        return false;
    }
    bool saw_schema = false, saw_name = false, saw_tasks = false;
    for (const auto& [key, val] : root.members) {
        if (key == "schema") {
            saw_schema = true;
            if (val.string_or("") != kScenarioSchema) {
                sink.fail(&val, "schema",
                          std::string("want \"") + kScenarioSchema + "\"");
            }
        } else if (key == "name") {
            saw_name = true;
            if (read_slot(sink, val, "name", &doc.name) &&
                !is_identifier(doc.name)) {
                sink.fail(&val, "name",
                          "scenario name must be [A-Za-z0-9_]{1,64}");
            }
        } else if (key == "title") {
            (void)read_slot(sink, val, "title", &doc.title);
        } else if (key == "model") {
            read_model(sink, val, "model", doc.model);
        } else if (key == "mc") {
            read_object(sink, val, "mc", kMcFields, doc.mc);
        } else if (key == "netlist") {
            doc.has_netlist = true;
            parse_netlist(sink, val, doc.netlist);
        } else if (key == "tasks") {
            saw_tasks = true;
            if (!val.is_array() || val.items.empty()) {
                sink.fail(&val, "tasks", "want a non-empty array");
                continue;
            }
            for (std::size_t i = 0; i < val.items.size(); ++i) {
                TaskSpec task;
                const std::size_t before = sink.count();
                parse_task(sink, val.items[i],
                           "tasks[" + std::to_string(i) + "]", task);
                if (sink.count() == before) {
                    doc.tasks.push_back(std::move(task));
                }
            }
        } else {
            sink.fail(&val, key, "unknown key \"" + key + "\"");
        }
    }
    if (!saw_schema) sink.fail(&root, "schema", "missing \"schema\"");
    if (!saw_name) sink.fail(&root, "name", "missing \"name\"");
    if (!saw_tasks) sink.fail(&root, "tasks", "missing \"tasks\"");

    // Cross-cutting checks only meaningful once everything parsed.
    if (diags.size() == diags_before) {
        for (std::size_t i = 0; i < doc.tasks.size(); ++i) {
            const std::string tp = "tasks[" + std::to_string(i) + "]";
            const TaskSpec& task = doc.tasks[i];
            for (std::size_t j = i + 1; j < doc.tasks.size(); ++j) {
                if (task.prefix == doc.tasks[j].prefix) {
                    sink.fail(&root, "tasks[" + std::to_string(j) + "]",
                              "duplicate metric prefix \"" + task.prefix +
                                  "\" (metrics would collide)");
                }
            }
            if ((task.kind == TaskSpec::Kind::kNetlistRun ||
                 task.kind == TaskSpec::Kind::kHealthProbe) &&
                !doc.has_netlist) {
                sink.fail(&root, tp,
                          std::string(task_kind_name(task.kind)) +
                              " task needs a \"netlist\" section");
            }
            if (task.kind == TaskSpec::Kind::kBerSurface) {
                // Axes can move grid_dx and the jitter terms past the
                // model section's checks.
                const std::string why =
                    grid_fault(doc.model, task.axes, "grid point");
                if (!why.empty()) {
                    const obs::JsonValue* tasks = root.find("tasks");
                    const obs::JsonValue* axes =
                        tasks && i < tasks->items.size()
                            ? tasks->items[i].find("axes")
                            : nullptr;
                    sink.fail(axes ? axes : &root, tp + ".axes", why);
                }
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

std::string netlist_json(const NetlistSpec& net) {
    CanonicalObject insts;
    for (const ChannelSpec& c : net.channels) {
        insts.add(c.name, CanonicalObject()
                              .add(kChannelFields, c)
                              .add("kind", "\"channel\"")
                              .str());
    }
    for (const MonitorSpec& m : net.monitors) {
        insts.add(m.name, "{\"kind\":\"monitor\"}");
    }
    for (const SourceSpec& s : net.sources) {
        insts.add(s.name, CanonicalObject()
                              .add(kSourceFields, s)
                              .add("kind", "\"source\"")
                              .str());
    }
    std::string wires = "[";
    for (const WireSpec& w : net.wires) {
        if (wires.size() > 1) wires += ',';
        wires += CanonicalObject().add(kWireFields, w).str();
    }
    return CanonicalObject()
        .add("instances", insts.str())
        .add("wires", wires + "]")
        .str();
}

std::string task_json(const TaskSpec& t) {
    const TaskKind& k = task_kind(t.kind);
    CanonicalObject o;
    o.add(k.fields, t)
        .add("kind", json_string(k.name))
        .add("prefix", json_string(t.prefix));
    if (t.kind == TaskSpec::Kind::kBerSurface) {
        o.add("axes", axes_json(t.axes));
        if (t.has_jtol) {
            o.add("jtol", CanonicalObject().add(kJtolFields, t.jtol).str());
        }
    }
    return o.str();
}

}  // namespace

std::string resolved_json(const ScenarioDoc& doc) {
    std::string tasks = "[";
    for (const TaskSpec& t : doc.tasks) {
        if (tasks.size() > 1) tasks += ',';
        tasks += task_json(t);
    }
    CanonicalObject o;
    o.add("mc", CanonicalObject().add(kMcFields, doc.mc).str())
        .add("model", CanonicalObject().add(kModelFields, doc.model).str())
        .add("name", json_string(doc.name))
        .add("schema", json_string(kScenarioSchema))
        .add("tasks", tasks + "]")
        .add("title", json_string(doc.title));
    if (doc.has_netlist) o.add("netlist", netlist_json(doc.netlist));
    return o.str();
}

std::uint64_t scenario_hash(const ScenarioDoc& doc) {
    return util::fnv1a64(resolved_json(doc));
}

}  // namespace gcdr::scenario
