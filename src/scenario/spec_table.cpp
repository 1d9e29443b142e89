#include "scenario/spec_table.hpp"

#include <algorithm>
#include <cerrno>
#include <climits>
#include <cmath>
#include <cstdlib>

#include "obs/canonical.hpp"
#include "obs/json.hpp"
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

void DiagSink::fail(const obs::JsonValue* v, std::string path,
                    std::string msg) {
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

namespace {

/// An integral-valued number as sign and magnitude. Plain integer tokens
/// read exactly (uint64 seeds and counters past 2^53); other spellings
/// (6.0, 6e0) through the double when it is integral and below 2^53.
bool read_integral(const obs::JsonValue& v, bool& negative,
                   std::uint64_t& magnitude) {
    if (!v.is_number()) return false;
    const std::string& t = v.text;
    if (!t.empty() && t.find_first_of(".eE") == std::string::npos) {
        negative = t[0] == '-';
        errno = 0;
        char* end = nullptr;
        magnitude = std::strtoull(t.c_str() + (negative ? 1 : 0), &end, 10);
        return errno == 0 && *end == '\0';
    }
    if (!(std::fabs(v.number) < 0x1p53) ||
        std::nearbyint(v.number) != v.number) {
        return false;
    }
    negative = v.number < 0.0;
    magnitude = static_cast<std::uint64_t>(std::fabs(v.number));
    return true;
}

/// Bound on expanded sweep values: a generator that asks for more is a
/// config bug, not a workload.
constexpr std::size_t kMaxSweepValues = 10'000;

/// The body of a linspace/logspace ({from, to, points}) or steps ({from,
/// to, step}) generator.
struct Range {
    double from = 0.0, to = 0.0, step = 0.0;
    std::uint64_t points = 0;
};

constexpr Field<Range> kSpaceFields[] = {
    {"from", [](Range& r) -> Slot { return &r.from; }},
    {"points", [](Range& r) -> Slot { return &r.points; },
     [](double n) { return n >= 2.0 && n <= double(kMaxSweepValues); },
     "want an integer in [2, 10000]"},
    {"to", [](Range& r) -> Slot { return &r.to; }},
};

constexpr Field<Range> kStepsFields[] = {
    {"from", [](Range& r) -> Slot { return &r.from; }},
    {"step", [](Range& r) -> Slot { return &r.step; },
     [](double v) { return v > 0.0; }, "sweep step must be positive"},
    {"to", [](Range& r) -> Slot { return &r.to; }},
};

}  // namespace

bool read_slot(DiagSink& sink, const obs::JsonValue& v,
               const std::string& path, Slot slot, bool (*ok)(double),
               std::string_view bad,
               std::span<const std::string_view> choices) {
    const auto refuse = [&](std::string_view msg) {
        sink.fail(&v, path, std::string(msg));
        return false;
    };
    bool negative = false;
    std::uint64_t magnitude = 0;
    if (auto* d = std::get_if<double*>(&slot)) {
        if (!v.is_number() || !std::isfinite(v.number)) {
            return refuse("want a finite number");
        }
        if (ok && !ok(v.number)) return refuse(bad);
        **d = v.number;
    } else if (auto* u = std::get_if<std::uint64_t*>(&slot)) {
        if (!read_integral(v, negative, magnitude) ||
            (negative && magnitude != 0)) {
            return refuse("want a non-negative integer");
        }
        if (ok && !ok(static_cast<double>(magnitude))) return refuse(bad);
        **u = magnitude;
    } else if (auto* i = std::get_if<int*>(&slot)) {
        if (!read_integral(v, negative, magnitude) || magnitude > INT_MAX) {
            return refuse("want an integer");
        }
        const int n = static_cast<int>(magnitude) * (negative ? -1 : 1);
        if (ok && !ok(n)) return refuse(bad);
        **i = n;
    } else if (auto* b = std::get_if<bool*>(&slot)) {
        if (!v.is_bool()) return refuse("want true or false");
        **b = v.boolean;
    } else if (std::holds_alternative<std::string*>(slot) ||
               std::holds_alternative<statmodel::RunModel*>(slot)) {
        if (!v.is_string()) return refuse("want a string");
        const auto pick = std::find(choices.begin(), choices.end(), v.text);
        if (!choices.empty() && pick == choices.end()) return refuse(bad);
        if (auto* s = std::get_if<std::string*>(&slot)) {
            **s = v.text;
        } else {
            *std::get<statmodel::RunModel*>(slot) =
                static_cast<statmodel::RunModel>(pick - choices.begin());
        }
    } else if (auto* values = std::get_if<std::vector<double>*>(&slot)) {
        return read_values(sink, v, path, **values);
    } else {
        std::vector<int>& bits = *std::get<std::vector<int>*>(slot);
        if (!v.is_array() || (ok && !ok(static_cast<double>(v.items.size())))) {
            return refuse(bad);
        }
        std::vector<int> got;
        for (std::size_t k = 0; k < v.items.size(); ++k) {
            if (!read_integral(v.items[k], negative, magnitude) ||
                (negative && magnitude != 0) || magnitude > 1) {
                sink.fail(&v.items[k], path + "[" + std::to_string(k) + "]",
                          "pattern bits must be 0 or 1");
                return false;
            }
            got.push_back(static_cast<int>(magnitude));
        }
        bits = std::move(got);
    }
    return true;
}

namespace {

/// Append `text` JSON-escaped. Keys and names almost never need it, and
/// the scan is cheaper than escaping every byte on the daemon's hot path.
void append_escaped(std::string& out, std::string_view text) {
    const bool plain = std::none_of(text.begin(), text.end(), [](char c) {
        return c == '"' || c == '\\' || static_cast<unsigned char>(c) < 0x20;
    });
    if (plain) {
        out += text;
    } else {
        out += obs::JsonWriter::escape(text);
    }
}

}  // namespace

std::string json_string(std::string_view text) {
    std::string out = "\"";
    append_escaped(out, text);
    return out += '"';
}

std::string render_slot(Slot slot,
                        std::span<const std::string_view> choices) {
    if (auto* d = std::get_if<double*>(&slot)) {
        return obs::canonical_number(**d, {});
    }
    if (auto* u = std::get_if<std::uint64_t*>(&slot)) {
        return std::to_string(**u);
    }
    if (auto* i = std::get_if<int*>(&slot)) return std::to_string(**i);
    if (auto* b = std::get_if<bool*>(&slot)) return **b ? "true" : "false";
    if (auto* s = std::get_if<std::string*>(&slot)) return json_string(**s);
    if (auto* m = std::get_if<statmodel::RunModel*>(&slot)) {
        return json_string(choices[static_cast<std::size_t>(**m)]);
    }
    if (auto* values = std::get_if<std::vector<double>*>(&slot)) {
        return values_json(**values);
    }
    std::string out = "[";
    for (int bit : *std::get<std::vector<int>*>(slot)) {
        if (out.size() > 1) out += ',';
        out += bit ? '1' : '0';
    }
    return out + ']';
}

std::string values_json(const std::vector<double>& values) {
    std::string out = "[";
    for (double x : values) {
        if (out.size() > 1) out += ',';
        out += obs::canonical_number(x, {});
    }
    return out + ']';
}

bool read_values(DiagSink& sink, const obs::JsonValue& v,
                 const std::string& path, std::vector<double>& out) {
    if (v.is_array()) {
        if (v.items.empty()) {
            sink.fail(&v, path, "want at least one value");
            return false;
        }
        std::vector<double> got(v.items.size());
        for (std::size_t i = 0; i < v.items.size(); ++i) {
            const std::string ip = path + "[" + std::to_string(i) + "]";
            if (!read_slot(sink, v.items[i], ip, &got[i])) return false;
        }
        out = std::move(got);
        return true;
    }
    if (!v.is_object() || v.members.size() != 1) {
        sink.fail(&v, path,
                  "want an array of numbers or exactly one of "
                  "{\"values\"|\"linspace\"|\"logspace\"|\"steps\"}");
        return false;
    }
    const auto& [key, val] = v.members.front();
    return read_generator(sink, key, val, path + "." + key, out);
}

bool read_generator(DiagSink& sink, std::string_view key,
                    const obs::JsonValue& v, const std::string& path,
                    std::vector<double>& out) {
    if (key == "values") {
        if (!v.is_array()) {
            sink.fail(&v, path, "want an array of numbers");
            return false;
        }
        return read_values(sink, v, path, out);
    }
    if (key != "linspace" && key != "logspace" && key != "steps") {
        sink.fail(&v, path, "unknown key \"" + std::string(key) + "\"");
        return false;
    }
    const bool steps = key == "steps";
    const std::span<const Field<Range>> fields =
        steps ? std::span(kStepsFields) : std::span(kSpaceFields);
    Range r;
    const std::size_t before = sink.count();
    read_object(sink, v, path, fields, r);
    if (sink.count() != before) return false;
    for (const Field<Range>& f : fields) {
        if (!v.find(f.key)) {
            sink.fail(&v, path,
                      steps ? "want {\"from\", \"to\", \"step\"}"
                            : "want {\"from\", \"to\", \"points\"}");
            return false;
        }
    }
    if (steps) {
        if (r.to < r.from) {
            sink.fail(&v, path, "want from <= to");
            return false;
        }
        // Half-step tolerance on the upper end so from=0.1 to=0.5
        // step=0.1 yields five points despite binary rounding.
        const double n_exact = (r.to - r.from) / r.step;
        const std::size_t n =
            static_cast<std::size_t>(std::floor(n_exact + 0.5 * 1e-9)) + 1;
        if (n > kMaxSweepValues) {
            sink.fail(&v, path,
                      "steps generator yields " + std::to_string(n) +
                          " points, cap is " +
                          std::to_string(kMaxSweepValues));
            return false;
        }
        out.clear();
        for (std::size_t i = 0; i < n; ++i) {
            out.push_back(r.from + static_cast<double>(i) * r.step);
        }
        return true;
    }
    if (key == "logspace" && (r.from <= 0.0 || r.to <= 0.0)) {
        sink.fail(&v, path, "logspace endpoints must be positive");
        return false;
    }
    const auto n = static_cast<std::size_t>(r.points);
    out = key == "linspace" ? linspace(r.from, r.to, n)
                            : logspace(r.from, r.to, n);
    return true;
}

std::string CanonicalObject::str() {
    std::sort(members_.begin(), members_.end(),
              [](const auto& a, const auto& b) { return a.first < b.first; });
    std::size_t size = 2;
    for (const auto& [key, rendered] : members_) {
        size += key.size() + rendered.size() + 4;
    }
    std::string out;
    out.reserve(size);
    out += '{';
    for (const auto& [key, rendered] : members_) {
        if (out.size() > 1) out += ',';
        out += '"';
        append_escaped(out, key);
        out += "\":";
        out += rendered;
    }
    return out += '}';
}

}  // namespace gcdr::scenario
