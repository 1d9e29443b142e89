#pragma once
// One declaration per spec key. Every section of a scenario document
// (model, mc, netlist source/channel/wire, each task kind) and the
// envelope of a daemon job (serve/protocol.cpp) is a constant table of
// Field rows. The loader reads a section by looking each JSON member up
// in its table; resolved_json emits the section by walking the same
// table. A row gives:
//
//   key      the JSON member name
//   at       where the value lives in the section struct; the pointer
//            type picks the reader:
//              double            a finite number
//              uint64 / int      an integer: any integral-valued number,
//                                so 6, 6.0 and 6e0 read alike (plain
//                                integer tokens stay exact past 2^53);
//                                uint64 rows refuse negatives
//              bool              true or false
//              string            a string; with `choices`, one of them
//              RunModel          one of `choices`, stored by index
//              vector<double>    sweep values: a literal list or a
//                                generator (read_values below)
//              vector<int>       a 0/1 bit pattern
//   ok, bad  the numbers a real/count row accepts (nullptr: any) and
//            the message for one it refuses; a bit-pattern row applies
//            `ok` to its length
//   choices  the strings an enum row accepts
//   emit     whether the canonical form carries the member (nullptr:
//            always)
//
// Checks that span several keys stay hand-written next to the tables:
// netlist wiring and connectivity, pattern vs bits/prbs, unique task
// prefixes and the per-grid-point model check.

#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>
#include <variant>
#include <vector>

#include "obs/json_parse.hpp"
#include "statmodel/gated_osc_model.hpp"

namespace gcdr::scenario {

/// One validation (or parse) failure, pointing as precisely as the
/// source allows: document path always, file and line/column when the
/// loader had the source text.
struct Diagnostic {
    std::string file;     ///< as given to the loader; may be empty
    std::string path;     ///< document path, e.g. "tasks[1].axes[0].step"
    std::size_t line = 0; ///< 1-based; 0 = unknown
    std::size_t column = 0;
    std::string message;

    /// "file:line:col: at <path>: message" with unknown parts omitted.
    [[nodiscard]] std::string render() const;
};

/// Collects the diagnostics of one load. fail() records the value's
/// line/column when the source text is at hand and returns, so a bad
/// document reports every problem one pass can see.
struct DiagSink {
    std::string_view source;
    std::string_view file;
    std::vector<Diagnostic>* diags;

    void fail(const obs::JsonValue* v, std::string path, std::string msg);
    [[nodiscard]] std::size_t count() const { return diags->size(); }
};

using Slot = std::variant<double*, std::uint64_t*, int*, bool*, std::string*,
                          statmodel::RunModel*, std::vector<double>*,
                          std::vector<int>*>;

template <class T>
struct Field {
    std::string_view key;
    Slot (*at)(T&);
    bool (*ok)(double) = nullptr;
    std::string_view bad = {};
    std::span<const std::string_view> choices = {};
    bool (*emit)(const T&) = nullptr;
};

/// Read `v` into `slot` under a row's rules. False (after a diagnostic
/// at `path`) when the value is refused; the slot is then unchanged.
bool read_slot(DiagSink& sink, const obs::JsonValue& v,
               const std::string& path, Slot slot,
               bool (*ok)(double) = nullptr, std::string_view bad = {},
               std::span<const std::string_view> choices = {});

/// Canonical JSON array of sweep values.
[[nodiscard]] std::string values_json(const std::vector<double>& values);

/// The canonical JSON rendering of a slot's value.
[[nodiscard]] std::string render_slot(
    Slot slot, std::span<const std::string_view> choices);

/// Expand a sweep values spec, a literal array or one of
/// {"values"|"linspace"|"logspace"|"steps": ...}, to an explicit list.
/// Generators call util::linspace/logspace, so the doubles are the ones a
/// C++ caller of those helpers gets.
bool read_values(DiagSink& sink, const obs::JsonValue& v,
                 const std::string& path, std::vector<double>& out);

/// One generator member `key: v` of a values spec ("values", "linspace",
/// "logspace" or "steps"); false after a diagnostic, also for any other
/// key.
bool read_generator(DiagSink& sink, std::string_view key,
                    const obs::JsonValue& v, const std::string& path,
                    std::vector<double>& out);

/// Read member `key` through the row that names it. Returns false when no
/// row does, so the caller can report the key as unknown.
template <class T>
bool read_field(DiagSink& sink,
                std::span<const Field<std::type_identity_t<T>>> fields,
                std::string_view key, const obs::JsonValue& v,
                const std::string& path, T& out) {
    for (const Field<T>& f : fields) {
        if (f.key == key) {
            (void)read_slot(sink, v, path, f.at(out), f.ok, f.bad,
                            f.choices);
            return true;
        }
    }
    return false;
}

/// Read every member of object `v` through `fields`. `skip` names one
/// member the caller reads itself (an instance's "kind"); any other
/// member no row names is an unknown-key error.
template <class T>
void read_object(DiagSink& sink, const obs::JsonValue& v,
                 const std::string& path,
                 std::span<const Field<std::type_identity_t<T>>> fields,
                 T& out, std::string_view skip = {}) {
    if (!v.is_object()) {
        sink.fail(&v, path, "want an object");
        return;
    }
    for (const auto& [key, val] : v.members) {
        if (key == skip) continue;
        const std::string kp = path + "." + key;
        if (!read_field(sink, fields, key, val, kp, out)) {
            sink.fail(&val, kp, "unknown key \"" + key + "\"");
        }
    }
}

/// "\"<escaped text>\"".
[[nodiscard]] std::string json_string(std::string_view text);

/// Members of one canonical JSON object: str() sorts them bytewise by
/// key, so a section emits correctly whatever order its rows and extra
/// members were added in. Keys are views and must outlive the object, as
/// table keys, literals and the names held by the emitted struct do.
class CanonicalObject {
public:
    CanonicalObject& add(std::string_view key, std::string rendered) {
        members_.emplace_back(key, std::move(rendered));
        return *this;
    }

    /// Every row of `fields` whose emit rule holds for `in`.
    template <class T>
    CanonicalObject& add(std::span<const Field<std::type_identity_t<T>>> fields,
                         const T& in) {
        members_.reserve(members_.size() + fields.size());
        for (const Field<T>& f : fields) {
            if (f.emit && !f.emit(in)) continue;
            // Accessors take a mutable section; rendering only reads it.
            add(f.key, render_slot(f.at(const_cast<T&>(in)), f.choices));
        }
        return *this;
    }

    [[nodiscard]] std::string str();

private:
    std::vector<std::pair<std::string_view, std::string>> members_;
};

}  // namespace gcdr::scenario
