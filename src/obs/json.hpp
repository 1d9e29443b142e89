#pragma once
// Minimal streaming JSON writer: structural correctness by construction
// (comma placement, nesting) with pretty-printed output so committed
// BENCH_*.json baselines diff cleanly. No external dependency — the
// repo's telemetry must not pull one in.

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace gcdr::obs {

class JsonWriter {
public:
    /// Pass as `indent` for single-line output (JSONL records, cache
    /// lines): no newlines or indentation are emitted at all.
    static constexpr int kCompact = -1;

    explicit JsonWriter(int indent = 2) : indent_(indent) {}

    JsonWriter& begin_object();
    JsonWriter& end_object();
    JsonWriter& begin_array();
    JsonWriter& end_array();

    /// Key of the next value; must be inside an object.
    JsonWriter& key(std::string_view k);

    JsonWriter& value(std::string_view s);
    JsonWriter& value(const char* s) { return value(std::string_view(s)); }
    JsonWriter& value(double d);  ///< non-finite values emit null
    JsonWriter& value(std::uint64_t u);
    JsonWriter& value(std::int64_t i);
    JsonWriter& value(int i) { return value(static_cast<std::int64_t>(i)); }
    JsonWriter& value(unsigned u) {
        return value(static_cast<std::uint64_t>(u));
    }
    JsonWriter& value(bool b);
    JsonWriter& null_value();

    /// The document so far. Complete once every container is closed.
    [[nodiscard]] const std::string& str() const { return out_; }
    [[nodiscard]] bool complete() const { return stack_.empty() && !out_.empty(); }

    /// JSON string escaping (shared with tests / CSV quoting callers).
    [[nodiscard]] static std::string escape(std::string_view s);

private:
    struct Level {
        char kind;       // '{' or '['
        bool has_items;  // emitted at least one child
    };
    void pre_value();  // comma/newline/indent before a value or key
    void newline_indent();

    std::string out_;
    std::vector<Level> stack_;
    bool key_pending_ = false;
    int indent_;
};

}  // namespace gcdr::obs
