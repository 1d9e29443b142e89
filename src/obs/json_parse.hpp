#pragma once
// Minimal recursive-descent JSON parser — the read side of obs/json.hpp.
// Consumers: the serving daemon's request decoding and cache reload, and
// the scenario loader. Scope
// is deliberately small: full JSON values (RFC 8259), UTF-8 passed
// through verbatim, \uXXXX escapes decoded (surrogate pairs included),
// objects preserve key order and keep duplicate keys (find() returns the
// first). No external dependency, same as the writer.

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace gcdr::obs {

/// A parsed JSON document node. Numbers are stored as double (the repo's
/// reports only contain doubles and counters well below 2^53) with the
/// original token kept for exact uint64 reads.
class JsonValue {
public:
    enum class Type { kNull, kBool, kNumber, kString, kArray, kObject };

    using Member = std::pair<std::string, JsonValue>;

    Type type = Type::kNull;
    bool boolean = false;
    double number = 0.0;
    std::string text;  ///< kString: the decoded string; kNumber: the token
    std::vector<JsonValue> items;   ///< kArray
    std::vector<Member> members;    ///< kObject, in document order
    /// Byte offset of this value's first token character in the source
    /// text. Consumers that keep the source around (the scenario loader)
    /// can map it to a line/column via line_column() for diagnostics
    /// about *semantically* bad values long after the parse succeeded.
    std::size_t offset = 0;

    [[nodiscard]] bool is_null() const { return type == Type::kNull; }
    [[nodiscard]] bool is_object() const { return type == Type::kObject; }
    [[nodiscard]] bool is_array() const { return type == Type::kArray; }
    [[nodiscard]] bool is_number() const { return type == Type::kNumber; }
    [[nodiscard]] bool is_string() const { return type == Type::kString; }
    [[nodiscard]] bool is_bool() const { return type == Type::kBool; }

    /// First member with this key, or nullptr (also for non-objects).
    [[nodiscard]] const JsonValue* find(std::string_view key) const;

    /// Convenience typed reads with fallback defaults.
    [[nodiscard]] double number_or(double fallback) const {
        return is_number() ? number : fallback;
    }
    [[nodiscard]] std::string string_or(std::string fallback) const {
        return is_string() ? text : std::move(fallback);
    }
    /// Exact unsigned read from the original token (no double rounding);
    /// falls back for non-numbers and negative/fractional tokens.
    [[nodiscard]] std::uint64_t uint_or(std::uint64_t fallback) const;
};

/// Parse one complete JSON document. Returns false on any syntax error
/// (trailing garbage included) and, when `error` is non-null, stores a
/// one-line description with the byte offset followed by the 1-based
/// line/column, e.g. "bad number at byte 17 (line 2, column 5)". The
/// "<what> at byte N" prefix is stable; match on it, not the suffix.
[[nodiscard]] bool json_parse(std::string_view input, JsonValue& out,
                              std::string* error = nullptr);

/// 1-based line/column of a byte offset in `text` (newline = '\n';
/// offsets past the end clamp to the final position). The reverse map
/// for JsonValue::offset.
struct LineColumn {
    std::size_t line = 1;
    std::size_t column = 1;
};
[[nodiscard]] LineColumn line_column(std::string_view text,
                                     std::size_t offset);

}  // namespace gcdr::obs
