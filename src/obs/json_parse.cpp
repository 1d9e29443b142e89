#include "obs/json_parse.hpp"

#include <cctype>
#include <cerrno>
#include <cstdlib>

namespace gcdr::obs {

const JsonValue* JsonValue::find(std::string_view key) const {
    if (type != Type::kObject) return nullptr;
    for (const Member& m : members) {
        if (m.first == key) return &m.second;
    }
    return nullptr;
}

std::uint64_t JsonValue::uint_or(std::uint64_t fallback) const {
    if (type != Type::kNumber || text.empty()) return fallback;
    if (text.find_first_of(".eE-") != std::string::npos) return fallback;
    errno = 0;
    char* end = nullptr;
    const unsigned long long v = std::strtoull(text.c_str(), &end, 10);
    if (errno != 0 || end == text.c_str() || *end != '\0') return fallback;
    return static_cast<std::uint64_t>(v);
}

namespace {

class Parser {
public:
    Parser(std::string_view in, std::string* error)
        : in_(in), error_(error) {}

    bool parse_document(JsonValue& out) {
        skip_ws();
        if (!parse_value(out)) return false;
        skip_ws();
        if (pos_ != in_.size()) return fail("trailing characters");
        return true;
    }

private:
    bool fail(const char* what) {
        if (error_ && error_->empty()) {
            // The "<what> at byte N" prefix is load-bearing (tests and
            // scenario diagnostics match on it); line/column ride behind
            // in parentheses for humans staring at a config file.
            const LineColumn lc = line_column(in_, pos_);
            *error_ = std::string(what) + " at byte " + std::to_string(pos_) +
                      " (line " + std::to_string(lc.line) + ", column " +
                      std::to_string(lc.column) + ")";
        }
        return false;
    }

    void skip_ws() {
        while (pos_ < in_.size()) {
            const char c = in_[pos_];
            if (c == ' ' || c == '\t' || c == '\n' || c == '\r') ++pos_;
            else break;
        }
    }

    [[nodiscard]] bool at_end() const { return pos_ >= in_.size(); }
    [[nodiscard]] char peek() const { return in_[pos_]; }

    bool consume_literal(std::string_view lit) {
        if (in_.substr(pos_, lit.size()) != lit) {
            return fail("invalid literal");
        }
        pos_ += lit.size();
        return true;
    }

    static void append_utf8(std::string& out, std::uint32_t cp) {
        if (cp < 0x80) {
            out += static_cast<char>(cp);
        } else if (cp < 0x800) {
            out += static_cast<char>(0xC0 | (cp >> 6));
            out += static_cast<char>(0x80 | (cp & 0x3F));
        } else if (cp < 0x10000) {
            out += static_cast<char>(0xE0 | (cp >> 12));
            out += static_cast<char>(0x80 | ((cp >> 6) & 0x3F));
            out += static_cast<char>(0x80 | (cp & 0x3F));
        } else {
            out += static_cast<char>(0xF0 | (cp >> 18));
            out += static_cast<char>(0x80 | ((cp >> 12) & 0x3F));
            out += static_cast<char>(0x80 | ((cp >> 6) & 0x3F));
            out += static_cast<char>(0x80 | (cp & 0x3F));
        }
    }

    bool parse_hex4(std::uint32_t& out) {
        if (pos_ + 4 > in_.size()) return fail("truncated \\u escape");
        std::uint32_t v = 0;
        for (int k = 0; k < 4; ++k) {
            const char c = in_[pos_ + static_cast<std::size_t>(k)];
            v <<= 4;
            if (c >= '0' && c <= '9') v |= static_cast<std::uint32_t>(c - '0');
            else if (c >= 'a' && c <= 'f') v |= static_cast<std::uint32_t>(c - 'a' + 10);
            else if (c >= 'A' && c <= 'F') v |= static_cast<std::uint32_t>(c - 'A' + 10);
            else return fail("bad \\u escape digit");
        }
        pos_ += 4;
        out = v;
        return true;
    }

    bool parse_string(std::string& out) {
        ++pos_;  // opening quote
        out.clear();
        while (true) {
            // Copy the run of plain characters up to the next quote,
            // backslash or control character in one append.
            const std::size_t run = pos_;
            while (!at_end() && peek() != '"' && peek() != '\\' &&
                   static_cast<unsigned char>(peek()) >= 0x20) {
                ++pos_;
            }
            out.append(in_, run, pos_ - run);
            if (at_end()) return fail("unterminated string");
            const char c = in_[pos_++];
            if (c == '"') return true;
            if (c != '\\') return fail("raw control character in string");
            if (at_end()) return fail("unterminated escape");
            const char e = in_[pos_++];
            switch (e) {
                case '"': out += '"'; break;
                case '\\': out += '\\'; break;
                case '/': out += '/'; break;
                case 'b': out += '\b'; break;
                case 'f': out += '\f'; break;
                case 'n': out += '\n'; break;
                case 'r': out += '\r'; break;
                case 't': out += '\t'; break;
                case 'u': {
                    std::uint32_t cp = 0;
                    if (!parse_hex4(cp)) return false;
                    if (cp >= 0xD800 && cp <= 0xDBFF) {
                        // High surrogate: must pair with \uDC00..\uDFFF.
                        if (in_.substr(pos_, 2) != "\\u") {
                            return fail("lone high surrogate");
                        }
                        pos_ += 2;
                        std::uint32_t lo = 0;
                        if (!parse_hex4(lo)) return false;
                        if (lo < 0xDC00 || lo > 0xDFFF) {
                            return fail("bad low surrogate");
                        }
                        cp = 0x10000 + ((cp - 0xD800) << 10) + (lo - 0xDC00);
                    } else if (cp >= 0xDC00 && cp <= 0xDFFF) {
                        return fail("lone low surrogate");
                    }
                    append_utf8(out, cp);
                    break;
                }
                default: return fail("unknown escape");
            }
        }
    }

    bool parse_number(JsonValue& out) {
        const std::size_t start = pos_;
        if (!at_end() && peek() == '-') ++pos_;
        if (at_end() || !std::isdigit(static_cast<unsigned char>(peek()))) {
            return fail("bad number");
        }
        while (!at_end() && std::isdigit(static_cast<unsigned char>(peek()))) ++pos_;
        if (!at_end() && peek() == '.') {
            ++pos_;
            if (at_end() || !std::isdigit(static_cast<unsigned char>(peek()))) {
                return fail("bad fraction");
            }
            while (!at_end() && std::isdigit(static_cast<unsigned char>(peek()))) ++pos_;
        }
        if (!at_end() && (peek() == 'e' || peek() == 'E')) {
            ++pos_;
            if (!at_end() && (peek() == '+' || peek() == '-')) ++pos_;
            if (at_end() || !std::isdigit(static_cast<unsigned char>(peek()))) {
                return fail("bad exponent");
            }
            while (!at_end() && std::isdigit(static_cast<unsigned char>(peek()))) ++pos_;
        }
        out.type = JsonValue::Type::kNumber;
        out.text = std::string(in_.substr(start, pos_ - start));
        out.number = std::strtod(out.text.c_str(), nullptr);
        return true;
    }

    bool parse_member(JsonValue::Member& m) {
        if (!parse_string(m.first)) return false;
        skip_ws();
        if (at_end() || peek() != ':') return fail("expected ':'");
        ++pos_;
        return parse_value(m.second);
    }

    bool parse_value(JsonValue& out) {
        if (++depth_ > kMaxDepth) return fail("nesting too deep");
        const bool ok = parse_value_inner(out);
        --depth_;
        return ok;
    }

    bool parse_value_inner(JsonValue& out) {
        skip_ws();
        if (at_end()) return fail("unexpected end of input");
        out.offset = pos_;
        const char c = peek();
        switch (c) {
            case '{': {
                ++pos_;
                out.type = JsonValue::Type::kObject;
                skip_ws();
                if (!at_end() && peek() == '}') { ++pos_; return true; }
                while (true) {
                    skip_ws();
                    if (at_end() || peek() != '"') {
                        return fail("expected object key");
                    }
                    // Parsed in place; a member that fails is dropped, so
                    // a failed parse leaves only completed members.
                    if (!parse_member(out.members.emplace_back())) {
                        out.members.pop_back();
                        return false;
                    }
                    skip_ws();
                    if (at_end()) return fail("unterminated object");
                    if (peek() == ',') { ++pos_; continue; }
                    if (peek() == '}') { ++pos_; return true; }
                    return fail("expected ',' or '}'");
                }
            }
            case '[': {
                ++pos_;
                out.type = JsonValue::Type::kArray;
                skip_ws();
                if (!at_end() && peek() == ']') { ++pos_; return true; }
                while (true) {
                    if (!parse_value(out.items.emplace_back())) {
                        out.items.pop_back();
                        return false;
                    }
                    skip_ws();
                    if (at_end()) return fail("unterminated array");
                    if (peek() == ',') { ++pos_; continue; }
                    if (peek() == ']') { ++pos_; return true; }
                    return fail("expected ',' or ']'");
                }
            }
            case '"':
                out.type = JsonValue::Type::kString;
                return parse_string(out.text);
            case 't':
                out.type = JsonValue::Type::kBool;
                out.boolean = true;
                return consume_literal("true");
            case 'f':
                out.type = JsonValue::Type::kBool;
                out.boolean = false;
                return consume_literal("false");
            case 'n':
                out.type = JsonValue::Type::kNull;
                return consume_literal("null");
            default:
                return parse_number(out);
        }
    }

    static constexpr int kMaxDepth = 128;

    std::string_view in_;
    std::string* error_;
    std::size_t pos_ = 0;
    int depth_ = 0;
};

}  // namespace

bool json_parse(std::string_view input, JsonValue& out, std::string* error) {
    if (error) error->clear();
    out = JsonValue{};
    Parser p(input, error);
    return p.parse_document(out);
}

LineColumn line_column(std::string_view text, std::size_t offset) {
    if (offset > text.size()) offset = text.size();
    LineColumn lc;
    for (std::size_t i = 0; i < offset; ++i) {
        if (text[i] == '\n') {
            ++lc.line;
            lc.column = 1;
        } else {
            ++lc.column;
        }
    }
    return lc;
}

}  // namespace gcdr::obs
