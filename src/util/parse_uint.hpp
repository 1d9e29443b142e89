#pragma once
// Strict unsigned integers for command-line values: the benches'
// --threads/--seed family and gcdr_served's --port/--workers family all
// read their numbers through parse_uint, so "foo", "-1", "8x", " 8" and
// values past the flag's range are refused instead of read as 0 or
// wrapped.

#include <charconv>
#include <cstdint>
#include <limits>
#include <optional>
#include <string_view>

namespace gcdr::util {

/// Largest thread or worker count a command-line flag may ask for: well
/// above any host's core count, well below the thread count that
/// exhausts a process. A flag value above it is refused before any
/// thread exists.
inline constexpr std::uint64_t kMaxThreadCount = 1024;

/// `text` as a decimal integer in [0, max]: ASCII digits only (no sign,
/// space, prefix or suffix) and no overflow. nullopt otherwise.
[[nodiscard]] inline std::optional<std::uint64_t> parse_uint(
    std::string_view text,
    std::uint64_t max = std::numeric_limits<std::uint64_t>::max()) {
    if (text.empty()) return std::nullopt;
    std::uint64_t value = 0;
    const char* const end = text.data() + text.size();
    const auto [stop, ec] = std::from_chars(text.data(), end, value);
    if (ec != std::errc{} || stop != end || value > max) return std::nullopt;
    return value;
}

}  // namespace gcdr::util
