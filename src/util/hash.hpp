#pragma once
// Stable, dependency-free content hashing shared by every subsystem that
// keys state on bytes: the serving layer (serve/cache) keys memoized
// results by fnv1a64(canonical config JSON), and scenarios record the
// same hash of their canonical form. FNV-1a is deliberately simple — the
// offset basis and prime are part of the on-disk format, so the
// constants here must never change (cache segments would silently stop
// matching).

#include <cstdint>
#include <cstdio>
#include <string>
#include <string_view>

namespace gcdr::util {

inline constexpr std::uint64_t kFnv1a64OffsetBasis = 0xcbf29ce484222325ull;
inline constexpr std::uint64_t kFnv1a64Prime = 0x100000001b3ull;

/// FNV-1a 64-bit over a byte string. Stable across platforms and repo
/// versions: plain unsigned 64-bit arithmetic, bytes consumed in order.
[[nodiscard]] constexpr std::uint64_t fnv1a64(
    std::string_view text, std::uint64_t h = kFnv1a64OffsetBasis) {
    for (unsigned char c : text) {
        h ^= c;
        h *= kFnv1a64Prime;
    }
    return h;
}

/// Continue an FNV-1a stream with one 64-bit value (little-endian byte
/// order, explicitly — so composite keys hash identically on every
/// platform). Used to fold (config_hash, seed, model_hash) into one
/// cache-shard index.
[[nodiscard]] constexpr std::uint64_t fnv1a64_u64(std::uint64_t value,
                                                  std::uint64_t h) {
    for (int i = 0; i < 8; ++i) {
        h ^= (value >> (8 * i)) & 0xffu;
        h *= kFnv1a64Prime;
    }
    return h;
}

/// Canonical 16-digit lowercase hex rendering of a 64-bit hash — the
/// form every persistent record stores ("config_hash":"9ae16a3b2f90404f").
[[nodiscard]] inline std::string hash_hex(std::uint64_t h) {
    char buf[17];
    std::snprintf(buf, sizeof buf, "%016llx",
                  static_cast<unsigned long long>(h));
    return buf;
}

/// Parse the canonical hex form back to the hash value. Returns false on
/// anything but exactly 16 hex digits.
[[nodiscard]] inline bool parse_hash_hex(std::string_view hex,
                                         std::uint64_t& out) {
    if (hex.size() != 16) return false;
    std::uint64_t v = 0;
    for (char c : hex) {
        v <<= 4;
        if (c >= '0' && c <= '9') {
            v |= static_cast<std::uint64_t>(c - '0');
        } else if (c >= 'a' && c <= 'f') {
            v |= static_cast<std::uint64_t>(c - 'a' + 10);
        } else {
            return false;
        }
    }
    out = v;
    return true;
}

}  // namespace gcdr::util
