#include "util/rng.hpp"

#include <algorithm>
#include <cmath>
#include <numbers>

namespace gcdr {

namespace {
constexpr std::uint64_t rotl(std::uint64_t x, int k) {
    return (x << k) | (x >> (64 - k));
}

// Uniform in [0, 1): the top 53 bits of one output, scaled.
inline double unit(std::uint64_t r) {
    return static_cast<double>(r >> 11) * 0x1.0p-53;
}

// One polar Box-Muller candidate: a point of [-1, 1)^2 and its squared
// radius. It is accepted when 0 < s < 1.
struct Candidate {
    double u, v, s;
};

inline Candidate candidate(Xoshiro256& gen) {
    const double u = 2.0 * unit(gen()) - 1.0;
    const double v = 2.0 * unit(gen()) - 1.0;
    return {u, v, u * u + v * v};
}

inline bool accepted(double s) { return (s < 1.0) & (s != 0.0); }

// The polar transform of an accepted candidate, given log(s). Shared by
// gaussian() and gaussians(): besides libm's log, only the correctly
// rounded division, square root and products enter, so the two paths
// agree bit for bit however the block path schedules its log calls.
inline void polar_pair(const Candidate& c, double log_s, double& first,
                       double& second) {
    const double factor = std::sqrt(-2.0 * log_s / c.s);
    first = c.u * factor;
    second = c.v * factor;
}

// splitmix64: seeds the xoshiro state from a single 64-bit value.
std::uint64_t splitmix64(std::uint64_t& x) {
    std::uint64_t z = (x += 0x9E3779B97F4A7C15ull);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    return z ^ (z >> 31);
}
}  // namespace

Xoshiro256::Xoshiro256(std::uint64_t seed) {
    std::uint64_t x = seed;
    for (auto& s : s_) s = splitmix64(x);
    // All-zero state is invalid; splitmix64 of any seed cannot produce it,
    // but keep the guard for belt and braces.
    if ((s_[0] | s_[1] | s_[2] | s_[3]) == 0) s_[0] = 1;
}

Xoshiro256::result_type Xoshiro256::operator()() {
    const std::uint64_t result = rotl(s_[0] + s_[3], 23) + s_[0];
    const std::uint64_t t = s_[1] << 17;
    s_[2] ^= s_[0];
    s_[3] ^= s_[1];
    s_[1] ^= s_[2];
    s_[0] ^= s_[3];
    s_[2] ^= t;
    s_[3] = rotl(s_[3], 45);
    return result;
}

void Xoshiro256::long_jump() {
    static constexpr std::uint64_t kJump[] = {
        0x76e15d3efefdcbbfull, 0xc5004e441c522fb3ull,
        0x77710069854ee241ull, 0x39109bb02acbe635ull};
    std::uint64_t s0 = 0, s1 = 0, s2 = 0, s3 = 0;
    for (std::uint64_t jump : kJump) {
        for (int b = 0; b < 64; ++b) {
            if (jump & (std::uint64_t{1} << b)) {
                s0 ^= s_[0];
                s1 ^= s_[1];
                s2 ^= s_[2];
                s3 ^= s_[3];
            }
            (*this)();
        }
    }
    s_[0] = s0;
    s_[1] = s1;
    s_[2] = s2;
    s_[3] = s3;
}

double Rng::uniform() { return unit(gen_()); }

double Rng::uniform(double lo, double hi) {
    return lo + (hi - lo) * uniform();
}

double Rng::gaussian() {
    if (has_cached_) {
        has_cached_ = false;
        return cached_gaussian_;
    }
    Candidate c{};
    do {
        c = candidate(gen_);
    } while (!accepted(c.s));
    double first = 0.0;
    polar_pair(c, std::log(c.s), first, cached_gaussian_);
    has_cached_ = true;
    return first;
}

void Rng::gaussians(double* out, std::size_t n) {
    if (n == 0) return;
    if (has_cached_) {
        has_cached_ = false;
        *out++ = cached_gaussian_;
        --n;
    }
    constexpr std::size_t kBlockPairs = 128;
    Candidate c[kBlockPairs] = {};
    double log_s[kBlockPairs] = {};
    while (n > 0) {
        const std::size_t pairs = std::min(kBlockPairs, (n + 1) / 2);
        // Pass 1: candidates until `pairs` are accepted. Each one is
        // stored, and the slot index moves past it only if it was
        // accepted, so the rejection test feeds an add, not a jump.
        std::size_t kept = 0;
        while (kept < pairs) {
            c[kept] = candidate(gen_);
            kept += accepted(c[kept].s) ? 1 : 0;
        }
        // Pass 2: independent log calls, then the transform.
        for (std::size_t k = 0; k < pairs; ++k) log_s[k] = std::log(c[k].s);
        const std::size_t whole = std::min(pairs, n / 2);
        for (std::size_t k = 0; k < whole; ++k) {
            polar_pair(c[k], log_s[k], out[2 * k], out[2 * k + 1]);
        }
        out += 2 * whole;
        n -= 2 * whole;
        if (whole < pairs) {  // n was odd: the last pair's second deviate
            polar_pair(c[whole], log_s[whole], *out, cached_gaussian_);
            has_cached_ = true;
            n = 0;
        }
    }
}

double Rng::gaussian(double mean, double sigma) {
    return mean + sigma * gaussian();
}

double Rng::arcsine(double amp) {
    return amp * std::sin(2.0 * std::numbers::pi * uniform());
}

double Rng::dual_dirac(double delta) {
    return coin() ? delta : -delta;
}

std::uint64_t Rng::index(std::uint64_t n) {
    // Lemire's nearly-divisionless bounded integer.
    if (n == 0) return 0;
    unsigned __int128 m = static_cast<unsigned __int128>(gen_()) * n;
    return static_cast<std::uint64_t>(m >> 64);
}

bool Rng::coin() {
    return (gen_() >> 63) != 0;
}

}  // namespace gcdr
