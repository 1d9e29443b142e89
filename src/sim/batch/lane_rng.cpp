#include "sim/batch/lane_rng.hpp"

#include <cmath>

namespace gcdr::sim::batch {

namespace {

constexpr std::uint64_t rotl(std::uint64_t x, int k) {
    return (x << k) | (x >> (64 - k));
}

// One xoshiro256++ step (Blackman & Vigna), matching Xoshiro256::operator()
// but on registers, so the refill loop never touches memory for state.
inline std::uint64_t xoshiro_next(std::uint64_t& s0, std::uint64_t& s1,
                                  std::uint64_t& s2, std::uint64_t& s3) {
    const std::uint64_t result = rotl(s0 + s3, 23) + s0;
    const std::uint64_t t = s1 << 17;
    s2 ^= s0;
    s3 ^= s1;
    s1 ^= s2;
    s0 ^= s3;
    s2 ^= t;
    s3 = rotl(s3, 45);
    return result;
}

// Rng::uniform(): top 53 bits scaled to [0, 1).
inline double to_unit(std::uint64_t r) {
    return static_cast<double>(r >> 11) * 0x1.0p-53;
}

}  // namespace

NormalBank::NormalBank(std::size_t lanes) : lanes_(lanes) {
    for (std::size_t l = 0; l < lanes; ++l) seed_lane(l, 1);
}

void NormalBank::seed_lane(std::size_t lane, std::uint64_t seed) {
    seed_lane(lane, Xoshiro256(seed));
}

void NormalBank::seed_lane(std::size_t lane, const Xoshiro256& gen) {
    Stream& st = lanes_[lane];
    const auto s = gen.state();
    for (int i = 0; i < 4; ++i) st.s[i] = s[static_cast<std::size_t>(i)];
    st.buf.clear();
    st.head = 0;
}

void NormalBank::refill(std::size_t lane, std::size_t want) {
    Stream& st = lanes_[lane];
    if (st.buf.size() - st.head >= want) return;
    // Drop the consumed prefix so append indices stay small.
    st.buf.erase(st.buf.begin(),
                 st.buf.begin() + static_cast<std::ptrdiff_t>(st.head));
    st.head = 0;
    st.buf.reserve(want + 1);
    std::uint64_t s0 = st.s[0], s1 = st.s[1], s2 = st.s[2], s3 = st.s[3];
    while (st.buf.size() < want) {
        // Polar Box-Muller, the exact Rng::gaussian() recurrence; the
        // accepted pair enters the FIFO in consumption order (u*factor is
        // what gaussian() returns, v*factor is its cached second deviate).
        double u, v, s;
        do {
            u = 2.0 * to_unit(xoshiro_next(s0, s1, s2, s3)) - 1.0;
            v = 2.0 * to_unit(xoshiro_next(s0, s1, s2, s3)) - 1.0;
            s = u * u + v * v;
        } while (s >= 1.0 || s == 0.0);
        const double factor = std::sqrt(-2.0 * std::log(s) / s);
        st.buf.push_back(u * factor);
        st.buf.push_back(v * factor);
    }
    st.s[0] = s0;
    st.s[1] = s1;
    st.s[2] = s2;
    st.s[3] = s3;
}

}  // namespace gcdr::sim::batch
