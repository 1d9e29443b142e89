#include "sim/batch/lane_rng.hpp"

namespace gcdr::sim::batch {

NormalBank::NormalBank(std::size_t lanes) : lanes_(lanes) {
    for (std::size_t l = 0; l < lanes; ++l) seed_lane(l, 1);
}

void NormalBank::seed_lane(std::size_t lane, std::uint64_t seed) {
    seed_lane(lane, Xoshiro256(seed));
}

void NormalBank::seed_lane(std::size_t lane, const Xoshiro256& gen) {
    Stream& st = lanes_[lane];
    st.rng = Rng(gen);
    st.buf.clear();
    st.head = 0;
}

void NormalBank::refill(std::size_t lane, std::size_t want) {
    Stream& st = lanes_[lane];
    const std::size_t have = st.buf.size() - st.head;
    if (have >= want) return;
    // Drop the consumed prefix so append indices stay small.
    st.buf.erase(st.buf.begin(),
                 st.buf.begin() + static_cast<std::ptrdiff_t>(st.head));
    st.head = 0;
    st.buf.resize(want);
    st.rng.gaussians(st.buf.data() + have, want - have);
}

}  // namespace gcdr::sim::batch
