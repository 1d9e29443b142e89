#pragma once
// Per-lane normal streams feeding the batched channel kernel's jitter
// draws.
//
// Contract: for a lane seeded with S, the sequence popped by next(lane)
// is bit-identical to the sequence util::Rng(S).gaussian() would return —
// including the polar Box-Muller pair order (u*factor first, then the
// cached v*factor). It is the same generator: each lane owns a util::Rng
// and refills through Rng::gaussians(), the repository's one block
// normal generator, so the scalar event path (one gaussian() per gate
// evaluation) and the batch path (chunks ahead of each slice) share
// every line of the arithmetic. Because generation within a lane is
// strictly sequential and consumption is FIFO, chunking changes nothing
// about the values.
//
// Each lane's generator state and FIFO live on cache lines of their own,
// and refill(lane) touches nothing but that lane, so the kernel's pool
// threads refill the lanes they run concurrently, without sharing a line
// and without a serial refill pass between slices. next() falls back to
// the same refill, a chunk at a time, when a lane drains mid-slice.

#include <cstddef>
#include <cstdint>
#include <vector>

#include "sim/batch/line_vector.hpp"
#include "util/rng.hpp"

namespace gcdr::sim::batch {

class NormalBank {
public:
    explicit NormalBank(std::size_t lanes);

    /// Re-seed one lane, discarding its buffered normals: the lane then
    /// yields what util::Rng(seed).gaussian() would.
    void seed_lane(std::size_t lane, std::uint64_t seed);
    /// Re-seed one lane from a generator state: the lane then yields what
    /// util::Rng(gen).gaussian() would (e.g. a long_jump()-separated
    /// channel stream).
    void seed_lane(std::size_t lane, const Xoshiro256& gen);

    [[nodiscard]] std::size_t lanes() const { return lanes_.size(); }

    /// Pop the next normal for `lane`; refills a chunk on underflow.
    double next(std::size_t lane) {
        Stream& st = lanes_[lane];
        if (st.head == st.buf.size()) refill(lane, kChunk);
        return st.buf[st.head++];
    }

    /// Buffer at least `want` normals for `lane`.
    void refill(std::size_t lane, std::size_t want);

    // Raw window access for a consumer that pops many normals in a tight
    // loop (the lane kernel): read [head(), size()) from data(), then
    // set_head() with the new position before anything else touches the
    // lane. The window is invalidated by next()/refill()/seed_lane().
    [[nodiscard]] const double* data(std::size_t lane) const {
        return lanes_[lane].buf.data();
    }
    [[nodiscard]] std::size_t head(std::size_t lane) const {
        return lanes_[lane].head;
    }
    [[nodiscard]] std::size_t size(std::size_t lane) const {
        return lanes_[lane].buf.size();
    }
    void set_head(std::size_t lane, std::size_t head) {
        lanes_[lane].head = head;
    }

private:
    struct alignas(kCacheLine) Stream {
        Rng rng;
        std::size_t head = 0;
        LineVector<double> buf;
    };
    static constexpr std::size_t kChunk = 64;

    std::vector<Stream> lanes_;
};

}  // namespace gcdr::sim::batch
