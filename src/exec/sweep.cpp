#include "exec/sweep.hpp"

#include <cassert>
#include <utility>

namespace gcdr::exec {

std::uint64_t derive_seed(std::uint64_t base_seed, std::uint64_t index) {
    // splitmix64 finalizer (Steele, Lea & Flood / Stafford mix13), the
    // same mixer Xoshiro256 uses to expand its seed. Feeding it
    // base + (index+1)*golden gives well-separated streams even for
    // base_seed = 0 and consecutive indices.
    std::uint64_t z = base_seed + (index + 1) * 0x9E3779B97F4A7C15ull;
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    return z ^ (z >> 31);
}

SweepGrid::SweepGrid(std::vector<SweepAxis> axes) {
    for (SweepAxis& a : axes) axis(std::move(a.name), std::move(a.values));
}

SweepGrid& SweepGrid::axis(std::string name, std::vector<double> values) {
    assert(!values.empty() && "sweep axis needs at least one value");
    axes_.push_back(SweepAxis{std::move(name), std::move(values)});
    return *this;
}

std::size_t SweepGrid::size() const {
    if (axes_.empty()) return 0;
    std::size_t n = 1;
    for (const auto& a : axes_) n *= a.values.size();
    return n;
}

SweepPoint SweepGrid::point(std::size_t flat_index,
                            std::uint64_t base_seed) const {
    assert(flat_index < size());
    SweepPoint p;
    p.index = flat_index;
    p.seed = derive_seed(base_seed, flat_index);
    p.idx.resize(axes_.size());
    p.value.resize(axes_.size());
    // Row-major, first axis slowest: peel from the last (fastest) axis.
    std::size_t rem = flat_index;
    for (std::size_t a = axes_.size(); a-- > 0;) {
        const std::size_t n = axes_[a].values.size();
        p.idx[a] = rem % n;
        p.value[a] = axes_[a].values[p.idx[a]];
        rem /= n;
    }
    return p;
}

}  // namespace gcdr::exec
