#pragma once
// std::vector whose storage starts on a cache line and spans whole lines.
//
// The batched kernel runs each lane on whichever pool thread picked it
// up, and lanes write their small per-wire vectors on every event. With
// plain std::allocator those blocks are packed back to back, so two
// lanes' hot vectors can share a 64-byte line and every write on one
// thread invalidates the other's copy. A LineVector never shares a line
// with any other allocation.

#include <cstddef>
#include <new>
#include <vector>

namespace gcdr::sim::batch {

inline constexpr std::size_t kCacheLine = 64;

template <class T>
struct LineAllocator {
    using value_type = T;

    LineAllocator() = default;
    template <class U>
    LineAllocator(const LineAllocator<U>&) noexcept {}

    [[nodiscard]] T* allocate(std::size_t n) {
        const std::size_t bytes =
            (n * sizeof(T) + kCacheLine - 1) / kCacheLine * kCacheLine;
        return static_cast<T*>(
            ::operator new(bytes, std::align_val_t{kCacheLine}));
    }
    void deallocate(T* p, std::size_t) noexcept {
        ::operator delete(p, std::align_val_t{kCacheLine});
    }

    template <class U>
    bool operator==(const LineAllocator<U>&) const noexcept {
        return true;
    }
};

template <class T>
using LineVector = std::vector<T, LineAllocator<T>>;

}  // namespace gcdr::sim::batch
