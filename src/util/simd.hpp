#pragma once
// The target's vector width: simd::width_doubles() is the width of
// std::experimental::native_simd<double> where <experimental/simd>
// exists, else 2 (one SSE2 register, the x86-64 baseline).
//
// Consumers:
//  - util/fft.cpp's direct convolution instantiates its register-blocked
//    kernel at this width, plus an AVX2 copy on SSE-only x86 builds.
//    Every copy keeps the naive loop's summation order and never fuses a
//    multiply-add, so all of them are bit-identical to it.
//  - sim/batch reports the width as its `simd_width` gauge.
//
// Transcendentals are never vectorized through a vector math library:
// vector log/exp differ from libm in the last ulps and would break the
// batched kernels' bit-identity anchors.

#include <cstddef>

#if __has_include(<experimental/simd>)
#include <experimental/simd>
#endif

namespace gcdr::simd {

/// Doubles per vector register on the build's target.
[[nodiscard]] constexpr std::size_t width_doubles() {
#if __has_include(<experimental/simd>)
    return std::experimental::native_simd<double>::size();
#else
    return 2;
#endif
}

}  // namespace gcdr::simd
