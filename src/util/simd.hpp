#pragma once
// Build-time SIMD switch. With -DGCDR_SIMD=ON (the default) and
// <experimental/simd> available, simd::width_doubles() is the width of
// std::experimental::native_simd<double> for the build's target; with
// -DGCDR_SIMD=OFF it is 1.
//
// Consumers:
//  - util/fft.cpp's direct convolution instantiates its register-blocked
//    kernel at this width (width 1 = the scalar fallback the OFF CI leg
//    runs), plus an AVX2 copy on SSE-only x86 builds. Every width keeps
//    the naive loop's summation order and never fuses a multiply-add, so
//    all paths are bit-identical to it.
//  - sim/batch reports the width as its `simd_width` gauge.
//
// Transcendentals are never vectorized through a vector math library:
// vector log/exp differ from libm in the last ulps and would break the
// batched kernels' bit-identity anchors.

#if defined(GCDR_SIMD) && GCDR_SIMD && __has_include(<experimental/simd>)
#define GCDR_SIMD_ENABLED 1
#else
#define GCDR_SIMD_ENABLED 0
#endif

#if GCDR_SIMD_ENABLED
#include <experimental/simd>
#endif

#include <cstddef>

namespace gcdr::simd {

/// Doubles per vector register in the active build (1 = scalar fallback).
[[nodiscard]] constexpr std::size_t width_doubles() {
#if GCDR_SIMD_ENABLED
    return std::experimental::native_simd<double>::size();
#else
    return 1;
#endif
}

}  // namespace gcdr::simd
