#pragma once
// PDF convolution for stats/: a packed radix-2 FFT for large operands and
// a register-blocked direct product for the rest. Self-contained (no
// external DSP dependency). GridPdf::convolve takes the direct path unless
// both operands exceed 2048 bins, so every statmodel edge PDF at the
// committed grids goes through convolve_direct.
//
// Direct path:
//  - output-stationary: each block of 8 vector registers of outputs keeps
//    its sums in registers and adds a[i] * b[k - i] in increasing i, the
//    order of the naive i-outer loop, so the result has that loop's bits
//    (for finite inputs) whatever the vector width,
//  - one template, instantiated at the target's vector width and, on x86
//    builds without -mavx, again under target("avx2"); the AVX2 copy is
//    picked once, at the first call, when the CPU has AVX2,
//  - no fused multiply-add: the AVX2 copy does not enable FMA and the file
//    is compiled with -ffp-contract=off, so a -march=native build keeps
//    the bits too.
//
// FFT path:
//  - twiddle factors come from a per-thread plan cache keyed by transform
//    size, so repeated convolves of the same grid pay the trig cost once
//    per thread (concurrent sweep lanes each build their own tables — no
//    locks, no sharing),
//  - convolve_fft packs both real inputs into ONE complex transform
//    (z = a + i*b, spectra recovered via conjugate symmetry), replacing the
//    classic two forward transforms with one,
//  - scratch buffers persist per thread, so steady-state convolves perform
//    no heap allocation.
// Results are deterministic: the same inputs produce the same bits on every
// call and every thread.

#include <complex>
#include <cstddef>
#include <vector>

namespace gcdr {

/// In-place iterative radix-2 Cooley-Tukey FFT. data.size() must be a power
/// of two. inverse=true applies the conjugate transform and 1/N scaling.
/// Twiddles come from the per-thread plan cache.
void fft_inplace(std::vector<std::complex<double>>& data, bool inverse);

/// Next power of two >= n (n >= 1). Throws std::overflow_error when no
/// power of two >= n is representable in std::size_t (n > 2^63 on 64-bit),
/// where the old shift loop silently wrapped to 0.
[[nodiscard]] std::size_t next_pow2(std::size_t n);

/// Linear convolution of two real sequences via a single packed complex
/// FFT plus one inverse transform. Result length is a.size() + b.size() - 1.
/// Throws std::invalid_argument if either input is empty.
[[nodiscard]] std::vector<double> convolve_fft(const std::vector<double>& a,
                                               const std::vector<double>& b);

/// Direct O(n*m) linear convolution, the path GridPdf::convolve takes
/// unless both operands exceed 2048 bins. Bit-identical to the naive loop
/// `for i: for j: out[i+j] += a[i] * b[j]` for finite inputs on every
/// compiled path. Throws std::invalid_argument if either input is empty.
[[nodiscard]] std::vector<double> convolve_direct(const std::vector<double>& a,
                                                  const std::vector<double>& b);

namespace detail {

/// The compiled paths of convolve_direct, exposed so tests can check each
/// one on any CPU. Both take non-empty operands.
using ConvolveKernel = std::vector<double> (*)(const std::vector<double>&,
                                               const std::vector<double>&);

/// The kernel at the target's vector width (simd::width_doubles()).
[[nodiscard]] std::vector<double> convolve_direct_build_width(
    const std::vector<double>& a, const std::vector<double>& b);

/// The AVX2 copy, or nullptr when this build has none or the CPU lacks
/// AVX2. convolve_direct takes it whenever it is non-null.
[[nodiscard]] ConvolveKernel convolve_direct_avx2();

}  // namespace detail

}  // namespace gcdr
