#include "util/fft.hpp"

#include "util/simd.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <cassert>
#include <cmath>
#include <cstring>
#include <limits>
#include <memory>
#include <numbers>
#include <stdexcept>

namespace gcdr {

namespace {

/// Twiddle table for one transform size: w[j] = exp(-2*pi*i*j/n), j < n/2.
/// Stage `len` indexes it with stride n/len, so one table serves every
/// stage; the inverse transform conjugates on the fly.
struct FftPlan {
    explicit FftPlan(std::size_t size) : n(size), w(size / 2) {
        for (std::size_t j = 0; j < w.size(); ++j) {
            const double ang = -2.0 * std::numbers::pi *
                               static_cast<double>(j) /
                               static_cast<double>(n);
            w[j] = {std::cos(ang), std::sin(ang)};
        }
    }
    std::size_t n;
    std::vector<std::complex<double>> w;
};

/// Per-thread plan cache keyed by log2(n). Thread-local so concurrent
/// sweep lanes never contend; a lane reconvolving the same grid size (the
/// common case: every BER point shares grid_dx) reuses its tables.
const FftPlan& plan_for(std::size_t n) {
    thread_local std::array<std::unique_ptr<FftPlan>, 64> cache;
    const auto k = static_cast<std::size_t>(std::countr_zero(n));
    if (!cache[k]) cache[k] = std::make_unique<FftPlan>(n);
    return *cache[k];
}

}  // namespace

void fft_inplace(std::vector<std::complex<double>>& data, bool inverse) {
    const std::size_t n = data.size();
    assert(n != 0 && (n & (n - 1)) == 0 && "FFT size must be a power of two");
    if (n == 1) return;
    const FftPlan& plan = plan_for(n);

    // Bit-reversal permutation.
    for (std::size_t i = 1, j = 0; i < n; ++i) {
        std::size_t bit = n >> 1;
        for (; j & bit; bit >>= 1) j ^= bit;
        j ^= bit;
        if (i < j) std::swap(data[i], data[j]);
    }

    for (std::size_t len = 2; len <= n; len <<= 1) {
        const std::size_t stride = n / len;
        for (std::size_t i = 0; i < n; i += len) {
            for (std::size_t k = 0; k < len / 2; ++k) {
                std::complex<double> w = plan.w[k * stride];
                if (inverse) w = std::conj(w);
                const auto u = data[i + k];
                const auto v = data[i + k + len / 2] * w;
                data[i + k] = u + v;
                data[i + k + len / 2] = u - v;
            }
        }
    }

    if (inverse) {
        const double inv_n = 1.0 / static_cast<double>(n);
        for (auto& x : data) x *= inv_n;
    }
}

std::size_t next_pow2(std::size_t n) {
    constexpr std::size_t kMaxPow2 =
        (std::numeric_limits<std::size_t>::max() >> 1) + 1;
    if (n > kMaxPow2) {
        throw std::overflow_error(
            "next_pow2: no representable power of two >= n");
    }
    std::size_t p = 1;
    while (p < n) p <<= 1;
    return p;
}

std::vector<double> convolve_fft(const std::vector<double>& a,
                                 const std::vector<double>& b) {
    if (a.empty() || b.empty()) {
        throw std::invalid_argument("convolve_fft: empty input sequence");
    }
    const std::size_t out_len = a.size() + b.size() - 1;
    const std::size_t n = next_pow2(out_len);

    // Pack both real sequences into one complex buffer, z = a + i*b: the
    // individual spectra fall out of Z's conjugate symmetry, so a single
    // forward transform replaces two. The buffer persists per thread, so
    // steady-state convolves allocate nothing.
    thread_local std::vector<std::complex<double>> z;
    z.assign(n, {0.0, 0.0});
    for (std::size_t i = 0; i < a.size(); ++i) z[i].real(a[i]);
    for (std::size_t i = 0; i < b.size(); ++i) z[i].imag(b[i]);
    fft_inplace(z, false);

    // A[k] = (Z[k] + conj(Z[n-k])) / 2,  B[k] = (Z[k] - conj(Z[n-k])) / 2i.
    // Both spectra are Hermitian (real inputs), so C = A.*B is Hermitian
    // too: compute k and n-k together, writing C in place of Z.
    const auto product_at = [](std::complex<double> zk,
                               std::complex<double> znk) {
        const auto fa = 0.5 * (zk + std::conj(znk));
        const auto fb = std::complex<double>{0.0, -0.5} * (zk - std::conj(znk));
        return fa * fb;
    };
    z[0] = z[0].real() * z[0].imag();  // DC: A = Re, B = Im
    for (std::size_t k = 1; k <= n / 2; ++k) {
        const std::size_t nk = n - k;
        if (k == nk) {  // Nyquist bin is self-conjugate
            z[k] = z[k].real() * z[k].imag();
            break;
        }
        const auto ck = product_at(z[k], z[nk]);
        z[k] = ck;
        z[nk] = std::conj(ck);
    }
    fft_inplace(z, true);

    std::vector<double> out(out_len);
    for (std::size_t i = 0; i < out_len; ++i) out[i] = z[i].real();
    return out;
}

namespace {

/// W doubles in one GCC/Clang vector-extension register.
template <std::size_t W>
struct Lanes {
    typedef double type __attribute__((vector_size(W * sizeof(double))));
};

/// Accumulator registers per output block: 8 x W outputs stay in
/// registers while the kernel walks the whole of `a` for them.
constexpr std::size_t kBlockRegs = 8;

/// convolve_direct at W lanes, output-stationary: each block of
/// kBlockRegs * W outputs sums a[i] * b[k - i] in increasing i, the order
/// of the naive i-outer loop, so every output has the naive loop's bits.
/// b is first copied between block - 1 zeros on each side; a lane whose
/// k - i falls outside b adds a[i] * 0.0, which leaves a finite sum
/// unchanged. Force-inlined so each caller compiles the body for its own
/// target.
template <std::size_t W>
[[gnu::always_inline]] inline std::vector<double> convolve_lanes(
    const std::vector<double>& a, const std::vector<double>& b) {
    using V = typename Lanes<W>::type;
    constexpr std::size_t kBlock = kBlockRegs * W;
    const std::size_t na = a.size();
    const std::size_t nb = b.size();
    std::vector<double> bp(nb + 2 * (kBlock - 1), 0.0);
    std::copy(b.begin(), b.end(), bp.begin() + (kBlock - 1));
    const std::size_t len = na + nb - 1;
    std::vector<double> out(len);
    for (std::size_t k0 = 0; k0 < len; k0 += kBlock) {
        V acc[kBlockRegs];
#pragma GCC unroll 16
        for (std::size_t r = 0; r < kBlockRegs; ++r) acc[r] = V{};
        const std::size_t i_lo = k0 + 1 > nb ? k0 + 1 - nb : 0;
        const std::size_t i_hi = std::min(na - 1, k0 + kBlock - 1);
        for (std::size_t i = i_lo; i <= i_hi; ++i) {
            const V ai = a[i] - V{};  // broadcast; x - 0.0 == x, even -0.0
            const double* bi = bp.data() + k0 + (kBlock - 1) - i;
#pragma GCC unroll 16
            for (std::size_t r = 0; r < kBlockRegs; ++r) {
                V bv;
                std::memcpy(&bv, bi + r * W, sizeof bv);
                acc[r] += ai * bv;
            }
        }
        std::memcpy(out.data() + k0, acc,
                    std::min(kBlock, len - k0) * sizeof(double));
    }
    return out;
}

// The AVX2 copy exists only on x86 builds whose own vectors are SSE
// (no -mavx). It enables AVX2 alone, not FMA, and the file is compiled
// with -ffp-contract=off, so every multiply and add rounds on its own.
#if (defined(__x86_64__) || defined(__i386__)) && !defined(__AVX__)
#define GCDR_CONVOLVE_AVX2 1
#else
#define GCDR_CONVOLVE_AVX2 0
#endif

#if GCDR_CONVOLVE_AVX2
__attribute__((target("avx2"))) std::vector<double> convolve_avx2(
    const std::vector<double>& a, const std::vector<double>& b) {
    return convolve_lanes<4>(a, b);
}
#endif

}  // namespace

namespace detail {

std::vector<double> convolve_direct_build_width(const std::vector<double>& a,
                                                const std::vector<double>& b) {
    return convolve_lanes<simd::width_doubles()>(a, b);
}

ConvolveKernel convolve_direct_avx2() {
#if GCDR_CONVOLVE_AVX2
    __builtin_cpu_init();
    if (__builtin_cpu_supports("avx2")) return &convolve_avx2;
#endif
    return nullptr;
}

}  // namespace detail

std::vector<double> convolve_direct(const std::vector<double>& a,
                                    const std::vector<double>& b) {
    if (a.empty() || b.empty()) {
        throw std::invalid_argument("convolve_direct: empty input sequence");
    }
    static const detail::ConvolveKernel kernel = [] {
        const detail::ConvolveKernel avx2 = detail::convolve_direct_avx2();
        return avx2 ? avx2 : &detail::convolve_direct_build_width;
    }();
    return kernel(a, b);
}

}  // namespace gcdr
