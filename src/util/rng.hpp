#pragma once
// Deterministic random number generation for all stochastic models.
//
// The paper's VHDL model uses the Xilinx AWGN core [8] for Gaussian samples;
// here a xoshiro256++ generator feeds uniform, Gaussian (polar Box-Muller),
// arcsine (sinusoidal-jitter histogram) and dual-Dirac samplers. Every
// simulation object takes an explicit seed so runs are reproducible.
//
// Rng is the only Gaussian generator in the repository. gaussian() draws
// one polar pair at a time; gaussians() draws the same pairs in blocks
// for the bulk consumers (jittered edge streams, the batched lane
// kernel's NormalBank). Both evaluate a pair through one function in
// rng.cpp, so no build target can compile the two paths differently,
// and a block of n values equals n calls of gaussian() bit for bit,
// generator state and cached second deviate included.

#include <cstddef>
#include <cstdint>
#include <random>

namespace gcdr {

/// xoshiro256++ PRNG (Blackman & Vigna). Satisfies UniformRandomBitGenerator.
class Xoshiro256 {
public:
    using result_type = std::uint64_t;

    explicit Xoshiro256(std::uint64_t seed = 0x9E3779B97F4A7C15ull);

    static constexpr result_type min() { return 0; }
    static constexpr result_type max() { return ~std::uint64_t{0}; }

    result_type operator()();

    /// Advance 2^128 steps; gives independent sequences for parallel channels.
    void long_jump();

private:
    std::uint64_t s_[4];
};

/// Convenience sampler bundle over a single Xoshiro256 stream.
class Rng {
public:
    explicit Rng(std::uint64_t seed = 1) : gen_(seed) {}
    /// Wrap an existing generator state — used to hand each parallel
    /// channel its own long_jump()-separated stream of a common seed.
    explicit Rng(const Xoshiro256& gen) : gen_(gen) {}

    /// Uniform in [0, 1).
    double uniform();
    /// Uniform in [lo, hi).
    double uniform(double lo, double hi);
    /// Standard normal via polar Box-Muller (caches the second deviate).
    double gaussian();
    /// n standard normals into out[0, n): the values and the final
    /// generator state of n calls of gaussian(), including a cached
    /// deviate consumed first and one left cached when the last pair is
    /// split. Candidates are drawn in blocks, without a branch on the
    /// rejection test.
    void gaussians(double* out, std::size_t n);
    /// Normal with the given mean and standard deviation.
    double gaussian(double mean, double sigma);
    /// Arcsine distribution on [-amp, +amp]: the PDF of A*sin(uniform phase).
    /// This is the stationary histogram of sinusoidal jitter.
    double arcsine(double amp);
    /// Dual-Dirac: +/-delta with equal probability (bounded DJ model).
    double dual_dirac(double delta);
    /// Uniform integer in [0, n).
    std::uint64_t index(std::uint64_t n);
    /// Fair coin.
    bool coin();

    Xoshiro256& generator() { return gen_; }

private:
    Xoshiro256 gen_;
    double cached_gaussian_ = 0.0;
    bool has_cached_ = false;
};

}  // namespace gcdr
