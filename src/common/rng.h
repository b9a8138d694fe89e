#pragma once
/// \file rng.h
/// \brief Deterministic random number generation for all stochastic models.
///
/// Every stochastic component in the library (noise sources, channel
/// realizations, data generators, jitter, mismatch) takes an explicit Rng or
/// a 64-bit seed. There is no global RNG state, so any experiment is exactly
/// reproducible from its printed seed.

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <random>

#include "common/types.h"

namespace uwb {

/// The 64-bit Mersenne Twister MT19937-64 (Matsumoto & Nishimura), word for
/// word the stream the standard library's mt19937_64 yields for the same seed:
/// same seeding recurrence, same twist, same tempering, same min()/max(), so
/// every std:: distribution run on it consumes the same words and draws the
/// same values (to rounding only where -march=native fuses them differently).
///
/// The one difference is how the twist applies the matrix word: it ANDs a
/// mask made from the low bit, (0 - (y & 1)) & a, where libstdc++ branches
/// on y & 1. That branch is a coin flip the predictor loses half the time;
/// without it the twist is a straight-line, vectorizable loop and a word
/// costs ~2 ns instead of ~7 ns (bench_dsp_micro BM_RngEngineWords,
/// docs/performance.md). The twist also tempers the whole block at once,
/// so a draw is one load.
class Mt19937_64 {
 public:
  using result_type = std::uint64_t;

  static constexpr std::size_t kStateSize = 312;

  explicit Mt19937_64(result_type seed) noexcept {
    x_[0] = seed;
    for (std::size_t i = 1; i < kStateSize; ++i) {
      x_[i] = 6364136223846793005ULL * (x_[i - 1] ^ (x_[i - 1] >> 62)) + i;
    }
  }

  static constexpr result_type min() noexcept { return 0; }
  static constexpr result_type max() noexcept { return ~result_type{0}; }

  result_type operator()() noexcept {
    if (p_ >= kStateSize) twist();
    return out_[p_++];
  }

  /// Equal iff both engines will produce the same stream from here on
  /// (out_ is a function of x_ whenever p_ can read it).
  friend bool operator==(const Mt19937_64& a, const Mt19937_64& b) noexcept {
    return a.p_ == b.p_ && std::equal(a.x_, a.x_ + kStateSize, b.x_);
  }

 private:
  static constexpr std::size_t kShift = 156;
  static constexpr result_type kMatrixA = 0xb5026f5aa96619e9ULL;
  static constexpr result_type kUpperMask = ~result_type{0} << 31;
  static constexpr result_type kLowerMask = ~kUpperMask;

  static constexpr result_type mix(result_type hi, result_type lo, result_type far) noexcept {
    const result_type y = (hi & kUpperMask) | (lo & kLowerMask);
    return far ^ (y >> 1) ^ ((0 - (y & 1)) & kMatrixA);
  }

  static constexpr result_type temper(result_type z) noexcept {
    z ^= (z >> 29) & 0x5555555555555555ULL;
    z ^= (z << 17) & 0x71d67fffeda60000ULL;
    z ^= (z << 37) & 0xfff7eee000000000ULL;
    return z ^ (z >> 43);
  }

  /// Regenerates all kStateSize words in place, in libstdc++'s order, and
  /// tempers them all into out_: one straight-line, vectorizable loop
  /// instead of a temper per draw.
  void twist() noexcept {
    constexpr std::size_t n = kStateSize;
    constexpr std::size_t m = kShift;
    std::size_t k = 0;
    for (; k < n - m; ++k) x_[k] = mix(x_[k], x_[k + 1], x_[k + m]);
    for (; k < n - 1; ++k) x_[k] = mix(x_[k], x_[k + 1], x_[k + m - n]);
    x_[n - 1] = mix(x_[n - 1], x_[0], x_[m - 1]);
    for (k = 0; k < n; ++k) out_[k] = temper(x_[k]);
    p_ = 0;
  }

  result_type x_[kStateSize];
  result_type out_[kStateSize];  ///< tempered x_, filled by twist()
  std::size_t p_ = kStateSize;
};

/// Seeded pseudo-random generator with the distributions the library needs.
///
/// Holds one Mt19937_64 engine. Distinct subsystems should derive their own
/// child generators via fork() so that adding draws in one block never
/// perturbs another block's stream.
class Rng {
 public:
  /// Constructs from a 64-bit seed. Identical seeds yield identical streams.
  explicit Rng(uint64_t seed = 0x5eed'0000'cafe'f00dULL) : engine_(seed), seed_(seed) {}

  /// The seed this generator was constructed with (for logging).
  [[nodiscard]] uint64_t seed() const noexcept { return seed_; }

  /// Creates an independent child generator. The child's stream is a pure
  /// function of (parent seed, salt), not of how many draws the parent made.
  [[nodiscard]] Rng fork(uint64_t salt) const {
    // SplitMix64-style mix of seed and salt gives well-separated child seeds.
    uint64_t z = seed_ + 0x9e3779b97f4a7c15ULL * (salt + 1);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return Rng(z ^ (z >> 31));
  }

  /// Uniform double in [0, 1).
  double uniform() { return unif_(engine_); }

  /// Uniform double in [lo, hi).
  double uniform(double lo, double hi) { return lo + (hi - lo) * unif_(engine_); }

  /// Uniform integer in [lo, hi] inclusive.
  int uniform_int(int lo, int hi) {
    return std::uniform_int_distribution<int>(lo, hi)(engine_);
  }

  /// Standard normal draw (mean 0, variance 1).
  double gaussian() { return norm_(engine_); }

  /// Normal draw with the given mean and standard deviation.
  double gaussian(double mean, double stddev) { return mean + stddev * norm_(engine_); }

  /// Circularly-symmetric complex Gaussian with total variance \p variance
  /// (variance/2 per rail), the standard model for complex baseband noise.
  cplx cgaussian(double variance = 1.0) {
    const double sigma = std::sqrt(variance / 2.0);
    return {sigma * norm_(engine_), sigma * norm_(engine_)};
  }

  /// Exponential draw with the given mean (inter-arrival times in the
  /// Saleh-Valenzuela model).
  double exponential(double mean) {
    return std::exponential_distribution<double>(1.0 / mean)(engine_);
  }

  /// Fair coin: returns 0 or 1.
  uint8_t bit() { return static_cast<uint8_t>(engine_() & 1u); }

  /// Random equiprobable +/-1.
  double sign() { return (engine_() & 1u) ? 1.0 : -1.0; }

  /// Fills \p n random bits.
  BitVec bits(std::size_t n) {
    BitVec out(n);
    for (auto& b : out) b = bit();
    return out;
  }

  /// Access to the underlying engine for std:: distributions.
  Mt19937_64& engine() noexcept { return engine_; }

 private:
  Mt19937_64 engine_;
  uint64_t seed_;
  std::uniform_real_distribution<double> unif_{0.0, 1.0};
  std::normal_distribution<double> norm_{0.0, 1.0};
};

}  // namespace uwb
