#include "channel/awgn.h"

#include <bit>
#include <cmath>
#include <cstdint>
#include <random>

#include "common/error.h"
#include "common/math_utils.h"
#include "obs/profile.h"

namespace uwb::channel {

namespace {

// ---- Ziggurat standard-normal sampler -------------------------------------
//
// Noise synthesis is the largest per-packet cost that is not a convolution:
// a gen-1 packet adds noise over millions of oversampled "analog" samples,
// and std::normal_distribution (Marsaglia polar) spends ~25 ns per draw in
// log/sqrt and rejection retries. The 256-layer ziggurat (Marsaglia & Tsang
// 2000) accepts ~98.8% of draws with one engine call, one table lookup and
// one compare -- same exact N(0,1) law, ~5x faster.
//
// Draws here consume the same mt19937_64 engine as Rng::gaussian but with a
// different consumption pattern, so AWGN realizations differ from the polar
// sampler's; every draw is still a pure function of the trial's forked seed,
// which is all the engine's byte-identity guarantees require. Rng::gaussian
// itself is untouched: channel realizations, jitter and converter mismatch
// keep their exact historical streams.

constexpr int kZigLayers = 256;
constexpr double kZigR = 3.6541528853610088;      // base-layer right edge
constexpr double kZigArea = 0.00492867323399;     // per-layer area

struct ZigguratTables {
  double x[kZigLayers + 1];  // layer right edges, decreasing; x[256] = 0
  double y[kZigLayers + 1];  // f(x[i]) = exp(-x[i]^2/2), increasing

  ZigguratTables() {
    x[0] = kZigArea * std::exp(0.5 * kZigR * kZigR);  // v / f(r)
    x[1] = kZigR;
    for (int i = 1; i < kZigLayers; ++i) {
      const double fx = std::exp(-0.5 * x[i] * x[i]);
      x[i + 1] = std::sqrt(-2.0 * std::log(kZigArea / x[i] + fx));
    }
    x[kZigLayers] = 0.0;
    for (int i = 0; i <= kZigLayers; ++i) y[i] = std::exp(-0.5 * x[i] * x[i]);
  }
};

const ZigguratTables& zig_tables() {
  static const ZigguratTables tables;
  return tables;
}

inline double uniform01(std::mt19937_64& eng) {
  return static_cast<double>(eng() >> 11) * 0x1.0p-53;
}

/// Rejection continuation of zig_normal for a draw \p u that missed the
/// in-layer accept (~1.2% of draws): the base-layer tail or the wedge test,
/// then fresh engine words until one is accepted. Out of line so the hot
/// loop carries only the one-compare fast path.
[[gnu::noinline]] double zig_normal_slow(std::uint64_t u, std::mt19937_64& eng,
                                         const ZigguratTables& t) {
  while (true) {
    const int i = static_cast<int>(u & 255u);
    const double sign = (u & 256u) != 0 ? -1.0 : 1.0;
    const double cand = static_cast<double>(u >> 12) * 0x1.0p-52 * t.x[i];
    if (cand < t.x[i + 1]) return sign * cand;
    if (i == 0) {
      // Tail beyond r (Marsaglia's exponential-majorant method).
      double xt;
      double yt;
      do {
        xt = -std::log(1.0 - uniform01(eng)) / kZigR;
        yt = -std::log(1.0 - uniform01(eng));
      } while (yt + yt < xt * xt);
      return sign * (kZigR + xt);
    }
    // Wedge between layer edges: accept iff the point lands under the pdf.
    const double yr = t.y[i] + uniform01(eng) * (t.y[i + 1] - t.y[i]);
    if (yr < std::exp(-0.5 * cand * cand)) return sign * cand;
    u = eng();
  }
}

/// One standard-normal draw. Hot path: single engine call, layer index from
/// the low 8 bits, a 52-bit mantissa as the in-layer uniform, and one
/// compare against the next layer's edge. The sign (bit 8) is OR-ed into
/// the result's sign bit, so the accepted path has no data-dependent branch
/// beyond the compare -- same value as sign * cand, same engine stream.
inline double zig_normal(std::mt19937_64& eng, const ZigguratTables& t) {
  const std::uint64_t u = eng();
  const int i = static_cast<int>(u & 255u);
  const double cand = static_cast<double>(u >> 12) * 0x1.0p-52 * t.x[i];
  if (cand < t.x[i + 1]) [[likely]] {
    return std::bit_cast<double>(std::bit_cast<std::uint64_t>(cand) | ((u & 256u) << 55));
  }
  return zig_normal_slow(u, eng, t);
}

/// Complex AWGN over rails addressed as re[k * kStride] / im[k * kStride]:
/// the real draw first, then the imaginary one, sample by sample -- the
/// draw order every complex overload shares.
template <std::size_t kStride>
void add_complex_noise(double* re, double* im, std::size_t n, double n0, Rng& rng) {
  const obs::StageTimer timer(obs::Stage::kChannelNoise, n);
  const double sigma = std::sqrt(n0 / 2.0);
  const ZigguratTables& t = zig_tables();
  std::mt19937_64& eng = rng.engine();
  for (std::size_t k = 0; k < n; ++k) {
    const double zr = zig_normal(eng, t);
    const double zi = zig_normal(eng, t);
    re[k * kStride] += sigma * zr;
    im[k * kStride] += sigma * zi;
  }
}

// ---- Single-precision ziggurat on a xoshiro256++ stream -------------------
//
// The float arena's noise budget is dominated by the uniform generator:
// mt19937_64 costs ~6 ns per 64-bit draw, which caps even a free normal
// sampler near the old path's cost. xoshiro256++ generates a 64-bit word in
// ~1 ns, and each word feeds TWO float ziggurat draws (32 bits each: 8-bit
// layer index, sign bit, 23-bit in-layer mantissa). Seeded per call from one
// mt19937_64 draw, the stream is a pure function of the trial seed.

struct Xoshiro256pp {
  std::uint64_t s[4];

  explicit Xoshiro256pp(std::uint64_t seed) {
    // SplitMix64 expansion of the single seed word (the reference method).
    std::uint64_t z = seed;
    for (auto& w : s) {
      z += 0x9e3779b97f4a7c15ULL;
      std::uint64_t t = z;
      t = (t ^ (t >> 30)) * 0xbf58476d1ce4e5b9ULL;
      t = (t ^ (t >> 27)) * 0x94d049bb133111ebULL;
      w = t ^ (t >> 31);
    }
  }

  static std::uint64_t rotl(std::uint64_t v, int k) noexcept {
    return (v << k) | (v >> (64 - k));
  }

  std::uint64_t next() noexcept {
    const std::uint64_t result = rotl(s[0] + s[3], 23) + s[0];
    const std::uint64_t t = s[1] << 17;
    s[2] ^= s[0];
    s[3] ^= s[1];
    s[1] ^= s[2];
    s[0] ^= s[3];
    s[2] ^= t;
    s[3] = rotl(s[3], 45);
    return result;
  }
};

struct ZigguratTablesF {
  float x[kZigLayers + 1];
  float y[kZigLayers + 1];

  ZigguratTablesF() {
    const ZigguratTables& d = zig_tables();
    for (int i = 0; i <= kZigLayers; ++i) {
      x[i] = static_cast<float>(d.x[i]);
      y[i] = static_cast<float>(d.y[i]);
    }
  }
};

const ZigguratTablesF& zig_tables_f() {
  static const ZigguratTablesF tables;
  return tables;
}

/// Rejection continuation for a 32-bit draw that missed the in-layer accept
/// (~1.5% of draws). Out of line on purpose: the hot loop then carries only
/// the one-compare fast path. Fresh uniforms come from whole engine words --
/// the wedge burns the low 32 bits of one, the base-layer tail runs
/// Marsaglia's double-precision exponential method on 53-bit uniforms.
[[gnu::noinline]] float zig_slow_f(std::uint32_t u, Xoshiro256pp& eng,
                                   const ZigguratTablesF& t) {
  while (true) {
    const int i = static_cast<int>(u & 255u);
    const float sign = (u & 256u) != 0 ? -1.0f : 1.0f;
    const float ux = static_cast<float>(u >> 9) * 0x1.0p-23f;
    const float cand = ux * t.x[i];
    if (i == 0) {
      double xt;
      double yt;
      do {
        const double u1 = static_cast<double>(eng.next() >> 11) * 0x1.0p-53;
        const double u2 = static_cast<double>(eng.next() >> 11) * 0x1.0p-53;
        xt = -std::log(1.0 - u1) / kZigR;
        yt = -std::log(1.0 - u2);
      } while (yt + yt < xt * xt);
      return sign * static_cast<float>(kZigR + xt);
    }
    const float uy = static_cast<float>(static_cast<std::uint32_t>(eng.next())) * 0x1.0p-32f;
    const float yr = t.y[i] + uy * (t.y[i + 1] - t.y[i]);
    if (yr < std::exp(-0.5f * cand * cand)) return sign * cand;
    // Wedge miss: restart from a fresh 32-bit draw.
    u = static_cast<std::uint32_t>(eng.next());
    const int j = static_cast<int>(u & 255u);
    const float c2 = static_cast<float>(u >> 9) * 0x1.0p-23f * t.x[j];
    if (c2 < t.x[j + 1]) return ((u & 256u) != 0 ? -1.0f : 1.0f) * c2;
  }
}

/// Inline fast path: one compare; sign applied by flipping the float's top
/// bit so the accepted branch is branch-free.
inline float zig_one_f(std::uint32_t u, Xoshiro256pp& eng, const ZigguratTablesF& t) {
  const int i = static_cast<int>(u & 255u);
  const float cand = static_cast<float>(u >> 9) * 0x1.0p-23f * t.x[i];
  if (cand < t.x[i + 1]) [[likely]] {
    const std::uint32_t bits =
        std::bit_cast<std::uint32_t>(cand) | ((u & 256u) << 23);
    return std::bit_cast<float>(bits);
  }
  return zig_slow_f(u, eng, t);
}

}  // namespace

void add_awgn(float* x, std::size_t n, double n0, Rng& rng) {
  detail::require(n0 >= 0.0, "add_awgn: N0 must be non-negative");
  if (n0 == 0.0 || n == 0) return;
  const obs::StageTimer timer(obs::Stage::kChannelNoise, n);
  const auto sigma = static_cast<float>(std::sqrt(n0 / 2.0));
  const ZigguratTablesF& t = zig_tables_f();
  Xoshiro256pp eng(rng.engine()());
  std::size_t i = 0;
  // Two draws per engine word: low half then high half.
  for (; i + 2 <= n; i += 2) {
    const std::uint64_t w = eng.next();
    x[i] += sigma * zig_one_f(static_cast<std::uint32_t>(w), eng, t);
    x[i + 1] += sigma * zig_one_f(static_cast<std::uint32_t>(w >> 32), eng, t);
  }
  if (i < n) {
    x[i] += sigma *
            zig_one_f(static_cast<std::uint32_t>(eng.next()), eng, t);
  }
}

void add_awgn(CplxVec& x, double n0, Rng& rng) {
  detail::require(n0 >= 0.0, "add_awgn: N0 must be non-negative");
  if (n0 == 0.0) return;
  // std::complex<double> is layout-compatible with double[2].
  auto* rails = reinterpret_cast<double*>(x.data());
  add_complex_noise<2>(rails, rails + 1, x.size(), n0, rng);
}

void add_awgn(double* re, double* im, std::size_t n, double n0, Rng& rng) {
  detail::require(n0 >= 0.0, "add_awgn: N0 must be non-negative");
  if (n0 == 0.0) return;
  add_complex_noise<1>(re, im, n, n0, rng);
}

void add_awgn(RealVec& x, double n0, Rng& rng) {
  detail::require(n0 >= 0.0, "add_awgn: N0 must be non-negative");
  if (n0 == 0.0) return;
  const obs::StageTimer timer(obs::Stage::kChannelNoise, x.size());
  const double sigma = std::sqrt(n0 / 2.0);
  const ZigguratTables& t = zig_tables();
  std::mt19937_64& eng = rng.engine();
  for (auto& v : x) v += sigma * zig_normal(eng, t);
}

void add_awgn(CplxWaveform& x, double n0, Rng& rng) { add_awgn(x.samples(), n0, rng); }

void add_awgn(RealWaveform& x, double n0, Rng& rng) { add_awgn(x.samples(), n0, rng); }

double n0_for_ebn0(double eb, double ebn0_db) {
  detail::require(eb > 0.0, "n0_for_ebn0: Eb must be positive");
  return eb / from_db(ebn0_db);
}

double energy_per_bit(const CplxWaveform& x, std::size_t num_bits) {
  detail::require(num_bits > 0, "energy_per_bit: num_bits must be positive");
  return x.total_energy() / static_cast<double>(num_bits);
}

double energy_per_bit(const RealWaveform& x, std::size_t num_bits) {
  detail::require(num_bits > 0, "energy_per_bit: num_bits must be positive");
  return x.total_energy() / static_cast<double>(num_bits);
}

}  // namespace uwb::channel
