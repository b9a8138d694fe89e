// Tests for the foundation library: math utilities, RNG, Waveform.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <limits>
#include <random>
#include <vector>

#include "common/error.h"
#include "common/math_utils.h"
#include "common/rng.h"
#include "common/waveform.h"

namespace uwb {
namespace {

// ---------------------------------------------------------------- math ----

TEST(MathUtils, DbRoundTrip) {
  EXPECT_NEAR(from_db(to_db(3.7)), 3.7, 1e-12);
  EXPECT_NEAR(to_db(10.0), 10.0, 1e-12);
  EXPECT_NEAR(to_db(100.0), 20.0, 1e-12);
  EXPECT_NEAR(db_to_amp(20.0), 10.0, 1e-12);
  EXPECT_NEAR(amp_to_db(db_to_amp(-7.3)), -7.3, 1e-12);
}

TEST(MathUtils, DbmConversions) {
  EXPECT_NEAR(watts_to_dbm(1e-3), 0.0, 1e-12);
  EXPECT_NEAR(watts_to_dbm(1.0), 30.0, 1e-12);
  EXPECT_NEAR(dbm_to_watts(-30.0), 1e-6, 1e-18);
}

TEST(MathUtils, QFunctionKnownValues) {
  EXPECT_NEAR(q_function(0.0), 0.5, 1e-12);
  EXPECT_NEAR(q_function(1.0), 0.158655, 1e-5);
  EXPECT_NEAR(q_function(3.0), 1.349898e-3, 1e-7);
  // Symmetry: Q(-x) = 1 - Q(x).
  EXPECT_NEAR(q_function(-1.5) + q_function(1.5), 1.0, 1e-12);
}

TEST(MathUtils, QFunctionInverseRoundTrip) {
  for (double p : {0.4, 0.1, 1e-2, 1e-4, 1e-6}) {
    EXPECT_NEAR(q_function(q_function_inv(p)), p, p * 1e-6) << "p=" << p;
  }
}

TEST(MathUtils, BpskTheoreticalBer) {
  // Eb/N0 = 9.6 dB gives BER ~ 1e-5 for BPSK (textbook anchor point).
  EXPECT_NEAR(bpsk_awgn_ber(from_db(9.6)), 1e-5, 3e-6);
  // PPM/orthogonal needs 3 dB more for the same BER.
  EXPECT_NEAR(ppm_awgn_ber(from_db(12.6)), 1e-5, 3e-6);
}

TEST(MathUtils, Sinc) {
  EXPECT_DOUBLE_EQ(sinc(0.0), 1.0);
  EXPECT_NEAR(sinc(1.0), 0.0, 1e-12);
  EXPECT_NEAR(sinc(0.5), 2.0 / pi, 1e-12);
}

TEST(MathUtils, PowerAndEnergy) {
  RealVec x = {3.0, -4.0};
  EXPECT_DOUBLE_EQ(energy(x), 25.0);
  EXPECT_DOUBLE_EQ(peak_abs(x), 4.0);
}

TEST(MathUtils, NextPow2) {
  EXPECT_EQ(next_pow2(1), 1u);
  EXPECT_EQ(next_pow2(2), 2u);
  EXPECT_EQ(next_pow2(3), 4u);
  EXPECT_EQ(next_pow2(1023), 1024u);
  EXPECT_TRUE(is_pow2(4096));
  EXPECT_FALSE(is_pow2(4097));
}

TEST(MathUtils, WrapPhase) {
  EXPECT_NEAR(wrap_phase(3.0 * pi), pi, 1e-12);
  EXPECT_NEAR(wrap_phase(-3.0 * pi), pi, 1e-12);  // (-pi, pi] convention
  EXPECT_NEAR(wrap_phase(0.5), 0.5, 1e-12);
}

// ----------------------------------------------------------------- rng ----

TEST(Rng, Deterministic) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) {
    EXPECT_DOUBLE_EQ(a.gaussian(), b.gaussian());
  }
}

TEST(Rng, ForkIndependentOfParentDraws) {
  Rng a(7);
  Rng b(7);
  (void)a.gaussian();  // parent advances...
  Rng child_a = a.fork(1);
  Rng child_b = b.fork(1);  // ...but children only depend on (seed, salt)
  for (int i = 0; i < 10; ++i) {
    EXPECT_DOUBLE_EQ(child_a.uniform(), child_b.uniform());
  }
}

TEST(Rng, ForkSaltsDiffer) {
  Rng a(7);
  EXPECT_NE(a.fork(1).gaussian(), a.fork(2).gaussian());
}

TEST(Rng, GaussianMoments) {
  Rng rng(123);
  double sum = 0.0, sum_sq = 0.0;
  const int n = 200000;
  for (int i = 0; i < n; ++i) {
    const double x = rng.gaussian();
    sum += x;
    sum_sq += x * x;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.02);
  EXPECT_NEAR(sum_sq / n, 1.0, 0.02);
}

TEST(Rng, ComplexGaussianVariance) {
  Rng rng(5);
  double acc = 0.0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) acc += std::norm(rng.cgaussian(2.0));
  EXPECT_NEAR(acc / n, 2.0, 0.05);
}

TEST(Rng, UniformIntBounds) {
  Rng rng(9);
  for (int i = 0; i < 1000; ++i) {
    const int v = rng.uniform_int(-3, 4);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 4);
  }
}

TEST(Rng, BitsAreBinaryAndBalanced) {
  Rng rng(11);
  const BitVec bits = rng.bits(10000);
  std::size_t ones = 0;
  for (auto b : bits) {
    ASSERT_LE(b, 1);
    ones += b;
  }
  EXPECT_NEAR(static_cast<double>(ones) / bits.size(), 0.5, 0.03);
}

TEST(Rng, EngineMatchesStdMt19937_64) {
  // Mt19937_64 is std::mt19937_64 word for word: over five twists from
  // each seed, for copies taken mid-stream, for fork() children, and
  // through every distribution Rng draws with.
  constexpr std::size_t kWords = 5 * Mt19937_64::kStateSize;
  std::vector<std::uint64_t> seeds = {0, 1, 42, std::numeric_limits<std::uint64_t>::max()};
  for (const std::uint64_t parent : {std::uint64_t{0}, std::uint64_t{42}}) {
    for (const std::uint64_t salt : {0u, 1u, 7u, 1000u}) {
      seeds.push_back(Rng(parent).fork(salt).seed());
    }
  }
  for (const std::uint64_t seed : seeds) {
    Mt19937_64 mine(seed);
    std::mt19937_64 ref(seed);
    for (std::size_t i = 0; i < kWords; ++i) {
      ASSERT_EQ(mine(), ref()) << "seed " << seed << ", word " << i;
    }
    // A copy continues in lockstep with its source and with the reference.
    Mt19937_64 copy = mine;
    for (std::size_t i = 0; i < kWords; ++i) {
      const std::uint64_t want = ref();
      ASSERT_EQ(copy(), want) << "seed " << seed << ", copy word " << i;
      ASSERT_EQ(mine(), want) << "seed " << seed << ", word " << kWords + i;
    }
    EXPECT_TRUE(copy == mine);
    (void)copy();
    EXPECT_FALSE(copy == mine);
  }
  EXPECT_EQ(Mt19937_64::min(), std::mt19937_64::min());
  EXPECT_EQ(Mt19937_64::max(), std::mt19937_64::max());

  // The distributions are instantiated once per engine type; an FMA-capable
  // -march=native build may fuse their arithmetic differently in the two
  // instantiations, so there the values agree to rounding (the words they
  // consume must still match exactly).
#ifdef __FMA__
  constexpr double kTol = 1e-13;
#else
  constexpr double kTol = 0.0;
#endif
  for (const std::uint64_t seed : seeds) {
    Rng rng(seed);
    std::mt19937_64 ref(seed);
    std::uniform_real_distribution<double> unif(0.0, 1.0);
    std::normal_distribution<double> norm(0.0, 1.0);
    for (int i = 0; i < 500; ++i) {
      ASSERT_EQ(rng.uniform(), unif(ref)) << "seed " << seed << ", round " << i;
      const double want_normal = norm(ref);
      ASSERT_NEAR(rng.gaussian(), want_normal, kTol * (1.0 + std::abs(want_normal)))
          << "seed " << seed << ", round " << i;
      ASSERT_EQ(rng.uniform_int(-5, 1000), std::uniform_int_distribution<int>(-5, 1000)(ref));
      const double want_exp = std::exponential_distribution<double>(1.0 / 2.5)(ref);
      ASSERT_NEAR(rng.exponential(2.5), want_exp, kTol * (1.0 + want_exp));
    }
    for (const std::uint8_t b : rng.bits(700)) ASSERT_EQ(b, ref() & 1u);
    EXPECT_EQ(rng.engine()(), ref()) << "seed " << seed;
    // A copied Rng carries the engine and the normal's cached draw along.
    Rng copy = rng;
    for (int i = 0; i < 3; ++i) ASSERT_EQ(copy.gaussian(), rng.gaussian());
  }
}

// ---------------------------------------------------------------- error ----

TEST(Error, RequireThrowsItsMessageOnlyOnFailure) {
  // Both forms: a literal (no std::string built on a passing check) and a
  // built message.
  EXPECT_NO_THROW(detail::require(true, "never shown"));
  EXPECT_NO_THROW(detail::require(true, std::string("never shown")));
  try {
    detail::require(false, "literal message");
    FAIL() << "require(false, literal) returned";
  } catch (const InvalidArgument& e) {
    EXPECT_STREQ(e.what(), "literal message");
  }
  try {
    detail::require(false, std::string("built ") + "message");
    FAIL() << "require(false, string) returned";
  } catch (const InvalidArgument& e) {
    EXPECT_STREQ(e.what(), "built message");
  }
}

// ------------------------------------------------------------- waveform ----

TEST(Waveform, ConstructionAndDuration) {
  RealWaveform w(1000, 2e9);
  EXPECT_EQ(w.size(), 1000u);
  EXPECT_DOUBLE_EQ(w.sample_rate(), 2e9);
  EXPECT_DOUBLE_EQ(w.duration(), 500e-9);
  EXPECT_DOUBLE_EQ(w.time_of(2), 1e-9);
}

TEST(Waveform, RejectsBadSampleRate) {
  EXPECT_THROW(RealWaveform(10, 0.0), InvalidArgument);
  EXPECT_THROW(RealWaveform(10, -1.0), InvalidArgument);
}

TEST(Waveform, NormalizePower) {
  RealWaveform w({1.0, 2.0, 3.0, 4.0}, 1.0);
  w.normalize_power(2.0);
  EXPECT_NEAR(w.power(), 2.0, 1e-12);
}

TEST(Waveform, AddWithOffsetGrows) {
  RealWaveform a({1.0, 1.0}, 1.0);
  const RealWaveform b({2.0, 2.0}, 1.0);
  a.add(b, 3);
  ASSERT_EQ(a.size(), 5u);
  EXPECT_DOUBLE_EQ(a[0], 1.0);
  EXPECT_DOUBLE_EQ(a[2], 0.0);
  EXPECT_DOUBLE_EQ(a[3], 2.0);
}

TEST(Waveform, AddRejectsRateMismatch) {
  RealWaveform a(4, 1.0);
  const RealWaveform b(4, 2.0);
  EXPECT_THROW(a.add(b), InvalidArgument);
}

TEST(Waveform, SliceAndDelay) {
  RealWaveform w({1, 2, 3, 4, 5}, 1.0);
  const RealWaveform s = w.slice(1, 3);
  ASSERT_EQ(s.size(), 3u);
  EXPECT_DOUBLE_EQ(s[0], 2.0);
  EXPECT_THROW(w.slice(3, 5), InvalidArgument);

  w.delay_samples(2);
  ASSERT_EQ(w.size(), 7u);
  EXPECT_DOUBLE_EQ(w[0], 0.0);
  EXPECT_DOUBLE_EQ(w[2], 1.0);
}

}  // namespace
}  // namespace uwb
