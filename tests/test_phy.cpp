// Tests for bit utilities, LFSR, CRC, modulation and packet
// framing.

#include <gtest/gtest.h>

#include "common/error.h"
#include "common/rng.h"
#include "phy/bits.h"
#include "phy/crc.h"
#include "phy/modulation.h"
#include "phy/packet.h"
#include "phy/lfsr.h"

namespace uwb::phy {
namespace {

// ----------------------------------------------------------------- bits ----

TEST(Bits, UintRoundTrip) {
  const BitVec bits = uint_to_bits(0xDEADBEEF, 32);
  EXPECT_EQ(bits_to_uint(bits, 0, 32), 0xDEADBEEFu);
  EXPECT_EQ(bits_to_uint(bits, 0, 4), 0xDu);
}

TEST(Bits, HammingDistance) {
  EXPECT_EQ(hamming_distance({1, 0, 1}, {1, 1, 1}), 1u);
  EXPECT_EQ(hamming_distance({1, 0}, {1, 0, 1, 1}), 2u);  // length gap counts
  EXPECT_EQ(hamming_distance({}, {}), 0u);
}

// ----------------------------------------------------------------- lfsr ----

TEST(Lfsr, MSequencePeriodIsMaximal) {
  for (int degree : {3, 4, 5, 7, 9, 10}) {
    Lfsr lfsr(degree, msequence_taps(degree), 1);
    const uint32_t start = lfsr.state();
    std::size_t period = 0;
    do {
      (void)lfsr.step();
      ++period;
    } while (lfsr.state() != start && period < (1u << degree) + 2);
    EXPECT_EQ(period, (std::size_t{1} << degree) - 1) << "degree=" << degree;
  }
}

TEST(Lfsr, MSequenceBalance) {
  // m-sequences have 2^(d-1) ones and 2^(d-1)-1 zeros per period.
  const BitVec seq = msequence(7);
  std::size_t ones = 0;
  for (auto b : seq) ones += b;
  EXPECT_EQ(ones, 64u);
  EXPECT_EQ(seq.size(), 127u);
}

TEST(Lfsr, MSequenceAutocorrelationIsTwoValued) {
  // Periodic autocorrelation of a +/-1 m-sequence: N at shift 0, -1 else.
  const auto chips = to_chips(msequence(6));
  const std::size_t n = chips.size();
  for (std::size_t shift = 0; shift < n; ++shift) {
    double acc = 0.0;
    for (std::size_t i = 0; i < n; ++i) acc += chips[i] * chips[(i + shift) % n];
    if (shift == 0) {
      EXPECT_NEAR(acc, static_cast<double>(n), 1e-9);
    } else {
      EXPECT_NEAR(acc, -1.0, 1e-9) << "shift=" << shift;
    }
  }
}

TEST(Lfsr, RejectsBadConfigs) {
  EXPECT_THROW(Lfsr(1, 1, 1), InvalidArgument);
  EXPECT_THROW(Lfsr(4, 0, 1), InvalidArgument);
  EXPECT_THROW(Lfsr(4, 0b1100, 0), InvalidArgument);
  EXPECT_THROW(msequence_taps(2), InvalidArgument);
}

// ------------------------------------------------------------------ crc ----

TEST(Crc, Crc16KnownVector) {
  // CRC-16/CCITT-FALSE of ASCII "123456789" is 0x29B1.
  // The bit stream presents each byte MSB-first.
  const std::vector<uint8_t> msg = {'1', '2', '3', '4', '5', '6', '7', '8', '9'};
  BitVec msb_first;
  for (uint8_t byte : msg) {
    for (int b = 7; b >= 0; --b) msb_first.push_back((byte >> b) & 1u);
  }
  EXPECT_EQ(crc16_ccitt(msb_first), 0x29B1);
}

TEST(Crc, Crc32KnownVector) {
  // CRC-32 (IEEE, reflected) of ASCII "123456789" is 0xCBF43926. The
  // byte-oriented standard consumes each byte LSB-first, so present the
  // bits in that order to the bit-stream implementation.
  const std::vector<uint8_t> msg = {'1', '2', '3', '4', '5', '6', '7', '8', '9'};
  BitVec lsb_first;
  for (uint8_t byte : msg) {
    for (int b = 0; b < 8; ++b) lsb_first.push_back((byte >> b) & 1u);
  }
  EXPECT_EQ(crc32_ieee(lsb_first), 0xCBF43926u);
}

TEST(Crc, AppendCheckRoundTrip) {
  Rng rng(4);
  const BitVec data = rng.bits(123);
  EXPECT_TRUE(check_crc16(append_crc16(data)));
  EXPECT_TRUE(check_crc32(append_crc32(data)));
}

TEST(Crc, DetectsSingleBitErrors) {
  Rng rng(5);
  const BitVec data = rng.bits(64);
  BitVec coded16 = append_crc16(data);
  BitVec coded32 = append_crc32(data);
  for (std::size_t flip = 0; flip < coded16.size(); flip += 7) {
    BitVec corrupted = coded16;
    corrupted[flip] ^= 1;
    EXPECT_FALSE(check_crc16(corrupted)) << "flip=" << flip;
  }
  for (std::size_t flip = 0; flip < coded32.size(); flip += 11) {
    BitVec corrupted = coded32;
    corrupted[flip] ^= 1;
    EXPECT_FALSE(check_crc32(corrupted)) << "flip=" << flip;
  }
}

// ------------------------------------------------------------ modulation ----

class ModulationRoundTrip : public ::testing::TestWithParam<Modulation> {};

TEST_P(ModulationRoundTrip, NoiselessMapDemap) {
  const auto mod = make_modulator(GetParam(), 100e6);
  Rng rng(6);
  BitVec bits = rng.bits(64);
  while (bits.size() % static_cast<std::size_t>(mod->bits_per_symbol()) != 0) {
    bits.push_back(0);
  }
  const SymbolMapping map = mod->map(bits);

  // Build the noiseless correlator outputs the demapper expects.
  std::vector<double> soft;
  if (GetParam() == Modulation::kPpm) {
    for (std::size_t k = 0; k < map.weights.size(); ++k) {
      const bool late = map.time_offsets_s[k] > 0.0;
      soft.push_back(late ? 0.0 : 1.0);
      soft.push_back(late ? 1.0 : 0.0);
    }
  } else {
    soft = map.weights;
  }
  EXPECT_EQ(mod->demap(soft), bits);
}

TEST_P(ModulationRoundTrip, UnitAverageEnergy) {
  const auto mod = make_modulator(GetParam(), 100e6);
  Rng rng(7);
  BitVec bits = rng.bits(4096);
  while (bits.size() % static_cast<std::size_t>(mod->bits_per_symbol()) != 0) {
    bits.push_back(0);
  }
  const SymbolMapping map = mod->map(bits);
  double energy = 0.0;
  for (double w : map.weights) energy += w * w;
  const double per_bit = energy / static_cast<double>(bits.size());
  EXPECT_NEAR(per_bit, 1.0, 0.08) << "scheme " << to_string(GetParam());
}

INSTANTIATE_TEST_SUITE_P(AllSchemes, ModulationRoundTrip,
                         ::testing::Values(Modulation::kBpsk, Modulation::kOok,
                                           Modulation::kPpm, Modulation::kPam4));

TEST(Modulation, BpskMapping) {
  const auto mod = make_modulator(Modulation::kBpsk, 100e6);
  const SymbolMapping m = mod->map({0, 1});
  EXPECT_DOUBLE_EQ(m.weights[0], 1.0);
  EXPECT_DOUBLE_EQ(m.weights[1], -1.0);
}

TEST(Modulation, PpmOffsetIsHalfFrame) {
  const auto mod = make_modulator(Modulation::kPpm, 100e6);
  const SymbolMapping m = mod->map({0, 1});
  EXPECT_DOUBLE_EQ(m.time_offsets_s[0], 0.0);
  EXPECT_NEAR(m.time_offsets_s[1], 5e-9, 1e-15);
}

// --------------------------------------------------------------- packet ----

TEST(Packet, FrameLayout) {
  PacketFramer framer;
  Rng rng(8);
  const BitVec payload = rng.bits(100);
  const FramedPacket pkt = framer.frame(payload);
  EXPECT_EQ(pkt.preamble.size(), 127u * 4u);
  EXPECT_EQ(pkt.sfd.size(), 16u);
  EXPECT_EQ(pkt.header.size(), 32u);          // 16-bit length + CRC-16
  EXPECT_EQ(pkt.payload.size(), 132u);        // payload + CRC-32
  EXPECT_EQ(pkt.total_bits(),
            pkt.preamble.size() + pkt.sfd.size() + pkt.header.size() + pkt.payload.size());
}

TEST(Packet, DeframeRecoversPayload) {
  PacketFramer framer;
  Rng rng(9);
  const BitVec payload = rng.bits(64);
  const FramedPacket pkt = framer.frame(payload);
  BitVec post_sfd = pkt.header;
  post_sfd.insert(post_sfd.end(), pkt.payload.begin(), pkt.payload.end());
  const auto result = framer.deframe(post_sfd);
  ASSERT_TRUE(result.has_value());
  EXPECT_TRUE(result->header_ok);
  EXPECT_TRUE(result->payload_ok);
  EXPECT_EQ(result->payload, payload);
  EXPECT_EQ(result->payload_bits, 64u);
}

TEST(Packet, DeframeRejectsCorruptHeader) {
  PacketFramer framer;
  const FramedPacket pkt = framer.frame(BitVec(32, 1));
  BitVec post_sfd = pkt.header;
  post_sfd[3] ^= 1;  // corrupt the length field
  post_sfd.insert(post_sfd.end(), pkt.payload.begin(), pkt.payload.end());
  EXPECT_FALSE(framer.deframe(post_sfd).has_value());
}

TEST(Packet, DeframeFlagsCorruptPayload) {
  PacketFramer framer;
  const FramedPacket pkt = framer.frame(BitVec(32, 0));
  BitVec post_sfd = pkt.header;
  BitVec body = pkt.payload;
  body[10] ^= 1;
  post_sfd.insert(post_sfd.end(), body.begin(), body.end());
  const auto result = framer.deframe(post_sfd);
  ASSERT_TRUE(result.has_value());
  EXPECT_TRUE(result->header_ok);
  EXPECT_FALSE(result->payload_ok);
}

TEST(Packet, PreambleIsRepeatedPn) {
  PacketConfig config;
  config.preamble_msequence_degree = 5;
  config.preamble_repetitions = 3;
  PacketFramer framer(config);
  EXPECT_EQ(framer.preamble_period().size(), 31u);
  EXPECT_EQ(framer.preamble_bits().size(), 93u);
  for (std::size_t i = 0; i < 31; ++i) {
    EXPECT_EQ(framer.preamble_bits()[i], framer.preamble_bits()[i + 31]);
    EXPECT_EQ(framer.preamble_bits()[i], framer.preamble_bits()[i + 62]);
  }
}

}  // namespace
}  // namespace uwb::phy
