// Tests for the convolutional encoder and Viterbi decoder.

#include <gtest/gtest.h>

#include "common/error.h"
#include "common/rng.h"
#include "fec/convolutional.h"
#include "fec/viterbi_decoder.h"
#include "phy/bits.h"

namespace uwb::fec {
namespace {

TEST(ConvEncoder, RateAndLength) {
  const ConvEncoder enc(ConvCode{});
  const BitVec coded = enc.encode(BitVec{1, 0, 1, 1});
  // (4 info + 2 tail) * 2 outputs.
  EXPECT_EQ(coded.size(), 12u);
}

TEST(ConvEncoder, KnownK3Sequence) {
  // (7,5) K=3 code, input 1011 from state 0. Register = [newest | s1 s0].
  const ConvEncoder enc(ConvCode{});
  // Hand-computed branches: g0 = 111, g1 = 101.
  //  in=1, s=00: reg=100 -> g0: 1, g1: 1
  EXPECT_EQ(enc.branch_output(0b00, 1), 0b11u);
  //  in=0, s=10 (prev input 1): reg=010 -> g0: 1, g1: 0
  EXPECT_EQ(enc.branch_output(0b10, 0), 0b01u);
  EXPECT_EQ(enc.next_state(0b00, 1), 0b10);
  EXPECT_EQ(enc.next_state(0b10, 0), 0b01);
}

TEST(ConvEncoder, RejectsBadGenerators) {
  ConvCode bad;
  bad.constraint_length = 3;
  bad.generators = {0b1111};  // wider than K
  EXPECT_THROW(ConvEncoder{bad}, InvalidArgument);
  bad.generators = {};
  EXPECT_THROW(ConvEncoder{bad}, InvalidArgument);
}

class CodeRoundTrip : public ::testing::TestWithParam<int> {
 protected:
  ConvCode code() const {
    switch (GetParam()) {
      case 0: return ConvCode{};
      case 1: return k7_rate_half();
      default: return ConvCode{3, {0b111, 0b111, 0b101}};
    }
  }
};

TEST_P(CodeRoundTrip, NoiselessDecode) {
  const ConvCode cc = code();
  const ConvEncoder enc(cc);
  const ViterbiDecoder dec(cc);
  Rng rng(1);
  const BitVec info = rng.bits(200);
  const BitVec coded = enc.encode(info);
  EXPECT_EQ(dec.decode_hard(coded), info);
}

TEST_P(CodeRoundTrip, CorrectsScatteredErrors) {
  const ConvCode cc = code();
  const ConvEncoder enc(cc);
  const ViterbiDecoder dec(cc);
  Rng rng(2);
  const BitVec info = rng.bits(300);
  BitVec coded = enc.encode(info);
  // Flip isolated bits far apart (beyond the code's memory each time).
  for (std::size_t i = 10; i + 1 < coded.size(); i += 40) {
    coded[i] ^= 1;
  }
  EXPECT_EQ(dec.decode_hard(coded), info);
}

INSTANTIATE_TEST_SUITE_P(Codes, CodeRoundTrip, ::testing::Values(0, 1, 2));

TEST(Viterbi, SoftBeatsHardOverAwgn) {
  // Classic ~2 dB soft-decision gain: at a noise level where hard decoding
  // stumbles, soft decoding should do strictly better (statistically).
  const ConvCode cc = ConvCode{};
  const ConvEncoder enc(cc);
  const ViterbiDecoder dec(cc);
  Rng rng(3);

  std::size_t hard_errors = 0, soft_errors = 0;
  const int packets = 60;
  for (int p = 0; p < packets; ++p) {
    const BitVec info = rng.bits(120);
    const BitVec coded = enc.encode(info);
    // BPSK over AWGN at low SNR.
    std::vector<double> llr(coded.size());
    BitVec hard(coded.size());
    for (std::size_t i = 0; i < coded.size(); ++i) {
      const double tx_symbol = coded[i] ? -1.0 : 1.0;
      const double r = tx_symbol + rng.gaussian(0.0, 0.8);
      llr[i] = r;
      hard[i] = r < 0.0 ? 1 : 0;
    }
    soft_errors += phy::hamming_distance(dec.decode_soft(llr), info);
    hard_errors += phy::hamming_distance(dec.decode_hard(hard), info);
  }
  EXPECT_LT(soft_errors, hard_errors);
}

TEST(Viterbi, SoftDecodeNoiseless) {
  const ConvCode cc = k7_rate_half();
  const ConvEncoder enc(cc);
  const ViterbiDecoder dec(cc);
  Rng rng(4);
  const BitVec info = rng.bits(64);
  const BitVec coded = enc.encode(info);
  std::vector<double> llr(coded.size());
  for (std::size_t i = 0; i < coded.size(); ++i) llr[i] = coded[i] ? -1.0 : 1.0;
  EXPECT_EQ(dec.decode_soft(llr), info);
}

TEST(Viterbi, RejectsMisalignedInput) {
  const ViterbiDecoder dec(ConvCode{});
  EXPECT_THROW((void)dec.decode_hard(BitVec(13, 0)), Error);   // odd length
  EXPECT_THROW((void)dec.decode_hard(BitVec(4, 0)), Error);    // shorter than tail
}

TEST(Viterbi, CorrectionImprovesWithConstraintLength) {
  // At a fixed raw BER, K=7 should beat K=3 (stronger code).
  Rng rng(5);
  auto run = [&rng](const ConvCode& cc) {
    const ConvEncoder enc(cc);
    const ViterbiDecoder dec(cc);
    std::size_t errors = 0;
    for (int p = 0; p < 40; ++p) {
      const BitVec info = rng.bits(150);
      std::vector<double> llr;
      const BitVec coded = enc.encode(info);
      llr.reserve(coded.size());
      for (auto b : coded) llr.push_back((b ? -1.0 : 1.0) + rng.gaussian(0.0, 0.9));
      errors += phy::hamming_distance(dec.decode_soft(llr), info);
    }
    return errors;
  };
  const std::size_t e_k3 = run(ConvCode{});
  const std::size_t e_k7 = run(k7_rate_half());
  EXPECT_LT(e_k7, e_k3);
}

}  // namespace
}  // namespace uwb::fec
