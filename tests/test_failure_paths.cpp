// Failure-injection and edge-path tests: the receivers and estimators must
// degrade gracefully -- report "not acquired" / empty results -- rather
// than crash or fabricate data when their inputs are hostile.

#include <gtest/gtest.h>

#include <vector>

#include "channel/awgn.h"
#include "common/error.h"
#include "common/rng.h"
#include "estimation/channel_estimator.h"
#include "sim/scenario.h"
#include "txrx/link.h"

namespace uwb {
namespace {

// ------------------------------------------------------------- receivers ----

TEST(FailurePaths, Gen2NoiseOnlyCaptureDoesNotFalselyDecode) {
  // Pure noise in, no packet: the receiver must not report a healthy frame.
  txrx::Gen2Config config = sim::gen2_fast();
  Rng rng(1);
  txrx::Gen2Receiver receiver(config, rng);
  const txrx::Gen2Transmitter tx(config);

  // Build a reference frame purely for the layout bookkeeping.
  Rng tx_rng(2);
  const txrx::Gen2Train train = tx.transmit_train(tx_rng.bits(64));

  std::vector<double> noise_i(train.length, 0.0), noise_q(train.length, 0.0);
  channel::add_awgn(noise_i.data(), noise_q.data(), train.length, 1.0, rng);

  txrx::Gen2RxOptions options;
  options.noise_variance = 1.0;
  const auto result = receiver.receive(noise_i, noise_q, tx, train.frame, options, rng);
  // Either it fails to acquire, or whatever it "decodes" is garbage (half
  // the bits wrong on average); both are acceptable, silence is not.
  if (result.acquired) {
    EXPECT_GT(result.bit_errors, result.bits_compared / 4);
  } else {
    EXPECT_EQ(result.bits_compared, 0u);
  }
}

TEST(FailurePaths, Gen2TruncatedCaptureNotAcquired) {
  txrx::Gen2Config config = sim::gen2_fast();
  Rng rng(3);
  txrx::Gen2Receiver receiver(config, rng);
  const txrx::Gen2Transmitter tx(config);
  Rng tx_rng(4);
  const txrx::Gen2Train train = tx.transmit_train(tx_rng.bits(64));

  // Hand the receiver only a sliver of the packet.
  std::vector<double> sliver_i(200), sliver_q(200, 0.0);
  tx.synthesize(train, 0, sliver_i.size(), sliver_i.data());
  txrx::Gen2RxOptions options;
  const auto result = receiver.receive(sliver_i, sliver_q, tx, train.frame, options, rng);
  EXPECT_FALSE(result.acquired);
  EXPECT_EQ(result.bits_compared, 0u);
}

TEST(FailurePaths, Gen1TooShortCaptureReportsNoLock) {
  txrx::Gen1Config config = sim::gen1_nominal();
  Rng rng(5);
  txrx::Gen1Receiver receiver(config, rng);
  const txrx::Gen1Transmitter tx(config);

  // A capture shorter than one stage-2 window cannot be searched.
  const std::vector<float> stub(50000, 0.0f);
  const auto acq = receiver.acquire(stub, config.analog_fs, tx, txrx::Gen1RxOptions{}, rng);
  EXPECT_FALSE(acq.acquired);
}

TEST(FailurePaths, Gen2MistunedNotchOnlyCostsMargin) {
  // A notch placed far from the signal band must not break the link.
  txrx::Gen2Config config = sim::gen2_fast();
  txrx::Gen2Link link(config, 6);

  txrx::TrialOptions options;
  options.payload_bits = 200;
  options.ebn0_db = 16.0;
  // Interferer reported far out of band by forcing auto-notch with a tone
  // at the band edge.
  options.interferer = true;
  options.interferer_freq_hz = 420e6;
  options.interferer_sir_db = -10.0;
  options.auto_notch = true;
  std::size_t bits = 0, errors = 0;
  for (int p = 0; p < 4; ++p) {
    const auto trial = link.run_packet(options);
    bits += trial.bits;
    errors += trial.errors;
  }
  EXPECT_LT(static_cast<double>(errors) / static_cast<double>(bits), 0.05);
}

// ------------------------------------------------------------- estimation ----

TEST(FailurePaths, EstimatorOnSilenceReturnsEmpty) {
  estimation::ChannelEstimatorConfig config;
  const estimation::ChannelEstimator est(config);
  CplxWaveform silence(CplxVec(2000, cplx{}), 1e9);
  CplxVec tmpl(500, cplx{1.0, 0.0});
  const auto result = est.estimate(silence, tmpl, 0);
  EXPECT_TRUE(result.cir.empty());
  EXPECT_DOUBLE_EQ(result.peak_magnitude, 0.0);
}

TEST(FailurePaths, EstimatorRejectsDegenerateInputs) {
  estimation::ChannelEstimatorConfig config;
  const estimation::ChannelEstimator est(config);
  const CplxWaveform x(CplxVec(100, cplx{1.0, 0.0}), 1e9);
  EXPECT_THROW((void)est.estimate(x, CplxVec{}, 0), Error);             // empty template
  EXPECT_THROW((void)est.estimate(x, CplxVec(200, cplx{1.0, 0.0}), 0),  // template > buffer
               Error);
}

TEST(FailurePaths, EstimatorRejectsCoarseOffsetPastTheLastLag) {
  // 300 samples against a 100-sample template leave lags 0..200: a coarse
  // offset whose window starts past them must throw, not read past x.
  estimation::ChannelEstimatorConfig config;
  const estimation::ChannelEstimator est(config);
  const CplxWaveform x(CplxVec(300, cplx{1.0, 0.0}), 1e9);
  const CplxVec tmpl(100, cplx{1.0, 0.0});
  EXPECT_THROW((void)est.estimate(x, tmpl, 250), InvalidArgument);
  EXPECT_THROW((void)est.estimate(x, tmpl, 209), InvalidArgument);  // window starts at lag 201
  EXPECT_EQ(est.estimate(x, tmpl, 208).profile_start, 200u);       // the last lag alone
}

// ---------------------------------------------------------------- configs ----

TEST(FailurePaths, ReceiverRejectsInconsistentRates) {
  txrx::Gen2Config config = sim::gen2_fast();
  config.adc_rate = 8e9;  // above the analog rate
  Rng rng(7);
  EXPECT_THROW(txrx::Gen2Receiver(config, rng), Error);

  txrx::Gen1Config g1 = sim::gen1_nominal();
  g1.analog_fs = 1e9;  // below the ADC rate
  EXPECT_THROW(txrx::Gen1Receiver(g1, rng), Error);
}

TEST(FailurePaths, LinkCountsLostPacketsAsErrored) {
  // At absurdly low SNR the packet is lost; the accounting must charge
  // every bit rather than silently skipping the trial.
  txrx::Gen2Config config = sim::gen2_fast();
  txrx::Gen2Link link(config, 8);
  txrx::TrialOptions options;
  options.payload_bits = 100;
  options.ebn0_db = -30.0;
  const auto trial = link.run_packet(options);
  EXPECT_GT(trial.bits, 0u);
  EXPECT_GT(trial.errors, trial.bits / 4);
}

}  // namespace
}  // namespace uwb
