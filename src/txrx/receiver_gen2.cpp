#include "txrx/receiver_gen2.h"

#include <algorithm>
#include <cmath>

#include "adc/quantizer.h"
#include "common/error.h"
#include "common/math_utils.h"
#include "dsp/aligned.h"
#include "dsp/correlator.h"
#include "equalizer/demodulator.h"
#include "equalizer/mlse.h"
#include "equalizer/rake.h"
#include "estimation/snr_estimator.h"
#include "obs/profile.h"
#include "phy/modulation.h"

namespace uwb::txrx {

Gen2Receiver::Gen2Receiver(const Gen2Config& config, Rng& rng)
    : config_(config),
      plan_(),
      front_end_(config.front_end, plan_),
      sampler_(adc::SamplingParams{config.adc_rate, config.aperture_jitter_rms_s, 0.0}),
      adc_i_(config.sar, rng),
      adc_q_(config.sar, rng),
      estimator_(config.chanest),
      monitor_(estimation::SpectralMonitorConfig{1024, 12.0, 4}) {
  detail::require(config.analog_fs >= config.adc_rate,
                  "Gen2Receiver: analog rate must be >= ADC rate");
  detail::require(config.adc_rate >= config.prf_hz,
                  "Gen2Receiver: ADC rate must cover the PRF");
  payload_mod_ = phy::make_modulator(config_.modulation, config_.prf_hz);
  payload_mod_prf_hz_ = config_.prf_hz;
}

const phy::Modulator& Gen2Receiver::payload_modulator() {
  // PPM bakes the position offset from the PRF, so the PRF is part of the
  // staleness key alongside the scheme.
  if (payload_mod_ == nullptr || payload_mod_->scheme() != config_.modulation ||
      payload_mod_prf_hz_ != config_.prf_hz) {
    payload_mod_ = phy::make_modulator(config_.modulation, config_.prf_hz);
    payload_mod_prf_hz_ = config_.prf_hz;
  }
  return *payload_mod_;
}

namespace {

/// The gen-2 receive chain's sample arenas. Per thread, not per receiver:
/// a thread runs one packet at a time and every pass rewrites all it reads,
/// so sharing them across the links a worker builds point after point
/// cannot couple results -- while the buffers are allocated once per worker
/// and then grow only to the largest capture seen, instead of being
/// reallocated with every link.
struct RxArenas {
  dsp::IqArena replay;   ///< untouched capture for the auto-notch re-run
  dsp::IqArena levels;   ///< sampled rails, quantized in place to ADC levels
  CplxWaveform adc_out;  ///< levels interleaved for the digital back end
  CplxWaveform mf_out;   ///< matched-filter output for the RAKE
};

RxArenas& rx_arenas() {
  thread_local RxArenas arenas;
  return arenas;
}

/// Re-labels \p wave with sample rate \p fs, keeping its buffer.
void set_rate(CplxWaveform& wave, double fs) {
  wave = CplxWaveform(std::move(wave.samples()), fs);
}

}  // namespace

void Gen2Receiver::run_analog_digital(std::span<double> rx_i, std::span<double> rx_q,
                                      double noise_variance, Rng& rng) {
  RxArenas& a = rx_arenas();
  obs::StageTimer fe_timer(obs::Stage::kRxFrontend, rx_i.size());
  const double fs = front_end_.params().analog_fs;
  front_end_.process_baseband(rx_i.data(), rx_q.data(), rx_i.size(), noise_variance, rng);
  a.levels.resize(sampler_.output_size(rx_i.size(), fs));
  const std::size_t n = sampler_.sample_iq_to(rx_i.data(), rx_q.data(), rx_i.size(), fs, rng,
                                              a.levels.i.data(), a.levels.q.data());
  fe_timer.finish();
  const obs::StageTimer adc_timer(obs::Stage::kAdcQuantize, n);
  adc_i_.digitize_to(a.levels.i.data(), n, a.levels.i.data());
  adc_q_.digitize_to(a.levels.q.data(), n, a.levels.q.data());
  a.levels.store(a.adc_out.samples());
  set_rate(a.adc_out, config_.adc_rate);
}

Gen2RxResult Gen2Receiver::receive(const CplxWaveform& rx, const Gen2Transmitter& tx,
                                   const TxFrame& tx_reference, const Gen2RxOptions& options,
                                   Rng& rng, const BitVec* expected_payload) {
  detail::require(rx.sample_rate() == front_end_.params().analog_fs,
                  "FrontEnd::process_baseband: configure analog_fs to match the input");
  dsp::IqArena split;
  split.load(rx.samples().data(), rx.size());
  return receive({split.i.data(), rx.size()}, {split.q.data(), rx.size()}, tx, tx_reference,
                 options, rng, expected_payload);
}

Gen2RxResult Gen2Receiver::receive(std::span<double> rx_i, std::span<double> rx_q,
                                   const Gen2Transmitter& tx, const TxFrame& tx_reference,
                                   const Gen2RxOptions& options, Rng& rng,
                                   const BitVec* expected_payload) {
  detail::require(rx_i.size() == rx_q.size(), "Gen2Receiver: I/Q rail length mismatch");
  Gen2RxResult result;
  front_end_.clear_notch();
  RxArenas& arenas = rx_arenas();

  // ---- Analog front end + sampling + conversion --------------------------
  // The chain overwrites the capture, so a packet that may be reprocessed
  // with the notch keeps an untouched copy.
  const bool may_replay = options.run_spectral_monitor && options.auto_notch;
  if (may_replay) {
    arenas.replay.resize(rx_i.size());
    std::copy(rx_i.begin(), rx_i.end(), arenas.replay.i.data());
    std::copy(rx_q.begin(), rx_q.end(), arenas.replay.q.data());
  }
  Rng analog_rng = rng.fork(0xA11A);
  Rng analog_rng_replay = analog_rng;  // identical stream for the notch re-run
  run_analog_digital(rx_i, rx_q, options.noise_variance, analog_rng);
  const CplxWaveform& adc_out = arenas.adc_out;

  // ---- Spectral monitoring (digital back end) ----------------------------
  if (options.run_spectral_monitor && adc_out.size() >= monitor_.config().fft_size) {
    result.interferer = monitor_.analyze(adc_out);
    if (result.interferer.detected && options.auto_notch) {
      // The monitor's estimate drives the front-end notch; the packet is
      // reprocessed through the (analog) chain with the notch engaged.
      front_end_.set_notch(result.interferer.frequency_hz, config_.analog_fs);
      run_analog_digital({arenas.replay.i.data(), rx_i.size()},
                         {arenas.replay.q.data(), rx_q.size()}, options.noise_variance,
                         analog_rng_replay);
      result.notch_applied = true;
    }
  }

  // ---- Acquisition + channel estimation -----------------------------------
  const CplxVec& preamble_tmpl = tx.preamble_template_adc();
  if (adc_out.size() < preamble_tmpl.size() + 16) {
    return result;  // capture too short; not acquired
  }
  obs::StageTimer acq_timer(obs::Stage::kSyncAcquire, adc_out.size());
  const estimation::ChannelEstimate est =
      estimator_.estimate(adc_out, preamble_tmpl, options.genie_timing ? options.genie_offset : 0);
  acq_timer.finish();
  result.channel_estimate = est.cir;
  result.timing_offset = est.reference_offset;
  if (est.cir.empty() || est.peak_magnitude <= 0.0) {
    return result;  // nothing found
  }
  result.acquired = true;

  // ---- Matched filter ------------------------------------------------------
  // One real correlation per rail against the real pulse taps: with a real
  // template, x * conj(t) is two independent real products, so each rail
  // is exactly the direct complex correlation's.
  obs::StageTimer mf_timer(obs::Stage::kCorrelateRake, adc_out.size());
  const RealVec& taps = tx.pulse_taps_adc();
  const std::size_t lags =
      taps.empty() || adc_out.size() < taps.size() ? 0 : adc_out.size() - taps.size() + 1;
  CplxVec& mf = arenas.mf_out.samples();
  mf.resize(lags);
  constexpr std::size_t kBlock = 256;
  double mf_i[kBlock];
  double mf_q[kBlock];
  for (std::size_t j0 = 0; j0 < lags; j0 += kBlock) {
    const std::size_t count = std::min(kBlock, lags - j0);
    dsp::dot_bank(arenas.levels.i.data() + j0, count, taps.data(), taps.size(), mf_i);
    dsp::dot_bank(arenas.levels.q.data() + j0, count, taps.data(), taps.size(), mf_q);
    for (std::size_t t = 0; t < count; ++t) mf[j0 + t] = {mf_i[t], mf_q[t]};
  }
  set_rate(arenas.mf_out, config_.adc_rate);
  const CplxWaveform& y = arenas.mf_out;
  mf_timer.finish();

  // ---- Symbol bookkeeping --------------------------------------------------
  const std::size_t sps = config_.samples_per_bit_adc();
  const std::size_t t0 = result.timing_offset;
  const phy::Modulator& payload_mod = payload_modulator();
  const std::size_t overhead_symbols = tx_reference.overhead_symbols;
  const std::size_t payload_symbols = tx_reference.payload_symbols;
  const std::size_t total_symbols = overhead_symbols + payload_symbols;
  if (t0 + total_symbols * sps >= y.size()) {
    result.acquired = false;  // timing points past the capture
    return result;
  }

  // ---- RAKE / MF demodulation over the whole frame -------------------------
  const equalizer::SymbolTiming all_timing{t0, sps, total_symbols};
  const equalizer::RakeReceiver rake(config_.rake, est.cir, config_.adc_rate);
  result.rake_energy_capture = rake.energy_capture();

  obs::StageTimer rake_timer(obs::Stage::kCorrelateRake, total_symbols);
  std::vector<double> soft_all;
  if (config_.use_rake) {
    soft_all = rake.demodulate(y, all_timing);
  } else {
    // Single-finger matched filter on the strongest estimated path.
    const channel::Cir strongest = est.cir.strongest(1);
    const cplx w = strongest.taps().empty() ? cplx{1.0, 0.0} : strongest.taps().front().gain;
    const auto d = strongest.taps().empty()
                       ? std::size_t{0}
                       : static_cast<std::size_t>(
                             std::llround(strongest.taps().front().delay_s * config_.adc_rate));
    equalizer::SymbolTiming shifted = all_timing;
    shifted.t0 += d;
    soft_all = equalizer::matched_filter_soft(y, shifted, w);
  }
  rake_timer.finish();

  const obs::StageTimer demod_timer(obs::Stage::kDemodDecide, payload_symbols);

  // ---- Data-aided amplitude / SNR reference from the preamble --------------
  const BitVec& preamble_bits = tx.framer().preamble_bits();
  std::vector<double> aligned;
  aligned.reserve(std::min<std::size_t>(preamble_bits.size(), overhead_symbols));
  for (std::size_t m = 0; m < preamble_bits.size() && m < overhead_symbols; ++m) {
    const double sign = preamble_bits[m] ? -1.0 : 1.0;
    aligned.push_back(sign * soft_all[m]);
  }
  double amp_ref = 0.0;
  for (double v : aligned) amp_ref += v;
  amp_ref /= std::max<std::size_t>(aligned.size(), 1);
  result.amplitude_reference = amp_ref;
  if (aligned.size() >= 2) {
    result.snr_estimate_db = to_db(std::max(estimation::snr_data_aided(aligned), 1e-12));
  }

  // ---- Payload demodulation -------------------------------------------------
  BitVec decoded_body;
  const equalizer::SymbolTiming pay_timing{t0 + overhead_symbols * sps, sps, payload_symbols};

  const bool mlse_possible = config_.use_mlse && !options.bypass_mlse &&
                             config_.modulation == phy::Modulation::kBpsk;
  bool mlse_done = false;
  if (mlse_possible) {
    // Viterbi demodulation runs on the RAKE combiner's symbol stream: the
    // channel estimate sets the fingers (energy capture), the trellis
    // resolves the residual ISI. The effective symbol-spaced response of
    // channel + combiner is learned data-aided on the known preamble -- PN
    // balance makes the correlation estimate nearly least-squares.
    const int memory = config_.mlse.memory;
    std::vector<cplx> g(static_cast<std::size_t>(memory) + 1, cplx{});
    std::size_t count = 0;
    for (std::size_t m = static_cast<std::size_t>(memory);
         m < preamble_bits.size() && m < overhead_symbols; ++m) {
      for (int l = 0; l <= memory; ++l) {
        const double a = preamble_bits[m - static_cast<std::size_t>(l)] ? -1.0 : 1.0;
        g[static_cast<std::size_t>(l)] += cplx(soft_all[m] * a, 0.0);
      }
      ++count;
    }
    if (count > 0) {
      for (auto& v : g) v /= static_cast<double>(count);
    }
    if (count > 16 && std::abs(g[0]) > 1e-9) {
      CplxVec obs(payload_symbols);
      for (std::size_t m = 0; m < payload_symbols; ++m) {
        obs[m] = cplx(soft_all[overhead_symbols + m], 0.0);
      }
      const equalizer::MlseDemodulator mlse(config_.mlse, g);
      decoded_body = mlse.demodulate(obs);
      mlse_done = true;
    }
  }

  if (!mlse_done) {
    std::vector<double> soft_pay;
    if (config_.modulation == phy::Modulation::kPpm) {
      const std::size_t ppm_off = sps / 2;
      soft_pay = config_.use_rake
                     ? rake.demodulate_ppm(y, pay_timing, ppm_off)
                     : equalizer::matched_filter_soft_ppm(y, pay_timing, ppm_off);
    } else {
      soft_pay.assign(soft_all.begin() + static_cast<std::ptrdiff_t>(overhead_symbols),
                      soft_all.begin() +
                          static_cast<std::ptrdiff_t>(overhead_symbols + payload_symbols));
      // Amplitude normalization for threshold demappers (OOK / 4-PAM).
      if (std::abs(amp_ref) > 1e-12) {
        for (auto& v : soft_pay) v /= amp_ref;
      }
    }
    result.payload_soft = soft_pay;  // outer FEC decoders want the soft stream
    decoded_body = payload_mod.demap(soft_pay);
  }

  // ---- Error accounting -------------------------------------------------------
  const std::size_t body_start = tx_reference.frame_bits.size() - tx_reference.body_bits;
  const BitVec* truth = expected_payload;
  BitVec tx_body;
  if (truth == nullptr) {
    tx_body.assign(tx_reference.frame_bits.begin() + static_cast<std::ptrdiff_t>(body_start),
                   tx_reference.frame_bits.end());
    truth = &tx_body;
  }
  const std::size_t n_cmp = std::min(decoded_body.size(), truth->size());
  std::size_t errors = 0;
  for (std::size_t i = 0; i < n_cmp; ++i) {
    if ((decoded_body[i] != 0) != ((*truth)[i] != 0)) ++errors;
  }
  result.bit_errors = errors + (truth->size() - n_cmp);
  result.bits_compared = truth->size();
  result.payload.assign(decoded_body.begin(),
                        decoded_body.begin() +
                            static_cast<std::ptrdiff_t>(std::min(decoded_body.size(),
                                                                 tx_reference.payload.size())));
  return result;
}

}  // namespace uwb::txrx
