#include "txrx/receiver_gen1.h"

#include <algorithm>
#include <cmath>

#include "common/error.h"
#include "common/math_utils.h"
#include "dsp/correlator.h"
#include "dsp/filter_design.h"
#include "dsp/fir_filter.h"
#include "obs/profile.h"

namespace uwb::txrx {

Gen1Receiver::Gen1Receiver(const Gen1Config& config, Rng& rng)
    : config_(config),
      sampler_(adc::SamplingParams{config.adc_rate, config.aperture_jitter_rms_s, 0.0}),
      adc_(config.adc_lanes,
           adc::FlashParams{config.adc_bits, 1.0, config.comparator_offset_sigma},
           config.interleave, rng) {
  detail::require(config.analog_fs >= config.adc_rate,
                  "Gen1Receiver: analog rate must be >= ADC rate");
  anti_alias_taps_ =
      dsp::design_lowpass(0.45 * config.adc_rate, config.analog_fs, 63);
  // Per-lane timing skew happens at the sample-and-hold; the skews are
  // static converter mismatch, so build the table once.
  lane_skews_s_.resize(static_cast<std::size_t>(adc_.num_lanes()));
  for (int k = 0; k < adc_.num_lanes(); ++k) {
    lane_skews_s_[static_cast<std::size_t>(k)] = adc_.lane_skew_s(k);
  }
}

std::span<const float> Gen1Receiver::digitize_and_filter(const float* rx, std::size_t n,
                                                         double fs, const Gen1Transmitter& tx,
                                                         Rng& rng) {
  // Anti-alias lowpass at the converter's Nyquist edge: the analog front
  // end band-limits before the 2 GSps sampler. Runs the blocked gather FIR
  // into the packet arena, no allocation.
  obs::StageTimer fe_timer(obs::Stage::kRxFrontend, n);
  ws_filtered_.resize(n);
  dsp::convolve_same_to(rx, n, anti_alias_taps_, ws_filtered_.data());

  // AGC measurement on the filtered signal: a converged AGC loads the flash
  // at ~1/4 full scale rms (see rf::AgcParams). The scale itself commutes
  // with linear-interpolation sampling, so it is applied to the (2x
  // shorter) sampled stream below rather than here.
  // Four independent accumulators break the FP-add dependency chain (the
  // power estimate is an AGC model input, not a bit-exact contract).
  double p0 = 0.0, p1 = 0.0, p2 = 0.0, p3 = 0.0;
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const auto v0 = static_cast<double>(ws_filtered_[i]);
    const auto v1 = static_cast<double>(ws_filtered_[i + 1]);
    const auto v2 = static_cast<double>(ws_filtered_[i + 2]);
    const auto v3 = static_cast<double>(ws_filtered_[i + 3]);
    p0 += v0 * v0;
    p1 += v1 * v1;
    p2 += v2 * v2;
    p3 += v3 * v3;
  }
  for (; i < n; ++i) {
    const auto v = static_cast<double>(ws_filtered_[i]);
    p0 += v * v;
  }
  const double power_acc = (p0 + p1) + (p2 + p3);
  const double r = n > 0 ? std::sqrt(power_acc / static_cast<double>(n)) : 0.0;

  const std::size_t n_adc = sampler_.output_size(n, fs);
  ws_sampled_.resize(n_adc);
  sampler_.sample_interleaved_to(ws_filtered_.data(), n, fs, lane_skews_s_, rng,
                                 ws_sampled_.data());
  if (r > 0.0) {
    const auto gain = static_cast<float>(0.25 / r);
    for (std::size_t i = 0; i < n_adc; ++i) ws_sampled_[i] *= gain;
  }
  fe_timer.finish();

  obs::StageTimer adc_timer(obs::Stage::kAdcQuantize, n_adc);
  adc_.reset();
  ws_levels_.resize(n_adc);
  adc_.convert_block(ws_sampled_.data(), n_adc, ws_levels_.data());
  adc_timer.finish();

  // Matched filter with the monocycle.
  const obs::StageTimer mf_timer(obs::Stage::kCorrelateRake, n_adc);
  const RealVec& taps = tx.pulse_taps_adc();
  if (taps.empty() || n_adc < taps.size()) {
    ws_mf_.resize(0);
    return {};
  }
  ws_mf_.resize(n_adc - taps.size() + 1);
  dsp::correlate_to(ws_levels_.data(), n_adc, taps, ws_mf_.data());
  return {ws_mf_.data(), ws_mf_.size()};
}

Gen1AcqResult Gen1Receiver::acquire_on_mf(std::span<const float> mf,
                                          const Gen1Transmitter& tx) const {
  const obs::StageTimer acq_timer(obs::Stage::kSyncAcquire, mf.size());
  Gen1AcqResult result;
  const std::size_t F = config_.frame_samples_adc;
  const std::vector<double>& chips = tx.preamble_chips();
  const std::size_t pn_len = chips.size();
  const double frame_time = static_cast<double>(F) / config_.adc_rate;

  const auto k1 = static_cast<std::size_t>(config_.acq_integration_frames);
  const std::size_t num_frames = mf.size() / F;
  if (num_frames < 2 * k1 + pn_len + 1) {
    return result;  // capture too short to search
  }

  // ---- Stage 1: packet arrival + pulse phase -------------------------------
  // Square-law noncoherent combining over k1-frame groups: for each
  // candidate sample phase, sum mf^2 across the group's frames. In hardware
  // the correlator bank streams and a CFAR comparison against the measured
  // noise floor trips when the preamble arrives; here the running minimum
  // of earlier group metrics plays the noise-floor reference.
  struct Group {
    std::size_t phase = 0;
    double metric = 0.0;
  };
  std::vector<Group> groups;
  const std::size_t last_group = num_frames - k1 - pn_len;
  // Frame-major accumulation: the textbook phase-outer loop strides by F
  // through mf on every read; sweeping each frame contiguously into a bank
  // of per-phase accumulators touches the same values in the same per-phase
  // order (k ascending), so the metrics are bit-identical while the inner
  // loop vectorizes.
  ws_acq_.resize(F);
  for (std::size_t j0 = 0; j0 <= last_group; j0 += k1) {
    float* acc = ws_acq_.data();
    std::fill(acc, acc + F, 0.0f);
    for (std::size_t k = 0; k < k1; ++k) {
      const float* frame = mf.data() + (j0 + k) * F;
      for (std::size_t p = 0; p < F; ++p) {
        acc[p] += frame[p] * frame[p];
      }
    }
    Group g;
    for (std::size_t p = 0; p < F; ++p) {
      if (acc[p] > g.metric) {
        g.metric = acc[p];
        g.phase = p;
      }
    }
    groups.push_back(g);
  }
  // CFAR trip: first group whose metric rises 1.6x above the noise floor
  // seen so far. If nothing trips (e.g. the packet starts at the very
  // beginning of the capture and every group holds signal), fall back to
  // group zero -- which is then the correct arrival.
  std::size_t hit_group = 0;
  double floor_metric = groups.front().metric;
  for (std::size_t i = 1; i < groups.size(); ++i) {
    if (groups[i].metric >= 1.6 * floor_metric) {
      hit_group = i;
      break;
    }
    floor_metric = std::min(floor_metric, groups[i].metric);
  }
  // Phase from the strongest group at/after the trip (best phase SNR).
  std::size_t peak_group = hit_group;
  for (std::size_t i = hit_group; i < groups.size(); ++i) {
    if (groups[i].metric > groups[peak_group].metric) peak_group = i;
  }
  const std::size_t j0 = hit_group * k1;
  const std::size_t best_phase = groups[peak_group].phase;
  result.pulse_phase = best_phase;
  const std::size_t dwells1 = ceil_div(F, config_.acq_parallelism_stage1);

  // ---- Stage 2: code phase (cyclic correlation over the PN) ---------------
  // Per-frame despread samples starting right after the stage-1 window --
  // inside the preamble when the hit group is at its start. Integrating
  // past one PN period (acq_stage2_window_frames) sharpens the metric.
  const std::size_t start_frame = j0 + k1;
  const std::size_t window = std::min<std::size_t>(
      static_cast<std::size_t>(config_.acq_stage2_window_frames),
      num_frames > start_frame ? num_frames - start_frame : 0);
  if (window < pn_len) {
    return result;  // not enough capture left for stage 2
  }
  RealVec v(window);
  double v_energy = 0.0;
  for (std::size_t j = 0; j < window; ++j) {
    v[j] = mf[best_phase + (start_frame + j) * F];
    v_energy += v[j] * v[j];
  }
  std::size_t best_shift = 0;
  double best_corr = -1.0;
  for (std::size_t s = 0; s < pn_len; ++s) {
    double c = 0.0;
    for (std::size_t j = 0; j < window; ++j) {
      c += v[j] * chips[(j + s) % pn_len];
    }
    if (std::abs(c) > best_corr) {
      best_corr = std::abs(c);
      best_shift = s;
    }
  }
  const double denom =
      std::sqrt(std::max(v_energy, 1e-300) * static_cast<double>(window));
  result.stage2_metric = best_corr / denom;
  result.code_phase = best_shift;
  const std::size_t dwells2 = ceil_div(pn_len, config_.acq_parallelism_stage2);

  // Timing: with the preamble starting at frame u_f, the stage-2 window
  // sample v[j] = chip[(start_frame + j - u_f) mod pn], so the cyclic
  // correlation peaks at s = (start_frame - u_f) mod pn, giving
  // u_f = start_frame - s (mod pn).
  const std::size_t u_f =
      (start_frame + pn_len - (best_shift % pn_len)) % pn_len;
  result.timing_offset = best_phase + u_f * F;

  result.acquired = result.stage2_metric >= config_.acq_threshold;
  // Modeled real-time cost from preamble arrival: the stage-1 bank needs
  // ceil(F/P1) dwells of k1 frames to sweep all sample phases, then the
  // stage-2 bank ceil(pn/P2) observations of the integration window each.
  result.sync_time_s =
      static_cast<double>(dwells1) * static_cast<double>(k1) * frame_time +
      static_cast<double>(dwells2) * static_cast<double>(window) * frame_time;
  return result;
}

Gen1AcqResult Gen1Receiver::acquire(std::span<const float> rx, double fs,
                                    const Gen1Transmitter& tx, Rng& rng) {
  const std::span<const float> mf = digitize_and_filter(rx.data(), rx.size(), fs, tx, rng);
  return acquire_on_mf(mf, tx);
}

Gen1RxResult Gen1Receiver::receive(std::span<const float> rx, double fs,
                                   const Gen1Transmitter& tx, const TxFrame& tx_reference,
                                   const Gen1RxOptions& options, Rng& rng) {
  Gen1RxResult result;
  const std::span<const float> mf = digitize_and_filter(rx.data(), rx.size(), fs, tx, rng);
  const std::size_t F = config_.frame_samples_adc;

  std::size_t preamble_start = 0;
  if (options.genie_timing) {
    preamble_start = options.genie_offset;
    result.acq.acquired = true;
    result.acq.timing_offset = preamble_start;
  } else {
    result.acq = acquire_on_mf(mf, tx);
    if (!result.acq.acquired) return result;
    // The acquisition pins timing modulo one PN period; the packet's
    // preamble starts an integer number of periods earlier, which does not
    // matter for data timing because the data section begins a known number
    // of frames after *any* period boundary only if we also know which
    // period we latched. The SFD search below resolves that ambiguity.
    preamble_start = result.acq.timing_offset % (tx.preamble_chips().size() * F);
  }

  // Data section: locate via the known frame count (genie/period-resolved)
  // then despread each bit.
  const obs::StageTimer demod_timer(obs::Stage::kDemodDecide,
                                    tx_reference.frame_bits.size());
  const std::size_t data_start_frame_nominal =
      preamble_start / F + tx.preamble_frames();
  const auto ppb = static_cast<std::size_t>(config_.pulses_per_bit);
  const std::size_t num_bits = tx_reference.frame_bits.size();
  const std::vector<double>& spread = tx.spread_chips();
  const std::size_t pulse_phase = preamble_start % F;

  // SFD alignment: try candidate data-start frames offset by whole PN
  // periods (ambiguity left by acquisition) and pick the one whose SFD
  // correlation is strongest.
  const std::size_t period = tx.preamble_chips().size();
  std::size_t best_start = data_start_frame_nominal;
  if (!options.genie_timing) {
    const phy::PacketFramer framer(config_.packet);
    const BitVec& sfd = framer.sfd_bits();
    double best_sfd = -1.0;
    for (int shift = 0; shift <= config_.preamble_repetitions; ++shift) {
      const std::size_t cand =
          data_start_frame_nominal + static_cast<std::size_t>(shift) * period;
      double corr = 0.0;
      for (std::size_t b = 0; b < sfd.size(); ++b) {
        double soft = 0.0;
        for (std::size_t k = 0; k < ppb; ++k) {
          const std::size_t idx = pulse_phase + (cand + b * ppb + k) * F;
          if (idx < mf.size()) soft += spread[k % spread.size()] * mf[idx];
        }
        corr += (sfd[b] ? -1.0 : 1.0) * soft;
      }
      if (corr > best_sfd) {
        best_sfd = corr;
        best_start = cand;
      }
    }
  }

  // Despread and slice the data bits.
  result.data_bits.resize(num_bits);
  std::size_t errors = 0;
  for (std::size_t b = 0; b < num_bits; ++b) {
    double soft = 0.0;
    for (std::size_t k = 0; k < ppb; ++k) {
      const std::size_t idx = pulse_phase + (best_start + b * ppb + k) * F;
      if (idx < mf.size()) soft += spread[k % spread.size()] * mf[idx];
    }
    result.data_bits[b] = soft < 0.0 ? 1 : 0;
    if ((result.data_bits[b] != 0) != (tx_reference.frame_bits[b] != 0)) ++errors;
  }
  result.bit_errors = errors;
  result.bits_compared = num_bits;
  return result;
}

}  // namespace uwb::txrx
