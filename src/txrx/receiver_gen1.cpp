#include "txrx/receiver_gen1.h"

#include <algorithm>
#include <cmath>
#include <tuple>

#include "common/error.h"
#include "common/math_utils.h"
#include "dsp/aligned.h"
#include "dsp/correlator.h"
#include "dsp/filter_design.h"
#include "dsp/fir_filter.h"
#include "obs/profile.h"

namespace uwb::txrx {

namespace {

/// The gen-1 receive chain's sample buffers, 64-byte-aligned and grow-only.
/// Per thread, not per receiver, as on gen-2: a thread runs one pass at a
/// time and every pass rewrites all it reads, so receivers sharing them on
/// one thread cannot couple results, and a worker maps them once per run
/// instead of once per link. Single precision: the modeled front end is a
/// 4-bit converter behind an AGC, so float's 24-bit mantissa is ~20 bits
/// beyond the physics while doubling SIMD width through the filter,
/// sampler, converter and matched filter. Each holds only what the windows
/// need: a genie-timed packet keeps a few dozen samples per data pulse, the
/// whole capture only a dense pass.
struct Gen1RxArenas {
  dsp::AlignedVec<float> kept;     ///< FIR outputs the windows sample
  dsp::AlignedVec<float> sampled;  ///< sampled windows, then AGC-scaled
  dsp::AlignedVec<float> levels;   ///< converter output levels
  dsp::AlignedVec<float> mf;       ///< matched-filter outputs (Gen1MfView)
  dsp::AlignedVec<float> acq;      ///< stage-1 phase accumulators
};

Gen1RxArenas& rx_arenas() {
  thread_local Gen1RxArenas arenas;
  return arenas;
}

}  // namespace

const float* Gen1MfView::find(std::size_t idx) const noexcept {
  // The last run starting at or before idx.
  const auto it = std::upper_bound(runs.begin(), runs.end(), idx,
                                   [](std::size_t i, const Run& r) { return i < r.begin; });
  if (it == runs.begin()) return nullptr;
  const Run& run = *(it - 1);
  return idx < run.end ? values.data() + run.offset + (idx - run.begin) : nullptr;
}

std::span<const float> Gen1MfView::dense() const noexcept {
  if (runs.size() != 1 || runs.front().begin != 0) return {};
  return values.subspan(runs.front().offset, runs.front().end);
}

Gen1Receiver::Gen1Receiver(const Gen1Config& config, Rng& rng)
    : config_(config),
      sampler_(adc::SamplingParams{config.adc_rate, config.aperture_jitter_rms_s, 0.0}),
      adc_(config.adc_lanes,
           adc::FlashParams{config.adc_bits, 1.0, config.comparator_offset_sigma},
           config.interleave, rng) {
  detail::require(config.analog_fs >= config.adc_rate,
                  "Gen1Receiver: analog rate must be >= ADC rate");
  const RealVec taps = dsp::design_lowpass(0.45 * config.adc_rate, config.analog_fs, 63);
  anti_alias_rev_f_.assign(taps.rbegin(), taps.rend());  // float, as the FIR runs
  for (const float h : anti_alias_rev_f_) {
    anti_alias_energy_ += static_cast<double>(h) * static_cast<double>(h);
  }
  // Per-lane timing skew happens at the sample-and-hold; the skews are
  // static converter mismatch, so build the table once.
  lane_skews_s_.resize(static_cast<std::size_t>(adc_.num_lanes()));
  for (int k = 0; k < adc_.num_lanes(); ++k) {
    lane_skews_s_[static_cast<std::size_t>(k)] = adc_.lane_skew_s(k);
  }
}

std::span<const AdcWindow> Gen1Receiver::decision_windows(std::size_t n, double fs,
                                                          const Gen1Transmitter& tx,
                                                          std::size_t num_bits,
                                                          const Gen1RxOptions& options) {
  const std::size_t n_adc = sampler_.output_size(n, fs);
  const std::size_t taps = tx.pulse_taps_adc().size();
  ws_decision_.clear();
  if (!options.genie_timing || !sampler_.lane_plan(fs, lane_skews_s_) || taps == 0 ||
      n_adc < taps) {
    ws_decision_.push_back(AdcWindow{0, n_adc});
    return ws_decision_;
  }
  // The despread loop of receive() reads exactly these outputs.
  const std::size_t F = config_.frame_samples_adc;
  const auto ppb = static_cast<std::size_t>(config_.pulses_per_bit);
  const std::size_t data_start = options.genie_offset / F + tx.preamble_frames();
  const std::size_t pulse_phase = options.genie_offset % F;
  const std::size_t mf_size = n_adc - taps + 1;
  for (std::size_t p = 0; p < num_bits * ppb; ++p) {
    const std::size_t idx = pulse_phase + (data_start + p) * F;
    if (idx >= mf_size) break;
    ws_decision_.push_back(AdcWindow{idx, idx + taps});
  }
  return ws_decision_;
}

double Gen1Receiver::filtered_energy(const RealVec& g) const {
  // Full convolution y = h * g; the reversed taps read forwards are h.
  const std::size_t h_len = anti_alias_rev_f_.size();
  if (g.empty() || h_len == 0) return 0.0;
  double energy = 0.0;
  for (std::size_t k = 0; k + 1 < h_len + g.size(); ++k) {
    const std::size_t m_lo = k + 1 > g.size() ? k + 1 - g.size() : 0;
    const std::size_t m_hi = std::min(h_len, k + 1);
    double y = 0.0;
    for (std::size_t m = m_lo; m < m_hi; ++m) {
      y += static_cast<double>(anti_alias_rev_f_[h_len - 1 - m]) * g[k - m];
    }
    energy += y * y;
  }
  return energy;
}

double Gen1Receiver::expected_rms(const Gen1AgcModel& agc, std::size_t n) const {
  if (n == 0) return 0.0;
  const double power = (agc.pulse_energy * agc.filtered_kernel_energy +
                        0.5 * agc.n0 * anti_alias_energy_ * static_cast<double>(n)) /
                       static_cast<double>(n);
  return std::sqrt(power);
}

void Gen1Receiver::fill_thread_buffers(float value) {
  Gen1RxArenas& a = rx_arenas();
  for (dsp::AlignedVec<float>* buf : {&a.kept, &a.sampled, &a.levels, &a.mf, &a.acq}) {
    const std::size_t size = buf->size();
    buf->resize(buf->capacity());
    std::fill(buf->begin(), buf->end(), value);
    buf->resize(size);
  }
}

std::span<const IndexRange> Gen1Receiver::input_spans(std::size_t n, double fs,
                                                      std::span<const AdcWindow> windows) {
  const std::size_t n_adc = sampler_.output_size(n, fs);
  ws_spans_.clear();
  const std::optional<LanePlan> plan = sampler_.lane_plan(fs, lane_skews_s_);
  if (!plan || (windows.size() == 1 && windows.front().begin == 0 &&
                windows.front().end >= n_adc)) {
    ws_spans_.push_back(IndexRange{0, n});
    return ws_spans_;
  }
  // FIR output j reads the inputs [j - lead, j + start] (dsp::convolve_same_range).
  const std::size_t h_len = anti_alias_rev_f_.size();
  const std::size_t start = (h_len - 1) / 2;
  const std::size_t lead = h_len - 1 - start;
  (void)plan_windows(windows, n, n_adc, &*plan);
  for (const Window& w : ws_windows_) {
    const std::size_t begin = w.in_begin > lead ? w.in_begin - lead : 0;
    const std::size_t end = std::min(n, w.in_end + start);
    if (!ws_spans_.empty() && begin <= ws_spans_.back().end) {
      ws_spans_.back().end = std::max(ws_spans_.back().end, end);
    } else {
      ws_spans_.push_back(IndexRange{begin, end});
    }
  }
  return ws_spans_;
}

std::pair<std::size_t, std::size_t> Gen1Receiver::plan_windows(
    std::span<const AdcWindow> windows, std::size_t n, std::size_t n_adc, const LanePlan* plan) {
  // Windows start on lane 0 and span whole lane patterns, so the converter
  // runs its pattern-blocked path; lanes are absolute index mod num_lanes.
  const auto lanes = static_cast<std::size_t>(adc_.num_lanes());
  ws_windows_.clear();
  std::size_t prev_begin = 0;
  for (const AdcWindow& w : windows) {
    // Not detail::require: its message string would be built per window.
    if (w.begin < prev_begin) throw InvalidArgument("Gen1Receiver: windows must ascend");
    prev_begin = w.begin;
    const std::size_t begin = std::min(w.begin, n_adc) / lanes * lanes;
    const std::size_t end = std::min(ceil_div(std::min(w.end, n_adc), lanes) * lanes, n_adc);
    if (begin >= end) continue;
    if (!ws_windows_.empty() && begin <= ws_windows_.back().adc_end) {
      ws_windows_.back().adc_end = std::max(ws_windows_.back().adc_end, end);
      continue;
    }
    Window win;
    win.adc_begin = begin;
    win.adc_end = end;
    ws_windows_.push_back(win);
  }
  // Without a lane plan the sampler draws its Rng in stream order, so it
  // can only sample the whole stream.
  detail::require(plan != nullptr || ws_windows_.empty() ||
                      (ws_windows_.size() == 1 && ws_windows_.front().adc_begin == 0 &&
                       ws_windows_.front().adc_end == n_adc),
                  "Gen1Receiver: a jittered sampler digitizes only the whole capture");
  std::size_t adc_total = 0;
  std::size_t kept_total = 0;
  for (Window& w : ws_windows_) {
    std::tie(w.in_begin, w.in_end) = plan != nullptr
                                         ? plan->input_span(w.adc_begin, w.adc_end, n)
                                         : std::pair<std::size_t, std::size_t>{0, n};
    w.adc_offset = adc_total;
    w.kept_offset = kept_total;
    adc_total += w.adc_end - w.adc_begin;
    kept_total += w.in_end - w.in_begin;
  }
  return {adc_total, kept_total};
}

Gen1MfView Gen1Receiver::digitize_and_filter(std::span<const float> rx, double fs,
                                             const Gen1Transmitter& tx,
                                             std::span<const AdcWindow> windows,
                                             const Gen1RxOptions& options, Rng& rng) {
  const std::size_t n = rx.size();
  const std::size_t n_adc = sampler_.output_size(n, fs);
  const std::optional<LanePlan> plan = sampler_.lane_plan(fs, lane_skews_s_);
  const auto [adc_total, kept_total] = plan_windows(windows, n, n_adc, plan ? &*plan : nullptr);
  Gen1RxArenas& a = rx_arenas();
  a.kept.resize(kept_total);
  a.sampled.resize(adc_total);
  a.levels.resize(adc_total);
  a.mf.resize(adc_total);

  // Anti-alias lowpass at the converter's Nyquist edge: the analog front
  // end band-limits before the 2 GSps sampler, here only at the outputs
  // the windows sample. The converged AGC loads the flash at ~1/4 full
  // scale rms (see rf::AgcParams) from the capture's expected filtered
  // power (Gen1AgcModel); the scale commutes with linear-interpolation
  // sampling, so it is applied to the (2x shorter) sampled windows.
  obs::StageTimer fe_timer(obs::Stage::kRxFrontend, a.kept.size());
  for (const Window& w : ws_windows_) {
    dsp::convolve_same_range(rx.data(), n, anti_alias_rev_f_.data(), anti_alias_rev_f_.size(),
                             w.in_begin, w.in_end, a.kept.data() + w.kept_offset);
  }
  const double r = expected_rms(options.agc, n);
  for (const Window& w : ws_windows_) {
    float* out = a.sampled.data() + w.adc_offset;
    if (plan) {
      plan->sample_to(a.kept.data() + w.kept_offset, n, w.adc_begin, w.adc_end, out);
    } else {
      sampler_.sample_interleaved_to(a.kept.data(), n, fs, lane_skews_s_, rng, out);
    }
  }
  if (r > 0.0) {
    const auto gain = static_cast<float>(0.25 / r);
    for (std::size_t i = 0; i < adc_total; ++i) a.sampled[i] *= gain;
  }
  fe_timer.finish();

  obs::StageTimer adc_timer(obs::Stage::kAdcQuantize, adc_total);
  for (const Window& w : ws_windows_) {
    adc_.seek(w.adc_begin);
    adc_.convert_block(a.sampled.data() + w.adc_offset, w.adc_end - w.adc_begin,
                       a.levels.data() + w.adc_offset);
  }
  adc_timer.finish();

  // Matched filter with the monocycle: output j reads levels [j, j + taps).
  const obs::StageTimer mf_timer(obs::Stage::kCorrelateRake, adc_total);
  ws_runs_.clear();
  const RealVec& taps = tx.pulse_taps_adc();
  if (taps.empty() || n_adc < taps.size()) return {};
  const std::size_t h_len = taps.size();
  ws_taps_f_.assign(taps.begin(), taps.end());
  std::size_t mf_total = 0;
  for (const Window& w : ws_windows_) {
    const std::size_t len = w.adc_end - w.adc_begin;
    if (len < h_len) continue;
    const std::size_t lags = len - h_len + 1;
    dsp::dot_bank(a.levels.data() + w.adc_offset, lags, ws_taps_f_.data(), h_len,
                  a.mf.data() + mf_total);
    ws_runs_.push_back(Gen1MfView::Run{w.adc_begin, w.adc_begin + lags, mf_total});
    mf_total += lags;
  }
  return Gen1MfView{ws_runs_, {a.mf.data(), mf_total}};
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
  dsp::AlignedVec<float>& acc_buf = rx_arenas().acq;
  acc_buf.resize(F);
  for (std::size_t j0 = 0; j0 <= last_group; j0 += k1) {
    float* acc = acc_buf.data();
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
                                    const Gen1Transmitter& tx, const Gen1RxOptions& options,
                                    Rng& rng) {
  const AdcWindow whole{0, sampler_.output_size(rx.size(), fs)};
  return acquire_on_mf(digitize_and_filter(rx, fs, tx, {&whole, 1}, options, rng).dense(), tx);
}

Gen1RxResult Gen1Receiver::receive(std::span<const float> rx, double fs,
                                   const Gen1Transmitter& tx, const TxFrame& tx_reference,
                                   const Gen1RxOptions& options, Rng& rng) {
  const std::span<const AdcWindow> windows =
      decision_windows(rx.size(), fs, tx, tx_reference.frame_bits.size(), options);
  return receive(rx, fs, tx, tx_reference, options, windows, rng);
}

Gen1RxResult Gen1Receiver::receive(std::span<const float> rx, double fs,
                                   const Gen1Transmitter& tx, const TxFrame& tx_reference,
                                   const Gen1RxOptions& options,
                                   std::span<const AdcWindow> windows, Rng& rng) {
  Gen1RxResult result;
  const Gen1MfView mf = digitize_and_filter(rx, fs, tx, windows, options, rng);
  const std::size_t F = config_.frame_samples_adc;

  std::size_t preamble_start = 0;
  if (options.genie_timing) {
    preamble_start = options.genie_offset;
    result.acq.acquired = true;
    result.acq.timing_offset = preamble_start;
  } else {
    result.acq = acquire_on_mf(mf.dense(), tx);
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
          if (const float* v = mf.find(idx)) soft += spread[k % spread.size()] * *v;
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
      if (const float* v = mf.find(idx)) soft += spread[k % spread.size()] * *v;
    }
    result.data_bits[b] = soft < 0.0 ? 1 : 0;
    if ((result.data_bits[b] != 0) != (tx_reference.frame_bits[b] != 0)) ++errors;
  }
  result.bit_errors = errors;
  result.bits_compared = num_bits;
  return result;
}

}  // namespace uwb::txrx
