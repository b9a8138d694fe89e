#include "txrx/receiver_gen1.h"

#include <algorithm>
#include <cmath>
#include <cstring>

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
/// sampler, converter and matched filter. Each holds only what its pass
/// needs: a converter-path packet a few dozen samples per data pulse, a
/// dense pass the whole capture.
struct Gen1RxArenas {
  dsp::AlignedVec<float> kept;     ///< FIR outputs (dense pass)
  dsp::AlignedVec<float> sampled;  ///< converter samples, AGC-scaled
  dsp::AlignedVec<float> levels;   ///< converter output levels
  dsp::AlignedVec<float> mf;       ///< matched-filter outputs (Gen1MfView)
  dsp::AlignedVec<float> acq;      ///< stage-1 phase accumulators
};

Gen1RxArenas& rx_arenas() {
  thread_local Gen1RxArenas arenas;
  return arenas;
}

/// Cholesky factor of the symmetric positive semi-definite m x m matrix
/// \p a (row-major), into \p l (row-major, zero above the diagonal). A pivot
/// that is not positive leaves its column of L zero.
void cholesky(const std::vector<double>& a, std::size_t m, std::vector<double>& l) {
  l.assign(m * m, 0.0);
  for (std::size_t j = 0; j < m; ++j) {
    double d = a[j * m + j];
    for (std::size_t k = 0; k < j; ++k) d -= l[j * m + k] * l[j * m + k];
    if (!(d > 0.0)) continue;
    const double ljj = std::sqrt(d);
    l[j * m + j] = ljj;
    for (std::size_t i = j + 1; i < m; ++i) {
      double v = a[i * m + j];
      for (std::size_t k = 0; k < j; ++k) v -= l[i * m + k] * l[j * m + k];
      l[i * m + j] = v / ljj;
    }
  }
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

const float* Gen1MfView::Cursor::at(std::size_t idx) noexcept {
  const std::span<const Run> runs = view_->runs;
  if (idx < last_) run_ = 0;  // a read below the last one starts over
  last_ = idx;
  while (run_ < runs.size() && runs[run_].end <= idx) ++run_;
  if (run_ == runs.size() || idx < runs[run_].begin) return nullptr;
  const Run& run = runs[run_];
  return view_->values.data() + run.offset + (idx - run.begin);
}

void Gen1NoiseFactor::color(const float* white, float* out) const noexcept {
  // Four rows at a time in one vector register (GCC/Clang vector
  // extension: the plain-array form of this loop accumulates through
  // memory and runs ~4x slower). Columns are zero above the diagonal and
  // padded to whole vectors, so rows [c, c + 4) sum columns [0, c + 4)
  // only; each out[i] sums L(i, j) * white[j] in ascending j.
  using Vec4 = float __attribute__((vector_size(16)));
  const std::size_t ld = column_stride();
  for (std::size_t c = 0; c < m; c += 4) {
    Vec4 acc = {0.0f, 0.0f, 0.0f, 0.0f};
    const std::size_t rows_end = std::min(m, c + 4);
    for (std::size_t j = 0; j < rows_end; ++j) {
      Vec4 col;
      std::memcpy(&col, columns.data() + j * ld + c, sizeof col);
      acc += col * white[j];
    }
    for (std::size_t i = c; i < rows_end; ++i) out[i] += acc[i - c];
  }
}

void Gen1NoiseFactor::whiten(double* v) const noexcept {
  for (std::size_t i = 0; i < m; ++i) {
    const double* row = lower.data() + i * m;
    if (row[i] == 0.0) {
      v[i] = 0.0;
      continue;
    }
    double acc = v[i];
    for (std::size_t k = 0; k < i; ++k) acc -= row[k] * v[k];
    v[i] = acc / row[i];
  }
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

std::optional<Gen1Receiver::LanePlan> Gen1Receiver::lane_plan(double fs) const {
  return sampler_.lane_plan(fs, lane_skews_s_);
}

std::pair<std::size_t, std::size_t> Gen1Receiver::block_inputs(const LanePlan& plan,
                                                               AdcWindow block,
                                                               std::size_t n) const noexcept {
  // FIR output j reads the inputs [j - lead, j + start] (dsp::convolve_same_range).
  const std::size_t h_len = anti_alias_rev_f_.size();
  const std::size_t start = (h_len - 1) / 2;
  const std::size_t lead = h_len - 1 - start;
  const auto [first, last] = plan.input_span(block.begin, block.end, n);
  return {first > lead ? first - lead : 0, std::min(n, last + start)};
}

std::span<const AdcWindow> Gen1Receiver::decision_blocks(std::size_t n, double fs,
                                                         const Gen1Transmitter& tx,
                                                         std::size_t num_bits,
                                                         const Gen1RxOptions& options) {
  const std::size_t taps = tx.pulse_taps_adc().size();
  const BlockPlanKey key{n, fs, taps, tx.preamble_frames(), num_bits, options.genie_timing,
                         options.genie_offset};
  if (blocks_key_ == key) return blocks_;
  blocks_key_ = key;
  blocks_.clear();
  const std::size_t n_adc = sampler_.output_size(n, fs);
  const std::optional<LanePlan> plan = lane_plan(fs);
  if (!options.genie_timing || !plan || taps == 0 || n_adc < taps) return {};
  // The despread loop of receive() reads exactly these outputs; output j
  // reads converter samples [j, j + taps). Blocks start on lane 0 and span
  // whole lane patterns, so the converter runs its pattern-blocked path.
  const auto lanes = static_cast<std::size_t>(adc_.num_lanes());
  const std::size_t F = config_.frame_samples_adc;
  const auto ppb = static_cast<std::size_t>(config_.pulses_per_bit);
  const std::size_t data_start = options.genie_offset / F + tx.preamble_frames();
  const std::size_t pulse_phase = options.genie_offset % F;
  const std::size_t mf_size = n_adc - taps + 1;
  std::size_t inputs_end = 0;  // one past the last analog input the current block reads
  for (std::size_t p = 0; p < num_bits * ppb; ++p) {
    const std::size_t idx = pulse_phase + (data_start + p) * F;
    if (idx >= mf_size) break;
    const AdcWindow block{idx / lanes * lanes,
                          std::min(ceil_div(idx + taps, lanes) * lanes, n_adc)};
    const auto [in_first, in_last] = block_inputs(*plan, block, n);
    if (!blocks_.empty() && in_first < inputs_end) {
      blocks_.back().end = std::max(blocks_.back().end, block.end);
      if (blocks_.back().end - blocks_.back().begin > kMaxBlockSamples) {
        blocks_.clear();
        return {};
      }
    } else {
      blocks_.push_back(block);
    }
    inputs_end = std::max(inputs_end, in_last);
  }
  // A block at the capture's edge reads past it: the dense path models the
  // FIR's and the sampler's edges.
  for (const AdcWindow& block : blocks_) {
    if (!interior(*plan, block, n)) {
      blocks_.clear();
      break;
    }
  }
  return blocks_;
}

Gen1ConverterImage Gen1Receiver::converter_image(std::span<const float> g, std::size_t phase,
                                                 double fs) const {
  const std::optional<LanePlan> plan = lane_plan(fs);
  detail::require(plan.has_value(), "Gen1Receiver: converter images need a lane plan");
  Gen1ConverterImage image;
  if (g.empty()) return image;
  const std::size_t h_len = anti_alias_rev_f_.size();
  const auto start = static_cast<std::ptrdiff_t>((h_len - 1) / 2);
  const auto lead = static_cast<std::ptrdiff_t>(h_len) - 1 - start;
  const auto stride = static_cast<std::ptrdiff_t>(plan->stride);
  const auto period = static_cast<std::ptrdiff_t>(plan->stride * plan->num_lanes);
  const auto ph = static_cast<std::ptrdiff_t>(phase);
  const auto g_len = static_cast<std::ptrdiff_t>(g.size());
  // Relative to k0 = (p - phase) / stride, output k reads FIR outputs
  // k * stride + off[l] and the next; the pulse's FIR outputs are
  // [p - start, p + |g| - 1 + lead].
  const auto floor_div = [](std::ptrdiff_t a, std::ptrdiff_t b) {
    return a >= 0 ? a / b : -((-a + b - 1) / b);
  };
  const std::ptrdiff_t k_lo = -floor_div(-(ph - start - 1 - plan->max_off), stride);
  const std::ptrdiff_t k_hi = floor_div(ph + g_len - 1 + lead - plan->min_off, stride) + 1;
  if (k_hi <= k_lo) return image;
  // A local capture whose origin sits a whole number of lane patterns
  // ahead of the pulse, far enough that every instant it reads is inside.
  const std::ptrdiff_t reach = start + 2 + stride - plan->min_off + plan->max_off;
  const std::ptrdiff_t u0 = (reach / period + 1) * period;
  const std::ptrdiff_t len = u0 + ph + g_len + lead + plan->max_off - plan->min_off + 2;
  std::vector<float> x(static_cast<std::size_t>(len), 0.0f);
  std::copy(g.begin(), g.end(), x.begin() + u0 + ph);
  const std::ptrdiff_t k_base = u0 / stride;
  const auto [first, last] = plan->input_span(static_cast<std::size_t>(k_base + k_lo),
                                              static_cast<std::size_t>(k_base + k_hi),
                                              static_cast<std::size_t>(len));
  std::vector<float> y(last - first);
  dsp::convolve_same_range(x.data(), x.size(), anti_alias_rev_f_.data(), h_len, first, last,
                           y.data());
  image.first = k_lo;
  image.values.resize(static_cast<std::size_t>(k_hi - k_lo));
  plan->sample_to(y.data(), x.size(), static_cast<std::size_t>(k_base + k_lo),
                  static_cast<std::size_t>(k_base + k_hi), image.values.data());
  return image;
}

void Gen1Receiver::color_noise(std::span<const AdcWindow> blocks, std::size_t n, double fs,
                               const float* white, float* values) {
  const std::optional<LanePlan> plan = lane_plan(fs);
  detail::require(plan.has_value(), "Gen1Receiver: noise factors need a lane plan");
  const Gen1NoiseFactor* last = nullptr;
  std::size_t offset = 0;
  for (const AdcWindow& block : blocks) {
    const std::size_t m = block.end - block.begin;
    if (last == nullptr || last->m != m) last = &factor_for(*plan, block, n);
    last->color(white + offset, values + offset);
    offset += m;
  }
}

void Gen1Receiver::whiten(std::span<const AdcWindow> blocks, std::size_t n, double fs,
                          double* v) {
  const std::optional<LanePlan> plan = lane_plan(fs);
  detail::require(plan.has_value(), "Gen1Receiver: noise factors need a lane plan");
  std::size_t offset = 0;
  for (const AdcWindow& block : blocks) {
    factor_for(*plan, block, n).whiten(v + offset);
    offset += block.end - block.begin;
  }
}

bool Gen1Receiver::interior(const LanePlan& plan, AdcWindow block, std::size_t n) const noexcept {
  // Output k reads FIR outputs k * stride + off[l] and the next, and FIR
  // output j the inputs [j - lead, j + start].
  const std::size_t h_len = anti_alias_rev_f_.size();
  const auto start = static_cast<std::ptrdiff_t>((h_len - 1) / 2);
  const auto lead = static_cast<std::ptrdiff_t>(h_len) - 1 - start;
  const auto st = static_cast<std::ptrdiff_t>(plan.stride);
  return block.begin < block.end &&
         static_cast<std::ptrdiff_t>(block.begin) * st + plan.min_off >= lead &&
         static_cast<std::ptrdiff_t>(block.end - 1) * st + plan.max_off + 2 + start <=
             static_cast<std::ptrdiff_t>(n);
}

const Gen1NoiseFactor& Gen1Receiver::factor_for(const LanePlan& plan, AdcWindow block,
                                                std::size_t n) {
  // Not detail::require: its message string would be built per block.
  if (block.begin % plan.num_lanes != 0 || !interior(plan, block, n)) {
    throw InvalidArgument(
        "Gen1Receiver: a noise block starts on lane 0 and reads inside the capture");
  }
  // Interior, so the factor depends on the block's length alone.
  const std::size_t m = block.end - block.begin;
  if (const auto it = factors_.find(m); it != factors_.end()) return it->second;

  // A, column by column: a unit impulse at each input through the FIR and
  // the lane interpolation, exactly as a dense pass would carry it.
  const std::size_t h_len = anti_alias_rev_f_.size();
  const auto [c_lo, c_hi] = block_inputs(plan, block, n);
  const auto [first, last] = plan.input_span(block.begin, block.end, n);
  const std::size_t cols = c_hi - c_lo;
  std::vector<float> x(cols, 0.0f);
  std::vector<float> y(last - first);
  std::vector<float> col(m);
  std::vector<double> a(m * cols);
  for (std::size_t c = 0; c < cols; ++c) {
    x[c] = 1.0f;
    dsp::convolve_same_range(x.data(), cols, anti_alias_rev_f_.data(), h_len, first - c_lo,
                             last - c_lo, y.data());
    plan.sample_to(y.data(), n, block.begin, block.end, col.data());
    for (std::size_t i = 0; i < m; ++i) a[i * cols + c] = col[i];
    x[c] = 0.0f;
  }
  std::vector<double> aat(m * m, 0.0);
  for (std::size_t i = 0; i < m; ++i) {
    for (std::size_t j = 0; j <= i; ++j) {
      double acc = 0.0;
      for (std::size_t c = 0; c < cols; ++c) acc += a[i * cols + c] * a[j * cols + c];
      aat[i * m + j] = acc;
      aat[j * m + i] = acc;
    }
  }
  Gen1NoiseFactor& factor = factors_[m];
  factor.m = m;
  cholesky(aat, m, factor.lower);
  const std::size_t ld = factor.column_stride();
  factor.columns.assign(m * ld, 0.0f);
  for (std::size_t j = 0; j < m; ++j) {
    for (std::size_t i = j; i < m; ++i) {
      factor.columns[j * ld + i] = static_cast<float>(factor.lower[i * m + j]);
    }
  }
  return factor;
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

Gen1MfView Gen1Receiver::digitize_and_filter(std::span<const float> rx, double fs,
                                             const Gen1Transmitter& tx,
                                             const Gen1RxOptions& options, Rng& rng) {
  const std::size_t n = rx.size();
  const std::size_t n_adc = sampler_.output_size(n, fs);
  Gen1RxArenas& a = rx_arenas();
  a.kept.resize(n);
  a.sampled.resize(n_adc);

  // Anti-alias lowpass at the converter's Nyquist edge: the analog front
  // end band-limits before the 2 GSps sampler. The converged AGC loads the
  // flash at ~1/4 full scale rms (see rf::AgcParams) from the capture's
  // expected filtered power (Gen1AgcModel); the scale commutes with
  // linear-interpolation sampling, so it is applied to the (2x shorter)
  // sampled stream.
  obs::StageTimer fe_timer(obs::Stage::kRxFrontend, n);
  dsp::convolve_same_range(rx.data(), n, anti_alias_rev_f_.data(), anti_alias_rev_f_.size(), 0,
                           n, a.kept.data());
  sampler_.sample_interleaved_to(a.kept.data(), n, fs, lane_skews_s_, rng, a.sampled.data());
  const double r = expected_rms(options.agc, n);
  if (r > 0.0) {
    const auto gain = static_cast<float>(0.25 / r);
    for (std::size_t i = 0; i < n_adc; ++i) a.sampled[i] *= gain;
  }
  fe_timer.finish();
  const AdcWindow whole{0, n_adc};
  return convert_and_filter({&whole, 1}, tx);
}

Gen1MfView Gen1Receiver::digitize_and_filter(const Gen1ConverterCapture& capture,
                                             const Gen1Transmitter& tx,
                                             const Gen1RxOptions& options) {
  const auto lanes = static_cast<std::size_t>(adc_.num_lanes());
  std::size_t total = 0;
  std::size_t prev_end = 0;
  for (const AdcWindow& block : capture.blocks) {
    // Not detail::require: its message string would be built per block.
    if (block.begin < prev_end || block.end <= block.begin || block.begin % lanes != 0) {
      throw InvalidArgument("Gen1Receiver: converter blocks must ascend, be disjoint and "
                            "start on lane 0");
    }
    prev_end = block.end;
    total += block.end - block.begin;
  }
  detail::require(total == capture.values.size(),
                  "Gen1Receiver: converter values must fill the blocks");
  Gen1RxArenas& a = rx_arenas();
  a.sampled.resize(total);
  {
    const obs::StageTimer fe_timer(obs::Stage::kRxFrontend, total);
    const double r = expected_rms(options.agc, capture.analog_len);
    const float gain = r > 0.0 ? static_cast<float>(0.25 / r) : 1.0f;
    for (std::size_t i = 0; i < total; ++i) a.sampled[i] = capture.values[i] * gain;
  }
  return convert_and_filter(capture.blocks, tx);
}

Gen1MfView Gen1Receiver::convert_and_filter(std::span<const AdcWindow> blocks,
                                            const Gen1Transmitter& tx) {
  Gen1RxArenas& a = rx_arenas();
  const std::size_t total = a.sampled.size();
  a.levels.resize(total);
  a.mf.resize(total);
  {
    const obs::StageTimer adc_timer(obs::Stage::kAdcQuantize, total);
    std::size_t offset = 0;
    for (const AdcWindow& w : blocks) {
      adc_.seek(w.begin);
      adc_.convert_block(a.sampled.data() + offset, w.end - w.begin, a.levels.data() + offset);
      offset += w.end - w.begin;
    }
  }

  // Matched filter with the monocycle: output j reads levels [j, j + taps).
  const obs::StageTimer mf_timer(obs::Stage::kCorrelateRake, total);
  ws_runs_.clear();
  const RealVec& taps = tx.pulse_taps_adc();
  const std::size_t h_len = taps.size();
  if (h_len == 0) return {};
  ws_taps_f_.assign(taps.begin(), taps.end());
  std::size_t offset = 0;
  std::size_t mf_total = 0;
  for (const AdcWindow& w : blocks) {
    const std::size_t len = w.end - w.begin;
    if (len >= h_len) {
      const std::size_t lags = len - h_len + 1;
      const float* x = a.levels.data() + offset;
      float* out = a.mf.data() + mf_total;
      if (lags < 8) {
        // A converter block's few lags: dot_bank's blocked kernel would pad
        // them to a full block. Same per-lag sum, ascending taps.
        for (std::size_t l = 0; l < lags; ++l) {
          float acc = 0.0f;
          for (std::size_t m = 0; m < h_len; ++m) acc += x[l + m] * ws_taps_f_[m];
          out[l] = acc;
        }
      } else {
        dsp::dot_bank(x, lags, ws_taps_f_.data(), h_len, out);
      }
      ws_runs_.push_back(Gen1MfView::Run{w.begin, w.begin + lags, mf_total});
      mf_total += lags;
    }
    offset += len;
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
  return acquire_on_mf(digitize_and_filter(rx, fs, tx, options, rng).dense(), tx);
}

Gen1RxResult Gen1Receiver::receive(std::span<const float> rx, double fs,
                                   const Gen1Transmitter& tx, const TxFrame& tx_reference,
                                   const Gen1RxOptions& options, Rng& rng) {
  Gen1RxResult result;
  const Gen1MfView mf = digitize_and_filter(rx, fs, tx, options, rng);
  if (options.genie_timing) {
    result.acq.acquired = true;
    result.acq.timing_offset = options.genie_offset;
  } else {
    result.acq = acquire_on_mf(mf.dense(), tx);
    if (!result.acq.acquired) return result;
  }
  decide(mf, tx, tx_reference, options, result);
  return result;
}

Gen1RxResult Gen1Receiver::receive(const Gen1ConverterCapture& capture,
                                   const Gen1Transmitter& tx, const TxFrame& tx_reference,
                                   const Gen1RxOptions& options) {
  detail::require(options.genie_timing, "Gen1Receiver: a converter capture needs genie timing");
  Gen1RxResult result;
  result.acq.acquired = true;
  result.acq.timing_offset = options.genie_offset;
  decide(digitize_and_filter(capture, tx, options), tx, tx_reference, options, result);
  return result;
}

void Gen1Receiver::decide(const Gen1MfView& mf, const Gen1Transmitter& tx,
                          const TxFrame& tx_reference, const Gen1RxOptions& options,
                          Gen1RxResult& result) const {
  const std::size_t F = config_.frame_samples_adc;
  // The acquisition pins timing modulo one PN period; the packet's
  // preamble starts an integer number of periods earlier, which does not
  // matter for data timing because the data section begins a known number
  // of frames after *any* period boundary only if we also know which
  // period we latched. The SFD search below resolves that ambiguity.
  const std::size_t preamble_start =
      options.genie_timing ? result.acq.timing_offset
                           : result.acq.timing_offset % (tx.preamble_chips().size() * F);

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
      Gen1MfView::Cursor cursor(mf);
      double corr = 0.0;
      for (std::size_t b = 0; b < sfd.size(); ++b) {
        double soft = 0.0;
        for (std::size_t k = 0; k < ppb; ++k) {
          const std::size_t idx = pulse_phase + (cand + b * ppb + k) * F;
          if (const float* v = cursor.at(idx)) soft += spread[k % spread.size()] * *v;
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
  Gen1MfView::Cursor cursor(mf);
  for (std::size_t b = 0; b < num_bits; ++b) {
    double soft = 0.0;
    for (std::size_t k = 0; k < ppb; ++k) {
      const std::size_t idx = pulse_phase + (best_start + b * ppb + k) * F;
      if (const float* v = cursor.at(idx)) soft += spread[k % spread.size()] * *v;
    }
    result.data_bits[b] = soft < 0.0 ? 1 : 0;
    if ((result.data_bits[b] != 0) != (tx_reference.frame_bits[b] != 0)) ++errors;
  }
  result.bit_errors = errors;
  result.bits_compared = num_bits;
}

}  // namespace uwb::txrx
