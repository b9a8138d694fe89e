#pragma once
/// \file waveform.h
/// \brief Sampled-signal container: samples plus the sample rate they were
///        taken at, with the handful of whole-signal operations every
///        subsystem needs (scaling, mixing, delay, time axis).
///
/// Two concrete types are used throughout:
///   Waveform<double>  -- real passband signals / single I or Q rail
///   Waveform<cplx>    -- complex baseband signals
///
/// The container is intentionally thin: heavy DSP lives in uwb::dsp, channel
/// physics in uwb::channel. Waveform just keeps samples and fs together so
/// block interfaces cannot mix up rates.

#include <cstddef>
#include <utility>
#include <vector>

#include "common/error.h"
#include "common/math_utils.h"
#include "common/types.h"

namespace uwb {

template <typename T>
class Waveform {
 public:
  Waveform() = default;

  /// Creates a waveform of \p n zero samples at \p sample_rate_hz.
  Waveform(std::size_t n, double sample_rate_hz) : samples_(n), fs_(sample_rate_hz) {
    detail::require(sample_rate_hz > 0.0, "Waveform: sample rate must be positive");
  }

  /// Adopts an existing sample buffer at \p sample_rate_hz.
  Waveform(std::vector<T> samples, double sample_rate_hz)
      : samples_(std::move(samples)), fs_(sample_rate_hz) {
    detail::require(sample_rate_hz > 0.0, "Waveform: sample rate must be positive");
  }

  [[nodiscard]] double sample_rate() const noexcept { return fs_; }
  [[nodiscard]] std::size_t size() const noexcept { return samples_.size(); }
  [[nodiscard]] bool empty() const noexcept { return samples_.empty(); }

  /// Signal duration in seconds.
  [[nodiscard]] double duration() const noexcept {
    return fs_ > 0.0 ? static_cast<double>(samples_.size()) / fs_ : 0.0;
  }

  /// Time of sample \p i in seconds from the start of the buffer.
  [[nodiscard]] double time_of(std::size_t i) const noexcept {
    return static_cast<double>(i) / fs_;
  }

  T& operator[](std::size_t i) noexcept { return samples_[i]; }
  const T& operator[](std::size_t i) const noexcept { return samples_[i]; }

  std::vector<T>& samples() noexcept { return samples_; }
  [[nodiscard]] const std::vector<T>& samples() const noexcept { return samples_; }

  auto begin() noexcept { return samples_.begin(); }
  auto end() noexcept { return samples_.end(); }
  [[nodiscard]] auto begin() const noexcept { return samples_.begin(); }
  [[nodiscard]] auto end() const noexcept { return samples_.end(); }

  /// Mean power of the buffer (mean |x|^2).
  [[nodiscard]] double power() const {
    if (samples_.empty()) return 0.0;
    double acc = 0.0;
    for (const T& v : samples_) acc += std::norm(v);
    return acc / static_cast<double>(samples_.size());
  }

  /// Total energy of the buffer (sum |x|^2).
  [[nodiscard]] double total_energy() const { return uwb::energy(samples_); }

  /// Multiplies every sample by \p gain in place.
  Waveform& scale(double gain) {
    for (auto& v : samples_) v *= gain;
    return *this;
  }

  /// Scales the buffer so its mean power equals \p target_power.
  /// A silent buffer is left untouched.
  Waveform& normalize_power(double target_power = 1.0) {
    const double p = power();
    if (p > 0.0) scale(std::sqrt(target_power / p));
    return *this;
  }

  /// Adds \p other sample-by-sample starting at \p offset samples into this
  /// buffer, growing this buffer if necessary. Rates must match.
  Waveform& add(const Waveform& other, std::size_t offset = 0) {
    detail::require(other.fs_ == fs_, "Waveform::add: sample-rate mismatch");
    if (offset + other.size() > samples_.size()) {
      samples_.resize(offset + other.size(), T{});
    }
    for (std::size_t i = 0; i < other.size(); ++i) samples_[offset + i] += other[i];
    return *this;
  }

  /// Delays the signal by an integer number of samples (prepends zeros).
  Waveform& delay_samples(std::size_t n) {
    samples_.insert(samples_.begin(), n, T{});
    return *this;
  }

  /// Returns a copy of samples [first, first+count).
  [[nodiscard]] Waveform slice(std::size_t first, std::size_t count) const {
    detail::require(first + count <= samples_.size(), "Waveform::slice: out of range");
    return Waveform(std::vector<T>(samples_.begin() + static_cast<std::ptrdiff_t>(first),
                                   samples_.begin() + static_cast<std::ptrdiff_t>(first + count)),
                    fs_);
  }

 private:
  std::vector<T> samples_;
  double fs_ = 1.0;
};

using RealWaveform = Waveform<double>;
using CplxWaveform = Waveform<cplx>;

}  // namespace uwb
