#pragma once
/// \file sampling.h
/// \brief Rare-event sampling policy for BER trials: single-direction
///        noise-scale importance sampling with exact likelihood reweighting.
///
/// Plain Monte-Carlo cannot reach the deep-waterfall BER region
/// (1e-5..1e-7) in budget. The policy here biases each trial toward error
/// events and undoes the bias with a per-trial likelihood ratio, so the
/// weighted estimate stays exactly unbiased for any receiver backend.
///
/// The bias is deliberately *one-dimensional*. Scaling the noise variance
/// of every waveform sample would make the likelihood ratio a product over
/// thousands of Gaussian components, whose variance grows exponentially
/// with the component count (weight degeneracy -- the estimator would be
/// unbiased but useless). Instead each trial targets one payload bit
/// (stratified by trial index) and scales the noise variance only along
/// the unit direction of that bit's received waveform -- the direction a
/// matched-filter/RAKE decision statistic actually projects onto. The
/// likelihood ratio then involves a single Gaussian component:
///
///   z ~ N(0, s^2 sigma^2) under the biased draw (nominal: N(0, sigma^2))
///   log w = log s - (z^2 / (2 sigma^2)) (1 - 1/s^2)
///
/// which is bounded above by log s, so weights can never explode. In
/// auto_ladder mode the run cycles a rung ladder and weights every trial
/// with the balance heuristic over the whole ladder (mixture_log_weight):
/// since the 1.0 rung keeps the nominal density in the mixture, weights
/// are bounded by the rung count, and error mechanisms the tilt direction
/// does not reach stay measurable instead of being suppressed. The
/// trial reports the *target bit's* error (bits = 1) with weight w;
/// averaging over trials stratifies the target across payload positions.
/// E_g[w * err_j] = E_f[err_j] holds exactly -- the unbiased components'
/// densities cancel in f/g -- so MLSE/ISI coupling needs no special case.

#include <cstddef>
#include <vector>

namespace uwb::stats {

/// Serialized as the spec's "sampling" block; `none` is the default and is
/// not written (plain Monte-Carlo).
enum class SamplingMode { kNone, kNoiseScale, kAutoLadder };

/// The engine-level importance-sampling policy carried on TrialOptions.
struct SamplingPolicy {
  SamplingMode mode = SamplingMode::kNone;
  double scale = 4.0;      ///< noise_scale mode: the one tilt scale (>= 1)
  double max_scale = 6.0;  ///< auto_ladder mode: top rung (>= 1)
  int levels = 4;          ///< auto_ladder mode: rung count (>= 1)

  [[nodiscard]] bool active() const noexcept { return mode != SamplingMode::kNone; }
  [[nodiscard]] bool operator==(const SamplingPolicy&) const = default;
};

/// Throws when the policy's parameters are out of range.
void validate(const SamplingPolicy& policy);

/// The deterministic scale ladder a policy runs: {scale} for noise_scale,
/// a geometric ladder 1.0 .. max_scale over `levels` rungs for auto_ladder
/// (the 1.0 rung keeps a defensive plain-measurement stratum in the mix),
/// and {} for none.
[[nodiscard]] std::vector<double> sampling_ladder(const SamplingPolicy& policy);

/// The tilt scale trial \p index runs at: ladder[index % rungs]. A pure
/// function of the global trial index, so any worker count and any shard
/// split produce the same per-trial bias.
[[nodiscard]] double trial_noise_scale(const SamplingPolicy& policy, std::size_t index);

/// Standard deviation of the *extra* noise component added along the tilt
/// direction: total variance along the direction becomes scale^2 * sigma2.
[[nodiscard]] double tilt_extra_stddev(double sigma2, double scale);

/// Log-likelihood ratio log(f/g) of the 1-D tilt given the realized
/// projection \p z onto the (unit) tilt direction. Bounded by log(scale).
[[nodiscard]] double tilt_log_weight(double z, double sigma2, double scale);

/// Balance-heuristic (multiple importance sampling) log weight for a trial
/// whose projection \p z was drawn from *one rung* of \p ladder: the
/// proposal in the ratio is the equal-frequency rung mixture
///   g(z) = (1/K) sum_k N(z; 0, s_k^2 sigma2),
/// the distribution the trial-index cycling realizes across the run. Two
/// properties make this the right weight for the ladder: it is the same
/// function of z for every rung (so the estimator is exactly the classic
/// balance heuristic), and because the 1.0 rung keeps the nominal density
/// inside the mixture the weight is bounded by K. Error mechanisms the
/// tilt does not reach (noise outside the target direction) therefore
/// keep O(1) weights and stay measurable at plain-MC efficiency, instead
/// of being suppressed by the per-rung ratio f/g_k ~ e^{-z^2/2sigma2}.
/// With a single-rung ladder this reduces to tilt_log_weight exactly.
[[nodiscard]] double mixture_log_weight(double z, double sigma2,
                                        const std::vector<double>& ladder);

}  // namespace uwb::stats
