#pragma once
/// \file receiver_gen2.h
/// \brief The generation-2 receiver of Fig. 3: RF front end (direct
///        conversion + optional notch), dual SAR ADCs, and the digital back
///        end -- acquisition, channel estimation (quantized taps), RAKE,
///        Viterbi (MLSE) demodulation, spectral monitoring.

#include <memory>
#include <optional>
#include <span>

#include "adc/sampling.h"
#include "adc/sar_adc.h"
#include "channel/cir.h"
#include "common/rng.h"
#include "common/types.h"
#include "common/waveform.h"
#include "estimation/channel_estimator.h"
#include "estimation/spectral_monitor.h"
#include "txrx/transceiver_config.h"
#include "txrx/transmitter.h"

namespace uwb::txrx {

/// Per-packet receiver diagnostics.
struct Gen2RxResult {
  bool acquired = false;
  BitVec payload;               ///< decoded payload bits
  std::size_t bit_errors = 0;   ///< vs the reference payload (when given)
  std::size_t bits_compared = 0;
  std::vector<double> payload_soft;  ///< soft demod outputs (empty when the
                                     ///< MLSE path produced hard bits)

  std::size_t timing_offset = 0;     ///< t0 at the ADC rate
  channel::Cir channel_estimate;     ///< quantized CIR estimate
  double rake_energy_capture = 0.0;
  estimation::InterfererReport interferer;
  bool notch_applied = false;
  double amplitude_reference = 0.0;  ///< data-aided soft-output scale
  double snr_estimate_db = 0.0;
};

/// Receiver options that vary per experiment rather than per design.
struct Gen2RxOptions {
  bool genie_timing = false;        ///< trust the known TX start (BER-only runs)
  std::size_t genie_offset = 0;     ///< channel reference delay when genie
  bool run_spectral_monitor = true;
  bool auto_notch = false;          ///< monitor drives the RF notch + re-run
  double noise_variance = 0.0;      ///< channel N0 (front-end excess noise ref)
  /// Skip the MLSE hard path for this packet and demodulate from the RAKE's
  /// soft stream (outer-FEC trials feed it to the soft Viterbi decoder).
  bool bypass_mlse = false;
};

/// The gen-2 receiver.
class Gen2Receiver {
 public:
  /// \p rng seeds the static component mismatch (SAR caps, comparator
  /// noise) exactly once, like a fabricated part.
  Gen2Receiver(const Gen2Config& config, Rng& rng);

  [[nodiscard]] const Gen2Config& config() const noexcept { return config_; }

  /// Runtime reconfiguration -- the paper's power/QoS knobs (RAKE fingers,
  /// MLSE on/off and memory, estimator precision) may be changed between
  /// packets. Converter hardware (SAR mismatch) stays as constructed.
  [[nodiscard]] Gen2Config& mutable_config() noexcept { return config_; }

  /// Processes a received complex-baseband capture held as split I/Q rails
  /// at analog_fs (equal lengths). The analog chain conditions the rails in
  /// place, so they hold no meaningful samples afterwards. \p tx_reference
  /// carries the frame layout (known preamble etc.); \p expected_payload
  /// enables error counting when provided.
  [[nodiscard]] Gen2RxResult receive(std::span<double> rx_i, std::span<double> rx_q,
                                     const Gen2Transmitter& tx, const TxFrame& tx_reference,
                                     const Gen2RxOptions& options, Rng& rng,
                                     const BitVec* expected_payload = nullptr);

 private:
  /// One pass of the analog + digital chain -- front end (in place on the
  /// rails), sample-and-hold, the two SARs -- leaving the ADC levels in the
  /// calling thread's arenas (factored out so auto-notch can re-run it
  /// after tuning the notch).
  void run_analog_digital(std::span<double> rx_i, std::span<double> rx_q,
                          double noise_variance, Rng& rng);

  /// The payload demapper for the *current* config_.modulation. Cached; the
  /// instance is rebuilt only when mutable_config() changed the scheme
  /// between packets (the paper's per-packet QoS knob).
  [[nodiscard]] const phy::Modulator& payload_modulator();

  Gen2Config config_;
  pulse::BandPlan plan_;
  rf::FrontEnd front_end_;
  adc::SampleAndHold sampler_;
  adc::SarAdc adc_i_;
  adc::SarAdc adc_q_;
  estimation::ChannelEstimator estimator_;
  estimation::SpectralMonitor monitor_;
  std::unique_ptr<phy::Modulator> payload_mod_;  ///< see payload_modulator()
  double payload_mod_prf_hz_ = 0.0;              ///< PRF payload_mod_ was built for
};

}  // namespace uwb::txrx
