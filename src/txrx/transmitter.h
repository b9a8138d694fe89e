#pragma once
/// \file transmitter.h
/// \brief Transmitters of both generations: packet bits to the radiated
///        pulse train (real baseband for gen-1, complex baseband for gen-2),
///        held as slot amplitudes on the PRF grid.

#include <memory>

#include "common/types.h"
#include "common/waveform.h"
#include "phy/modulation.h"
#include "phy/packet.h"
#include "txrx/transceiver_config.h"

namespace uwb::txrx {

/// What the transmitter put on the air, with bookkeeping the test/benches
/// (and genie-timing receivers) use.
struct TxFrame {
  BitVec payload;            ///< info bits carried
  BitVec frame_bits;         ///< full on-air bit sequence (preamble..payload)
  std::size_t preamble_bits = 0;
  std::size_t sfd_bits = 0;
  double energy_per_bit = 0.0;     ///< discrete Eb of the clean waveform
  std::size_t samples_per_bit = 0; ///< at the generated rate

  // Symbol-level layout (gen-2; overhead is always BPSK, the payload body
  // may use a multi-bit-per-symbol scheme).
  std::size_t overhead_symbols = 0;  ///< preamble + SFD + header symbols
  std::size_t payload_symbols = 0;   ///< body symbols (incl. CRC, pad)
  std::size_t body_bits = 0;         ///< payload + CRC bits (excl. pad)
};

/// A gen-1 packet's pulse train in sparse form: the per-slot amplitude
/// sequence on the PRF grid (slot k fires at k * frame_samples_analog())
/// plus the TxFrame bookkeeping. The gen-1 waveform is ~98% zeros -- a few
/// dozen monocycle samples per ~1300-sample frame -- so the fast channel
/// path consumes this directly (y = sum_k a_k * g[n - k*frame] with
/// g = prototype convolved with the CIR) without ever synthesizing the
/// dense waveform. Built by Gen1Transmitter::transmit_train.
struct Gen1Train {
  std::vector<double> amplitudes;  ///< slot weights, one per PRF frame
  TxFrame frame;
};

/// A gen-2 packet as pulse slots: slot m places amplitudes[m] times the
/// prototype starting at analog sample offsets[m] (m * samples_per_bit,
/// shifted by the symbol's PPM offset), and the dense baseband waveform is
/// the slot sum over length samples. The link's channel synthesizes
/// sum_m a_m * g[n - offsets[m]] from this form with g = prototype
/// convolved with the CIR. Built by Gen2Transmitter::transmit_train.
struct Gen2Train {
  std::vector<double> amplitudes;    ///< symbol weights, one per slot
  std::vector<std::size_t> offsets;  ///< each slot's first analog sample
  std::size_t length = 0;            ///< dense length: slots * frame + |prototype|
  TxFrame frame;
};

/// Generation-1 baseband transmitter: pulse-level PN preamble followed by a
/// PN-spread data section (see Gen1Config's preamble note).
class Gen1Transmitter {
 public:
  explicit Gen1Transmitter(const Gen1Config& config);

  [[nodiscard]] const Gen1Config& config() const noexcept { return config_; }

  /// Frames \p payload into the sparse slot-amplitude form: slot k carries
  /// the prototype at analog sample k * frame_samples_analog(). For gen-1,
  /// TxFrame::frame_bits holds the *data-section* bits only (SFD + header +
  /// payload + CRC); TxFrame::preamble_bits counts the pulse-level preamble
  /// chips.
  [[nodiscard]] Gen1Train transmit_train(const BitVec& payload) const;

  /// The spreading chip sequence (+/-1) applied across the pulses of a bit.
  [[nodiscard]] const std::vector<double>& spread_chips() const noexcept { return spread_; }

  /// One period of the pulse-level preamble PN, as +/-1 chips.
  [[nodiscard]] const std::vector<double>& preamble_chips() const noexcept { return pn_chips_; }

  /// Total preamble length in frames (chips x repetitions).
  [[nodiscard]] std::size_t preamble_frames() const noexcept {
    return pn_chips_.size() * static_cast<std::size_t>(config_.preamble_repetitions);
  }

  /// The monocycle prototype at analog_fs.
  [[nodiscard]] const RealWaveform& prototype() const noexcept { return pulse_; }

  /// The monocycle prototype regenerated at the ADC rate (matched filter).
  /// Computed once at construction; per-packet receive paths borrow it.
  [[nodiscard]] const RealVec& pulse_taps_adc() const noexcept { return pulse_taps_adc_; }

 private:
  Gen1Config config_;
  RealWaveform pulse_;
  std::vector<double> spread_;
  std::vector<double> pn_chips_;
  phy::PacketFramer framer_;
  RealVec pulse_taps_adc_;  ///< matched-filter taps cached at construction
};

/// Generation-2 transmitter: modulated RRC pulse trains at complex baseband.
class Gen2Transmitter {
 public:
  explicit Gen2Transmitter(const Gen2Config& config);

  [[nodiscard]] const Gen2Config& config() const noexcept { return config_; }

  /// Frames \p payload into slot form. frame.energy_per_bit is measured on
  /// the dense train (synthesized block by block, never stored whole), so
  /// both views carry the same Eb to the last bit.
  [[nodiscard]] Gen2Train transmit_train(const BitVec& payload) const;

  /// Writes samples [first, first + count) of \p train's dense waveform to
  /// \p out: each sample sums its slots' pulses in slot order
  /// (dsp::shifted_sum; the offsets are non-decreasing by construction).
  void synthesize(const Gen2Train& train, std::size_t first, std::size_t count,
                  double* out) const;

  /// RRC prototype at analog_fs.
  [[nodiscard]] const RealWaveform& prototype() const noexcept { return pulse_; }

  /// The framer (receiver needs the same preamble).
  [[nodiscard]] const phy::PacketFramer& framer() const noexcept { return framer_; }

  /// Clean preamble waveform at the ADC rate (the acquisition/channel-
  /// estimation template). Computed once at construction so per-packet
  /// receive calls never resynthesize it.
  [[nodiscard]] const CplxVec& preamble_template_adc() const noexcept {
    return preamble_tmpl_adc_;
  }

  /// Pulse matched-filter taps at the ADC rate (cached at construction).
  [[nodiscard]] const RealVec& pulse_taps_adc() const noexcept { return pulse_taps_adc_; }

 private:
  Gen2Config config_;
  RealWaveform pulse_;
  phy::PacketFramer framer_;
  RealVec pulse_taps_adc_;      ///< matched-filter taps at the ADC rate
  CplxVec preamble_tmpl_adc_;   ///< clean preamble template at the ADC rate
  // Modulators are stateless mapping tables; building them per packet was
  // a measurable share of small-packet transmit time.
  std::unique_ptr<phy::Modulator> bpsk_mod_;
  std::unique_ptr<phy::Modulator> payload_mod_;
};

}  // namespace uwb::txrx
