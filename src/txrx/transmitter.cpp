#include "txrx/transmitter.h"

#include <algorithm>
#include <cmath>

#include "common/error.h"
#include "dsp/correlator.h"
#include "phy/lfsr.h"
#include "pulse/pulse_train.h"

namespace uwb::txrx {

// ---------------------------------------------------------------- Gen-1 ----

Gen1Transmitter::Gen1Transmitter(const Gen1Config& config)
    : config_(config),
      pulse_(pulse::gaussian_monocycle(config.pulse_sigma_s, config.analog_fs)),
      framer_(config.packet) {
  detail::require(config.pulses_per_bit >= 1, "Gen1Transmitter: pulses_per_bit must be >= 1");
  detail::require(config.preamble_repetitions >= 1,
                  "Gen1Transmitter: preamble repetitions must be >= 1");
  // Spreading chips: one maximal-length sequence cycled across the pulses
  // of each bit (polarity randomization smooths the spectrum and provides
  // processing gain against tones).
  spread_ = phy::to_chips(phy::msequence(config.spread_msequence_degree));
  pn_chips_ = phy::to_chips(phy::msequence(config.preamble_pn_degree));
  pulse_taps_adc_ = pulse::gaussian_monocycle(config_.pulse_sigma_s, config_.adc_rate).samples();
}

Gen1Train Gen1Transmitter::transmit_train(const BitVec& payload) const {
  const phy::FramedPacket pkt = framer_.frame(payload);

  // Data section = SFD + header + payload(+CRC), each bit spread over
  // pulses_per_bit polarity-scrambled pulses.
  BitVec data_bits = pkt.sfd;
  data_bits.insert(data_bits.end(), pkt.header.begin(), pkt.header.end());
  data_bits.insert(data_bits.end(), pkt.payload.begin(), pkt.payload.end());

  // Slot amplitudes: pulse-level PN preamble first, then the spread data
  // bits. Every slot sits on the PRF grid (no PPM offsets at gen-1).
  Gen1Train train;
  train.amplitudes.reserve(preamble_frames() +
                           data_bits.size() * static_cast<std::size_t>(config_.pulses_per_bit));
  for (int rep = 0; rep < config_.preamble_repetitions; ++rep) {
    for (double chip : pn_chips_) {
      train.amplitudes.push_back(chip);
    }
  }
  for (auto b : data_bits) {
    const double w = b ? -1.0 : 1.0;
    for (int k = 0; k < config_.pulses_per_bit; ++k) {
      train.amplitudes.push_back(w * spread_[static_cast<std::size_t>(k) % spread_.size()]);
    }
  }

  TxFrame& frame = train.frame;
  frame.payload = payload;
  frame.frame_bits = std::move(data_bits);
  frame.preamble_bits = preamble_frames();
  frame.sfd_bits = pkt.sfd.size();
  frame.samples_per_bit =
      config_.frame_samples_analog() * static_cast<std::size_t>(config_.pulses_per_bit);
  // Data-section energy per bit (what Eb/N0 sweeps calibrate against).
  frame.energy_per_bit =
      pulse_.total_energy() * static_cast<double>(config_.pulses_per_bit);
  frame.overhead_symbols = pkt.sfd.size() + pkt.header.size();
  frame.payload_symbols = pkt.payload.size();
  frame.body_bits = pkt.payload.size();
  return train;
}

// ---------------------------------------------------------------- Gen-2 ----

Gen2Transmitter::Gen2Transmitter(const Gen2Config& config)
    : config_(config), pulse_(pulse::make_pulse(config.pulse)), framer_(config.packet) {
  detail::require(config.pulse.sample_rate_hz == config.analog_fs,
                  "Gen2Transmitter: pulse spec must be generated at analog_fs");

  // Per-trial hot-path caches: everything below is a pure function of the
  // config, so it is synthesized once here instead of once per packet.
  pulse::PulseSpec pspec = config_.pulse;
  pspec.sample_rate_hz = config_.adc_rate;
  const RealWaveform pulse_adc = pulse::make_pulse(pspec);
  pulse_taps_adc_ = pulse_adc.samples();

  const auto sps = static_cast<std::size_t>(config_.adc_rate / config_.prf_hz);
  const BitVec& pre = framer_.preamble_bits();
  preamble_tmpl_adc_.assign(sps * pre.size() + pulse_adc.size(), cplx{});
  for (std::size_t m = 0; m < pre.size(); ++m) {
    const double w = pre[m] ? -1.0 : 1.0;
    const std::size_t base = m * sps;
    for (std::size_t i = 0; i < pulse_adc.size(); ++i) {
      preamble_tmpl_adc_[base + i] += w * pulse_adc[i];
    }
  }

  bpsk_mod_ = phy::make_modulator(phy::Modulation::kBpsk, config_.prf_hz);
  payload_mod_ = phy::make_modulator(config_.modulation, config_.prf_hz);
}

Gen2Train Gen2Transmitter::transmit_train(const BitVec& payload) const {
  const phy::FramedPacket pkt = framer_.frame(payload);

  // Preamble + SFD + header always ride BPSK (acquisition needs antipodal
  // correlation); the payload uses the configured modulation.
  const std::size_t overhead_bits =
      pkt.preamble.size() + pkt.sfd.size() + pkt.header.size();
  BitVec overhead(pkt.all.begin(), pkt.all.begin() + static_cast<std::ptrdiff_t>(overhead_bits));
  BitVec body(pkt.all.begin() + static_cast<std::ptrdiff_t>(overhead_bits), pkt.all.end());
  // Pad the body to a whole number of symbols if needed (4-PAM).
  while (body.size() % static_cast<std::size_t>(payload_mod_->bits_per_symbol()) != 0) {
    body.push_back(0);
  }
  const phy::SymbolMapping head_map = bpsk_mod_->map(overhead);
  const phy::SymbolMapping body_map = payload_mod_->map(body);

  // One pulse slot per symbol on the PRF grid, shifted by the symbol's
  // time offset (PPM) rounded to the nearest analog sample.
  Gen2Train train;
  pulse::PulseTrainSpec spec;
  spec.prf_hz = config_.prf_hz;
  spec.sample_rate_hz = config_.analog_fs;
  const std::size_t frame_samples = pulse::samples_per_frame(spec);
  const std::size_t head = head_map.weights.size();
  const std::size_t symbols = head + body_map.weights.size();
  train.amplitudes = head_map.weights;
  train.amplitudes.insert(train.amplitudes.end(), body_map.weights.begin(),
                          body_map.weights.end());
  train.length = frame_samples * symbols + pulse_.size();
  train.offsets.resize(symbols);
  for (std::size_t m = 0; m < symbols; ++m) {
    double offset_s = 0.0;
    if (m >= head && !body_map.time_offsets_s.empty()) {
      offset_s = body_map.time_offsets_s[m - head];
    }
    const std::ptrdiff_t base =
        static_cast<std::ptrdiff_t>(m * frame_samples) +
        static_cast<std::ptrdiff_t>(std::llround(offset_s * config_.analog_fs));
    detail::require(base >= 0 && static_cast<std::size_t>(base) + pulse_.size() <= train.length,
                    "Gen2Transmitter: symbol time offset pushes its pulse off the train");
    train.offsets[m] = static_cast<std::size_t>(base);
    detail::require(m == 0 || train.offsets[m] >= train.offsets[m - 1],
                    "Gen2Transmitter: symbol time offsets reorder the pulses");
  }

  // The dense train's energy, summed block by block in sample order.
  constexpr std::size_t kBlock = 1024;
  double block[kBlock];
  double energy = 0.0;
  for (std::size_t first = 0; first < train.length; first += kBlock) {
    const std::size_t count = std::min(kBlock, train.length - first);
    synthesize(train, first, count, block);
    for (std::size_t k = 0; k < count; ++k) energy += block[k] * block[k];
  }

  TxFrame& frame = train.frame;
  frame.payload = payload;
  frame.frame_bits = pkt.all;
  frame.preamble_bits = pkt.preamble.size();
  frame.sfd_bits = pkt.sfd.size();
  frame.samples_per_bit = config_.samples_per_bit_analog();
  // Eb over info-carrying symbols: total energy / on-air bits (overhead
  // counted -- it is transmitted energy).
  frame.energy_per_bit = energy / static_cast<double>(overhead_bits + body.size());
  frame.overhead_symbols = head;
  frame.payload_symbols = body_map.weights.size();
  frame.body_bits = pkt.payload.size();
  return train;
}

void Gen2Transmitter::synthesize(const Gen2Train& train, std::size_t first, std::size_t count,
                                 double* out) const {
  dsp::shifted_sum(train.amplitudes.data(), train.offsets.data(), train.amplitudes.size(),
                   pulse_.samples().data(), pulse_.size(), first, count, out);
}

}  // namespace uwb::txrx
