#pragma once
/// \file mlse.h
/// \brief The "Viterbi demodulator": maximum-likelihood sequence estimation
///        over the ISI channel ("The inter-symbol interference due to
///        multipath can be addressed with a Viterbi demodulator", Section 1;
///        programmable in gen-2, Section 3 -- the "States" input of Fig. 3).
///
/// The demodulator runs a Viterbi algorithm whose states are the last
/// (memory) BPSK symbols; branch metrics are Euclidean distances between
/// the observed soft sample and the expected superposition through the
/// symbol-spaced composite channel g[0..memory]. The gen-2 receiver learns
/// g data-aided on the known preamble, from the RAKE combiner's output
/// (whose fingers the quantized channel estimate sets).

#include <cstddef>

#include "common/types.h"
#include "equalizer/demodulator.h"

namespace uwb::equalizer {

/// MLSE configuration.
struct MlseConfig {
  int memory = 3;  ///< trellis memory in symbols (states = 2^memory)
};

/// BPSK MLSE (Viterbi demodulator).
class MlseDemodulator {
 public:
  /// \p g is the composite symbol-spaced channel (g[0] = main tap).
  MlseDemodulator(const MlseConfig& config, std::vector<cplx> g);

  [[nodiscard]] const MlseConfig& config() const noexcept { return config_; }
  [[nodiscard]] const std::vector<cplx>& channel() const noexcept { return g_; }
  [[nodiscard]] int num_states() const noexcept { return 1 << config_.memory; }

  /// Demodulates one complex observation per symbol (symbol-rate samples of
  /// the matched-filtered waveform at the punctual timing). Returns hard
  /// bits (0 -> +1, 1 -> -1 convention matching the BPSK mapper).
  [[nodiscard]] BitVec demodulate(const CplxVec& observations) const;

 private:
  MlseConfig config_;
  std::vector<cplx> g_;
};

}  // namespace uwb::equalizer
