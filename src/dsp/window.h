#pragma once
/// \file window.h
/// \brief Window functions for FIR design and spectral estimation.

#include <cstddef>

#include "common/types.h"

namespace uwb::dsp {

/// Supported window shapes.
enum class WindowType {
  kRectangular,
  kHann,
  kHamming,
  kBlackman,
  kKaiser,  ///< needs a beta parameter; see kaiser()
};

/// Returns an n-point window of the given type. For Kaiser, \p kaiser_beta
/// sets the sidelobe/width trade (ignored for the fixed windows).
RealVec make_window(WindowType type, std::size_t n, double kaiser_beta = 8.6);

/// n-point Hann window.
RealVec hann(std::size_t n);

/// n-point Hamming window.
RealVec hamming(std::size_t n);

/// n-point Blackman window.
RealVec blackman(std::size_t n);

/// n-point Kaiser window with shape parameter \p beta.
RealVec kaiser(std::size_t n, double beta);

/// Zeroth-order modified Bessel function of the first kind (Kaiser kernel).
double bessel_i0(double x);

}  // namespace uwb::dsp
