#pragma once
/// \file snr_estimator.h
/// \brief Data-aided SNR estimation from correlator outputs. The
///        paper's receiver "allows us to trade off power dissipation with
///        ... quality of service" -- the trade-off controller needs an SNR
///        estimate to pick a configuration.

#include "common/types.h"

namespace uwb::estimation {

/// Data-aided estimate from known-symbol decision variables: signal power
/// = mean^2 of |soft|, noise = variance around it. Returns linear SNR.
double snr_data_aided(const std::vector<double>& soft_known_sign);

}  // namespace uwb::estimation
