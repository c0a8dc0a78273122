#include "phy/esnr.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>

#include "util/units.h"

namespace wgtt::phy {

namespace {

double q_function(double x) { return 0.5 * std::erfc(x / std::sqrt(2.0)); }

// Facts about effective_snr_db that esnr_ceiling_db relies on (DESIGN.md §8,
// "Exact work skipping").
// The mean-BER < 1e-12 clamp to 45 dB needs every subcarrier above the SNR
// where the modulation's BER falls to 1e-12: 13.93 dB (BPSK), 16.94 (QPSK),
// 23.88 (16-QAM), 30.07 (64-QAM). A ceiling below the guard, set about 1 dB
// lower, proves the clamp unreachable; at or above it the bound gives up.
double clamp_guard_db(Modulation m) {
  switch (m) {
    case Modulation::kBpsk: return 13.0;
    case Modulation::kQpsk: return 16.0;
    case Modulation::kQam16: return 23.0;
    case Modulation::kQam64: return 29.0;
  }
  return 0.0;
}
// Covers the bisection's last-bracket rounding and the averaged BER's
// rounding, both many orders of magnitude smaller.
constexpr double kCeilingMarginDb = 1e-3;

}  // namespace

double bit_error_rate(Modulation m, double snr_linear) {
  const double g = std::max(snr_linear, 0.0);
  switch (m) {
    case Modulation::kBpsk:
      return q_function(std::sqrt(2.0 * g));
    case Modulation::kQpsk:
      return q_function(std::sqrt(g));
    case Modulation::kQam16:
      // Gray-coded square QAM nearest-neighbour approximation.
      return 0.75 * q_function(std::sqrt(g / 5.0));
    case Modulation::kQam64:
      return (7.0 / 12.0) * q_function(std::sqrt(g / 21.0));
  }
  return 0.5;
}

double snr_for_ber(Modulation m, double ber) {
  if (ber <= 0.0) throw std::invalid_argument("ber must be positive");
  const double target = std::min(ber, 0.5);
  // BER is monotone decreasing in SNR; bisect on log-SNR over a generous
  // range (-30 dB .. +60 dB).
  double lo = 1e-3;
  double hi = 1e6;
  if (bit_error_rate(m, lo) <= target) return lo;
  if (bit_error_rate(m, hi) >= target) return hi;
  for (int it = 0; it < 48; ++it) {
    const double mid = std::sqrt(lo * hi);
    if (bit_error_rate(m, mid) > target) {
      lo = mid;
    } else {
      hi = mid;
    }
  }
  return std::sqrt(lo * hi);
}

double effective_snr_db(std::span<const double> subcarrier_snr_db,
                        Modulation m) {
  if (subcarrier_snr_db.empty()) {
    throw std::invalid_argument("effective_snr_db on empty CSI");
  }
  double mean_ber = 0.0;
  for (double snr_db : subcarrier_snr_db) {
    mean_ber += bit_error_rate(m, from_db(snr_db));
  }
  mean_ber /= static_cast<double>(subcarrier_snr_db.size());
  // Clamp: all-subcarriers-perfect gives BER 0; report a high ceiling.
  if (mean_ber < 1e-12) return 45.0;
  return to_db(snr_for_ber(m, mean_ber));
}

double esnr_ceiling_db(Modulation m, double peak_snr_db) {
  // ESNR is the flat SNR whose BER equals the subcarriers' mean BER, which
  // is at least the best subcarrier's BER: so ESNR <= peak, or the floor.
  const double bound = std::max(peak_snr_db, kEsnrFloorDb) + kCeilingMarginDb;
  return bound >= clamp_guard_db(m) ? std::numeric_limits<double>::infinity()
                                    : bound;
}

double esnr_metric_db(std::span<const double> subcarrier_snr_db) {
  return effective_snr_db(subcarrier_snr_db, Modulation::kQam64);
}

double mpdu_delivery_probability(double esnr_db, Mcs mcs,
                                 std::size_t psdu_bytes) {
  const McsInfo& info = mcs_info(mcs);
  // Logistic success curve centred at the MCS sensitivity point; ~1.2 dB
  // transition width matches measured 802.11n waterfall curves.
  const double x = (esnr_db - info.min_esnr_db) / 1.2;
  const double p_ref = 1.0 / (1.0 + std::exp(-x));
  // Length scaling relative to the 1500 B reference frame: longer frames
  // expose more bits to the residual error rate. Floored at 1/4 of the
  // reference: even a minimal frame still needs its preamble, headers and
  // FCS intact, so arbitrarily short frames do not become arbitrarily
  // robust.
  const double ratio = std::max(
      static_cast<double>(std::max<std::size_t>(psdu_bytes, 1)) / 1500.0, 0.25);
  return std::pow(p_ref, ratio);
}

double mpdu_delivery_probability(std::span<const double> subcarrier_snr_db,
                                 Mcs mcs, std::size_t psdu_bytes) {
  const double esnr =
      effective_snr_db(subcarrier_snr_db, mcs_info(mcs).modulation);
  return mpdu_delivery_probability(esnr, mcs, psdu_bytes);
}

double expected_goodput_mbps(std::span<const double> subcarrier_snr_db,
                             Mcs mcs, std::size_t psdu_bytes) {
  return mcs_info(mcs).data_rate_mbps *
         mpdu_delivery_probability(subcarrier_snr_db, mcs, psdu_bytes);
}

}  // namespace wgtt::phy
