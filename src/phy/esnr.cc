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

// Bracketed inversion (DESIGN.md §8, "Exact work skipping"). Most of the
// bisection's 48 BER evaluations only confirm on which side of the root a
// far-off midpoint lies. A bracket [a, b] around the root, certified by two
// evaluations that clear the target by the relative margin kBracketEta,
// decides every midpoint outside it by monotonicity.
// That is exact: bit_error_rate is c * erfc(x), with x reached from the SNR
// by correctly rounded, monotone steps (scaling, sqrt), and erfc is within a
// few ulps of the true, decreasing function. So a mid <= a has a computed
// BER of at least BER(a) * (1 - 1e-15) > target, the bisection's own
// verdict, and a mid >= b one of at most BER(b) * (1 + 1e-15) < target.
// kBracketEta is ~4500 ulps.
constexpr double kBracketEta = 1e-12;
// Below this target erfc's result nears the subnormal range, where its error
// is absolute rather than relative: no bracket is certified.
constexpr double kMinCertifiedBer = 1e-250;

// [a, b]: BER is above the target at every SNR <= a and at or below it at
// every SNR >= b. The default decides nothing (every mid is > 0).
struct Bracket {
  double a = 0.0;
  double b = std::numeric_limits<double>::infinity();
  [[nodiscard]] bool certified() const { return std::isfinite(b); }
};

// Acklam's rational approximation of the normal quantile (relative error
// below 1.2e-9), for an upper-tail probability p in (0, 0.5): y > 0 with
// Q(y) ~= p.
double q_inverse_estimate(double p) {
  if (p < 0.02425) {
    const double q = std::sqrt(-2.0 * std::log(p));
    return -(((((-7.784894002430293e-03 * q - 3.223964580411365e-01) * q -
                2.400758277161838e+00) * q - 2.549732539343734e+00) * q +
              4.374664141464968e+00) * q + 2.938163982698783e+00) /
           ((((7.784695709041462e-03 * q + 3.224671290700398e-01) * q +
              2.445134137142996e+00) * q + 3.754408661907416e+00) * q + 1.0);
  }
  const double q = p - 0.5;
  const double r = q * q;
  return -(((((-3.969683028665376e+01 * r + 2.209460984245205e+02) * r -
              2.759285104469687e+02) * r + 1.383577518672690e+02) * r -
            3.066479806614716e+01) * r + 2.506628277459239e+00) * q /
         (((((-5.447609879822406e+01 * r + 1.615858368580409e+02) * r -
             1.556989798598866e+02) * r + 6.680131188771972e+01) * r -
           1.328068155288572e+01) * r + 1.0);
}

// A bracket around the SNR where bit_error_rate(m, .) = target, inside
// [lo, hi], or the default one when it cannot be certified. Counts its BER
// evaluations (the Halley step's Q included) into `evaluations`.
Bracket certified_bracket(Modulation m, double target, double lo, double hi,
                          int& evaluations) {
  // bit_error_rate(m, snr) = scale * Q(sqrt(gain * snr)).
  double scale = 1.0;
  double gain = 1.0;
  switch (m) {
    case Modulation::kBpsk: gain = 2.0; break;
    case Modulation::kQpsk: break;
    case Modulation::kQam16: scale = 0.75; gain = 1.0 / 5.0; break;
    case Modulation::kQam64: scale = 7.0 / 12.0; gain = 1.0 / 21.0; break;
  }
  const double p = target / scale;
  if (!(target >= kMinCertifiedBer && p < 0.5)) return {};
  // One Halley step on Q(y) = p takes the estimate to about full precision.
  double y = q_inverse_estimate(p);
  const double density = std::exp(-0.5 * y * y) / std::sqrt(2.0 * M_PI);
  ++evaluations;
  const double u = (q_function(y) - p) / density;
  y += u / (1.0 - 0.5 * y * u);
  const double root = y * y / gain;
  // d ln BER / d ln SNR = -y * density / (2 p): this relative half-width
  // moves the BER by about 2 * kBracketEta either way.
  const double half = 4.0 * kBracketEta * p / (y * density);
  if (!(half < 0.25)) return {};
  const Bracket br{root * (1.0 - half), root * (1.0 + half)};
  if (!(br.a >= lo && br.b <= hi)) return {};
  evaluations += 2;
  if (bit_error_rate(m, br.a) > target * (1.0 + kBracketEta) &&
      bit_error_rate(m, br.b) <= target * (1.0 - kBracketEta)) {
    return br;
  }
  return {};
}

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
  int evaluations = 0;
  return snr_for_ber(m, ber, evaluations);
}

double snr_for_ber(Modulation m, double ber, int& ber_evaluations) {
  if (ber <= 0.0) throw std::invalid_argument("ber must be positive");
  const double target = std::min(ber, 0.5);
  ber_evaluations = 0;
  const auto ber_at = [&](double snr) {
    ++ber_evaluations;
    return bit_error_rate(m, snr);
  };
  // BER is monotone decreasing in SNR; bisect on log-SNR over a generous
  // range (-30 dB .. +60 dB). Steps whose midpoint lies outside the
  // certified bracket are decided without a BER evaluation.
  double lo = 1e-3;
  double hi = 1e6;
  const Bracket br = certified_bracket(m, target, lo, hi, ber_evaluations);
  if (!br.certified()) {
    if (ber_at(lo) <= target) return lo;
    if (ber_at(hi) >= target) return hi;
  }
  for (int it = 0; it < 48; ++it) {
    const double mid = std::sqrt(lo * hi);
    const bool above = mid > br.a && mid < br.b ? ber_at(mid) > target
                                                : mid <= br.a;
    if (above) {
      lo = mid;
    } else {
      hi = mid;
    }
  }
  return std::sqrt(lo * hi);
}

namespace {
// The mean BER over the subcarriers, inverted; to_linear maps each CSI entry
// to linear SNR.
template <typename ToLinear>
double esnr_db(std::span<const double> csi, Modulation m, ToLinear to_linear) {
  if (csi.empty()) throw std::invalid_argument("effective_snr_db on empty CSI");
  double mean_ber = 0.0;
  for (double snr : csi) mean_ber += bit_error_rate(m, to_linear(snr));
  mean_ber /= static_cast<double>(csi.size());
  // Clamp: all-subcarriers-perfect gives BER 0; report a high ceiling.
  if (mean_ber < 1e-12) return 45.0;
  return to_db(snr_for_ber(m, mean_ber));
}
}  // namespace

double effective_snr_db(std::span<const double> subcarrier_snr_db,
                        Modulation m) {
  return esnr_db(subcarrier_snr_db, m, [](double db) { return from_db(db); });
}

double effective_snr_db_linear(std::span<const double> subcarrier_snr_linear,
                               Modulation m) {
  return esnr_db(subcarrier_snr_linear, m, [](double snr) { return snr; });
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
