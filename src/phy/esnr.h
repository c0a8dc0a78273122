// Effective SNR (Halperin et al., SIGCOMM 2010): the link metric at the
// heart of WGTT's AP selection (§3.1.1).
//
// A frequency-selective channel delivers different SNR on each OFDM
// subcarrier. Averaging SNR in dB (or using RSSI) over-estimates delivery
// probability when a few subcarriers are deeply faded. ESNR instead:
//   1. maps each subcarrier's SNR to a bit error rate for the modulation,
//   2. averages the BERs across subcarriers,
//   3. inverts the BER->SNR map to get the flat-channel SNR that would have
//      produced the same average BER.
// The result predicts packet delivery far better under strong multipath —
// exactly the regime the roadside picocells live in.
#pragma once

#include <cstddef>
#include <span>

#include "phy/mcs.h"

namespace wgtt::phy {

/// Uncoded bit error rate of `m` over AWGN at linear SNR `snr`.
[[nodiscard]] double bit_error_rate(Modulation m, double snr_linear);

/// Inverse of bit_error_rate in its SNR argument (binary search; BER must be
/// in (0, 0.5]). Returns linear SNR. Bisection steps outside a certified
/// bracket around the root are decided without a BER evaluation (DESIGN.md
/// §8, "Exact work skipping"): the result is the plain bisection's, bit for
/// bit.
[[nodiscard]] double snr_for_ber(Modulation m, double ber);

/// snr_for_ber, also reporting how many BER evaluations it made.
[[nodiscard]] double snr_for_ber(Modulation m, double ber,
                                 int& ber_evaluations);

/// Effective SNR in dB for modulation `m` given per-subcarrier SNRs in dB.
[[nodiscard]] double effective_snr_db(std::span<const double> subcarrier_snr_db,
                                      Modulation m);

/// effective_snr_db from linear per-subcarrier SNRs (from_db of the dB
/// values): the same result for the same input, for callers that evaluate
/// several modulations of one CSI vector.
[[nodiscard]] double effective_snr_db_linear(
    std::span<const double> subcarrier_snr_linear, Modulation m);

/// The lowest value effective_snr_db returns: snr_for_ber's bisection floor.
inline constexpr double kEsnrFloorDb = -30.0;

/// An upper bound on effective_snr_db(csi, m) over every CSI vector whose
/// subcarriers are all at most `peak_snr_db`, or +infinity where the bound
/// cannot be trusted (the 45 dB clamp of a near-zero mean BER is
/// reachable). Costs no BER evaluation (DESIGN.md §8, "Exact work
/// skipping").
[[nodiscard]] double esnr_ceiling_db(Modulation m, double peak_snr_db);

/// The scalar link metric WGTT's controller tracks: ESNR evaluated for
/// 64-QAM. The highest-order modulation keeps discriminating between links
/// deep into the SNR range where lower orders' BER saturates to zero — a
/// saturated metric cannot rank two good APs and causes selection
/// ping-pong (see bench_abl_selection_metric).
[[nodiscard]] double esnr_metric_db(std::span<const double> subcarrier_snr_db);

/// Probability that an MPDU of `psdu_bytes` at `mcs` is received given
/// effective SNR `esnr_db` (for the MCS's modulation). Combines the coded
/// sensitivity ladder in the MCS table with a logistic roll-off and a
/// frame-length correction.
[[nodiscard]] double mpdu_delivery_probability(double esnr_db, Mcs mcs,
                                               std::size_t psdu_bytes);

/// Up to this PSDU length, mpdu_delivery_probability is > 0 for every MCS at
/// every ESNR effective_snr_db can return (>= kEsnrFloorDb): the logistic
/// power does not underflow (phy_test checks it).
inline constexpr std::size_t kMaxPositivePsduBytes = 16'384;

/// Convenience: delivery probability straight from per-subcarrier SNRs.
[[nodiscard]] double mpdu_delivery_probability(
    std::span<const double> subcarrier_snr_db, Mcs mcs, std::size_t psdu_bytes);

/// Expected goodput (Mbit/s) of `mcs` for a given CSI vector — the quantity
/// an ESNR-driven rate controller maximizes.
[[nodiscard]] double expected_goodput_mbps(
    std::span<const double> subcarrier_snr_db, Mcs mcs, std::size_t psdu_bytes);

}  // namespace wgtt::phy
