#include "phy/rate_control.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <limits>

namespace wgtt::phy {

MinstrelLite::MinstrelLite(const Config& config, Rng rng)
    : config_(config), rng_(rng) {
  success_.fill(config_.initial_success);
}

Mcs MinstrelLite::select() {
  if (rng_.chance(config_.sample_fraction)) {
    return static_cast<Mcs>(rng_.uniform_int(kNumMcs));
  }
  double best_tput = -1.0;
  Mcs best = Mcs::kMcs0;
  for (const auto& info : all_mcs()) {
    const double tput =
        info.data_rate_mbps * success_[static_cast<std::size_t>(info.index)];
    if (tput > best_tput) {
      best_tput = tput;
      best = info.index;
    }
  }
  return best;
}

void MinstrelLite::report(Mcs used, int attempted, int delivered) {
  if (attempted <= 0) return;
  const double rate = static_cast<double>(delivered) / attempted;
  double& s = success_[static_cast<std::size_t>(used)];
  s = config_.ewma_alpha * rate + (1.0 - config_.ewma_alpha) * s;
}

void MinstrelLite::observe_csi(std::span<const double>) {}

double MinstrelLite::success_estimate(Mcs mcs) const {
  return success_[static_cast<std::size_t>(mcs)];
}

EsnrRateSelector::EsnrRateSelector(std::size_t reference_mpdu_bytes,
                                   double margin_db)
    : reference_bytes_(reference_mpdu_bytes), margin_db_(margin_db) {}

Mcs EsnrRateSelector::select() { return current_; }

void EsnrRateSelector::report(Mcs used, int attempted, int delivered) {
  if (attempted <= 0) return;
  // Track recent failure rate to add margin when CSI is stale: if the last
  // few aggregates mostly failed, retreat one MCS until fresh CSI arrives.
  failure_backoff_.add(1.0 - static_cast<double>(delivered) / attempted);
  if (failure_backoff_.value() > 0.6 && used == current_ &&
      current_ != Mcs::kMcs0) {
    current_ = static_cast<Mcs>(static_cast<int>(current_) - 1);
  }
}

void EsnrRateSelector::observe_csi(std::span<const double> subcarrier_snr_db) {
  // Derate the CSI by the staleness margin, then pick the expected-goodput
  // maximizer. CSI is at most kNumSubcarriers wide, so the derated copy
  // lives in fixed scratch — this runs per transmitted A-MPDU and must not
  // allocate. Every modulation reads the same linear SNRs.
  std::array<double, kNumSubcarriers> linear;
  const std::size_t n = std::min(subcarrier_snr_db.size(), linear.size());
  double peak_db = -std::numeric_limits<double>::infinity();
  for (std::size_t i = 0; i < n; ++i) {
    const double db = subcarrier_snr_db[i] - margin_db_;
    peak_db = std::max(peak_db, db);
    linear[i] = from_db(db);
  }
  const std::span<const double> derated(linear.data(), n);

  // The argmax of expected_goodput_mbps over every MCS, lowest MCS among
  // exact maxima, with one ESNR per modulation at most (DESIGN.md §8,
  // "Exact work skipping"). A modulation's goodputs are each at most
  // rate * p(ESNR ceiling), so modulations are visited in descending order
  // of that bound, and the rest are skipped once it falls below the best
  // exact goodput.
  constexpr std::size_t kModulations = 4;
  std::array<double, kModulations> bound{};
  for (const auto& info : all_mcs()) {
    const double ceiling = esnr_ceiling_db(info.modulation, peak_db);
    const double p_hi =
        std::isfinite(ceiling)
            ? mpdu_delivery_probability(ceiling, info.index, reference_bytes_)
            : 1.0;
    double& b = bound[static_cast<std::size_t>(info.modulation)];
    b = std::max(b, info.data_rate_mbps * p_hi);
  }
  std::array<std::size_t, kModulations> order{0, 1, 2, 3};
  std::stable_sort(order.begin(), order.end(), [&](std::size_t x, std::size_t y) {
    return bound[x] > bound[y];
  });
  double best_goodput = -1.0;
  Mcs best = Mcs::kMcs0;
  for (const std::size_t mod : order) {
    // The relative margin covers the rounding of p, monotone only to a few
    // ulps: a skipped goodput is strictly below the best, never tied.
    if (bound[mod] * (1.0 + 1e-9) < best_goodput) break;
    const auto modulation = static_cast<Modulation>(mod);
    const double esnr = effective_snr_db_linear(derated, modulation);
    for (const auto& info : all_mcs()) {
      if (info.modulation != modulation) continue;
      const double g =
          info.data_rate_mbps *
          mpdu_delivery_probability(esnr, info.index, reference_bytes_);
      if (g > best_goodput || (g == best_goodput && info.index < best)) {
        best_goodput = g;
        best = info.index;
      }
    }
  }
  current_ = best;
  failure_backoff_.reset();
}

}  // namespace wgtt::phy
