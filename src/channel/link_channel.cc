#include "channel/link_channel.h"

#include <algorithm>
#include <cmath>

namespace wgtt::channel {

LinkChannel::LinkChannel(Vec2 ap_position, Vec2 boresight_target,
                         const Config& config, Rng& rng)
    : ap_position_(ap_position),
      config_(config),
      ap_antenna_(config.budget.ap_antenna_peak_dbi,
                  config.budget.ap_beamwidth_deg,
                  angle_of(boresight_target - ap_position)),
      pathloss_(config.pathloss_exponent),
      shadowing_(config.shadowing_sigma_db, config.shadowing_decorrelation_m,
                 rng.next_u64()),
      fading_(config.fading, rng) {}

double LinkChannel::large_scale_rx_dbm(Vec2 client_pos) const {
  const auto& b = config_.budget;
  const double d = distance(ap_position_, client_pos);
  return b.tx_power_dbm + ap_antenna_.gain_toward(ap_position_, client_pos) +
         b.client_antenna_dbi - b.system_loss_db - pathloss_.loss_db(d) +
         shadowing_.sample_db(client_pos);
}

double LinkChannel::large_scale_snr_db(Vec2 client_pos) const {
  return large_scale_rx_dbm(client_pos) - config_.budget.noise_floor_dbm;
}

double LinkChannel::snr_ceiling_db(Vec2 client_pos) const {
  // Each subcarrier's SNR is large_scale_snr_db + to_db(max(|H|^2, 1e-4))
  // with |H|^2 <= peak_power(); the 1e-9 slack covers the rounding of the
  // computed |H|^2.
  return large_scale_snr_db(client_pos) +
         to_db(std::max(fading_.peak_power() * (1.0 + 1e-9), 1e-4));
}

CsiMeasurement LinkChannel::measure(Vec2 client_pos, Time t) const {
  const double rx_dbm = large_scale_rx_dbm(client_pos);
  const CsiSnapshot snap = fading_.csi(client_pos, t);

  CsiMeasurement m;
  m.when = t;
  const double base_snr_db = rx_dbm - config_.budget.noise_floor_dbm;
  double mean_power = 0.0;
  for (std::size_t i = 0; i < snap.gains.size(); ++i) {
    const double p = std::norm(snap.gains[i]);
    mean_power += p;
    // Floor the per-subcarrier fade at -40 dB to keep the dB math finite in
    // a deep null.
    m.subcarrier_snr_db[i] = base_snr_db + to_db(std::max(p, 1e-4));
  }
  mean_power /= static_cast<double>(snap.gains.size());
  m.rssi_dbm = rx_dbm + to_db(std::max(mean_power, 1e-4));
  return m;
}

}  // namespace wgtt::channel
