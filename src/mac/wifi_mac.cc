#include "mac/wifi_mac.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <string>

#include "phy/esnr.h"

namespace wgtt::mac {

namespace {
/// Fills `out` with each decode draw's delivery probability at `esnr_db`.
/// Consecutive draws of equal length share one evaluation: the same
/// function of the same input.
void delivery_probabilities(double esnr_db, phy::Mcs mcs,
                            const std::vector<std::size_t>& bytes,
                            std::vector<double>& out) {
  out.clear();
  for (std::size_t i = 0; i < bytes.size(); ++i) {
    out.push_back(i > 0 && bytes[i] == bytes[i - 1]
                      ? out.back()
                      : phy::mpdu_delivery_probability(esnr_db, mcs, bytes[i]));
  }
}

/// True if every uniform is at or above its draw's upper probability bound,
/// with a relative margin for the rounding of p.
bool every_draw_fails(const std::vector<double>& u,
                      const std::vector<double>& p_hi) {
  for (std::size_t i = 0; i < u.size(); ++i) {
    if (u[i] < p_hi[i] * (1.0 + 1e-9)) return false;
  }
  return true;
}
}  // namespace

WifiMac::WifiMac(sim::Scheduler& sched, Medium& medium, Rng rng, Config config)
    : sched_(sched), medium_(medium), rng_(rng), config_(config) {
  cw_ = config_.timings.cw_min;
  ba_timer_ = std::make_unique<sim::Timer>(sched_, [this] { on_ba_timeout(); },
                                           sim::EventCategory::kMacTx);
}

const std::array<WifiMac::CounterKey, 10> WifiMac::kCounterKeys = {{
    // Per-peer facts are read through total_stats(): no MAC-wide copy.
    {"ampdus_sent", &total_of<&PeerStats::ampdus_sent>},
    {"retransmissions", &total_of<&PeerStats::retransmissions>},
    {"mpdus_delivered", &total_of<&PeerStats::mpdus_delivered>},
    {"mpdus_delivered_via_forwarded_ba",
     &total_of<&PeerStats::mpdus_delivered_via_forwarded_ba>},
    {"mpdus_dropped_retry", &total_of<&PeerStats::mpdus_dropped_retry>},
    {"enqueue_drops", &total_of<&PeerStats::enqueue_drops>},
    {"ba_timeouts", &total_of<&PeerStats::ba_timeouts>},
    {"ba_injected", &field_of<&WifiMac::ba_injected_>},
    {"ba_heard", &field_of<&WifiMac::ba_heard_>},
    {"ba_collisions", &field_of<&WifiMac::ba_collided_>},
}};

WifiMac::Instruments WifiMac::instruments(obs::MetricsRegistry& registry,
                                          std::string_view component) {
  const std::string prefix = std::string(component) + ".";
  Instruments in;
  in.registry = &registry;
  for (const CounterKey& k : kCounterKeys) {
    in.counters.push_back(&registry.counter(prefix + std::string(k.name)));
  }
  in.ampdu_mpdus = &registry.histogram(prefix + "ampdu_mpdus", 0.0, 33.0, 33);
  in.hw_queue_depth =
      &registry.histogram(prefix + "hw_queue_depth", 0.0, 160.0, 160);
  return in;
}

void WifiMac::set_metrics(obs::MetricsRegistry* registry,
                          std::string_view component) {
  if (registry == nullptr) {
    counters_.release();
    metrics_.reset();
    return;
  }
  set_metrics(instruments(*registry, component));
}

void WifiMac::set_metrics(const Instruments& instruments) {
  counters_.release();
  metrics_.reset();
  for (std::size_t i = 0; i < kCounterKeys.size(); ++i) {
    counters_.bind(*instruments.registry, *instruments.counters[i], this,
                   kCounterKeys[i].read);
  }
  metrics_ = Metrics{instruments.ampdu_mpdus, instruments.hw_queue_depth};
}

RadioId WifiMac::attach(Medium::PositionFn position) {
  if (radio_ != RadioId{0xffffffff}) throw std::logic_error("WifiMac::attach called twice");
  radio_ = medium_.add_radio(
      std::move(position),
      [this](const Frame& f, const Medium::RxContext& ctx) { handle_rx(f, ctx); });
  return radio_;
}

void WifiMac::add_peer(RadioId peer) {
  if (peers_.contains(peer)) return;
  peers_.emplace(peer, Peer{});
  peer_order_.push_back(peer);
}

void WifiMac::remove_peer(RadioId peer) {
  peers_.erase(peer);
  std::erase(peer_order_, peer);
  if (rr_cursor_ >= peer_order_.size()) rr_cursor_ = 0;
}

void WifiMac::set_rate_controller(RadioId peer,
                                  std::unique_ptr<phy::RateController> rc) {
  peer_of(peer).rc = std::move(rc);
}

WifiMac::Peer& WifiMac::peer_of(RadioId id) {
  auto it = peers_.find(id);
  if (it == peers_.end()) throw std::logic_error("unknown peer");
  return it->second;
}

const WifiMac::Peer* WifiMac::find_peer(RadioId id) const {
  auto it = peers_.find(id);
  return it == peers_.end() ? nullptr : &it->second;
}

bool WifiMac::enqueue(RadioId peer, net::Packet packet,
                      std::optional<std::uint16_t> seq) {
  Peer& p = peer_of(peer);
  if (p.queue.size() >= config_.hw_queue_capacity) {
    ++p.stats.enqueue_drops;
    return false;
  }
  TxMpdu t;
  t.mpdu.seq = seq.value_or(p.seq_counter.peek());
  if (!seq) p.seq_counter.next();
  t.mpdu.packet = std::move(packet);
  p.queue.push_back(std::move(t));
  ++p.stats.mpdus_enqueued;
  if (metrics_) {
    metrics_->hw_queue_depth->observe(static_cast<double>(p.queue.size()));
  }
  kick();
  return true;
}

std::size_t WifiMac::queue_depth(RadioId peer) const {
  const Peer* p = find_peer(peer);
  return p ? p->queue.size() : 0;
}

void WifiMac::flush_peer(RadioId peer) {
  Peer* p = peers_.contains(peer) ? &peer_of(peer) : nullptr;
  if (p == nullptr) return;
  // Keep MPDUs that are part of an in-flight transmission; they resolve at
  // BA/timeout. (In practice flush is called while idle.)
  if (state_ == TxState::kAwaitingBa && outstanding_.peer == peer) return;
  p->queue.clear();
}

bool WifiMac::peer_has_eligible(const Peer& p) const {
  if (p.queue.empty()) return false;
  const std::uint16_t window_start = p.queue.front().mpdu.seq;
  for (const auto& t : p.queue) {
    if (seq_sub(t.mpdu.seq, window_start) >= kBaWindow) break;
    return true;  // front of the window always transmittable
  }
  return false;
}

RadioId WifiMac::pick_next_data_peer() {
  const std::size_t n = peer_order_.size();
  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t idx = (rr_cursor_ + i) % n;
    const RadioId id = peer_order_[idx];
    if (peer_has_eligible(peer_of(id))) {
      rr_cursor_ = (idx + 1) % n;
      return id;
    }
  }
  return RadioId{0xffffffff};
}

void WifiMac::kick() {
  if (state_ != TxState::kIdle) return;
  const bool have_mgmt = !mgmt_queue_.empty();
  const bool have_data =
      !peer_order_.empty() && pick_next_data_peer() != RadioId{0xffffffff};
  if (!have_mgmt && !have_data) return;
  start_contention();
}

void WifiMac::start_contention() {
  state_ = TxState::kContending;
  const int slots = static_cast<int>(rng_.uniform_int(static_cast<std::uint64_t>(cw_) + 1));
  const Time idle_at = medium_.busy_until(radio_);
  const Time target =
      idle_at + config_.timings.difs + config_.timings.slot * slots;
  contention_event_ = sched_.schedule_at(target, [this] { attempt_transmit(); },
                                         sim::EventCategory::kMacTx);
}

void WifiMac::attempt_transmit() {
  if (state_ != TxState::kContending) return;
  if (medium_.busy_until(radio_) > sched_.now()) {
    // Medium became busy during our backoff: re-contend after it clears.
    start_contention();
    return;
  }
  if (!mgmt_queue_.empty()) {
    MgmtItem item = std::move(mgmt_queue_.front());
    mgmt_queue_.pop_front();
    transmit_mgmt(item);
    return;
  }
  const RadioId peer = pick_next_data_peer();
  if (peer == RadioId{0xffffffff}) {
    state_ = TxState::kIdle;
    return;
  }
  transmit_data(peer);
}

void WifiMac::transmit_data(RadioId peer_id) {
  Peer& p = peer_of(peer_id);

  // Rate selection (fresh CSI if the controller is ESNR-driven).
  phy::Mcs mcs = phy::Mcs::kMcs0;
  if (p.rc) {
    if (sampler_) {
      const channel::CsiMeasurement csi = sampler_(peer_id);
      p.rc->observe_csi(csi.subcarrier_snr_db);
    }
    mcs = p.rc->select();
  }

  // Aggregate from the front of the BA window.
  DataFrame df;
  df.mcs = mcs;
  std::size_t bytes = 0;
  const std::uint16_t window_start = p.queue.front().mpdu.seq;
  for (auto& t : p.queue) {
    if (static_cast<int>(df.mpdus.size()) >= config_.max_ampdu_mpdus) break;
    if (seq_sub(t.mpdu.seq, window_start) >= kBaWindow) break;
    const std::size_t sz = t.mpdu.packet.air_bytes();
    if (!df.mpdus.empty() && bytes + sz > config_.max_ampdu_bytes) break;
    if (!df.mpdus.empty() &&
        phy::ampdu_duration(mcs, bytes + sz) > config_.max_tx_airtime) {
      break;
    }
    bytes += sz;
    if (t.ever_sent) {
      ++t.mpdu.retries;
      ++p.stats.retransmissions;
    }
    t.ever_sent = true;
    df.mpdus.push_back(t.mpdu);
  }
  if (df.mpdus.empty()) {
    state_ = TxState::kIdle;
    return;
  }

  const Time duration = phy::ampdu_duration(mcs, bytes);
  Frame frame;
  frame.to = tx_to_bssid_ ? kBssidWgtt : peer_id;
  frame.body = df;

  outstanding_ = Outstanding{};
  outstanding_.peer = peer_id;
  outstanding_.mcs = mcs;
  for (const auto& m : df.mpdus) outstanding_.seqs.push_back(m.seq);

  ++p.stats.ampdus_sent;
  if (metrics_) {
    metrics_->ampdu_mpdus->observe(static_cast<double>(df.mpdus.size()));
  }
  if (on_tx_attempt) on_tx_attempt(peer_id, mcs, static_cast<int>(df.mpdus.size()));

  outstanding_.tx_uid = medium_.transmit(radio_, std::move(frame), duration);
  state_ = TxState::kAwaitingBa;
  ba_timer_->start(duration + config_.timings.sifs + phy::block_ack_duration() +
                   config_.ba_response_jitter_max + config_.ba_timeout_margin);
}

void WifiMac::transmit_mgmt(const MgmtItem& item) {
  Frame frame;
  frame.to = item.peer;
  frame.body = item.body;
  const bool is_beacon = std::holds_alternative<BeaconFrame>(item.body);
  const Time duration =
      is_beacon ? phy::beacon_duration() : phy::mpdu_duration(phy::Mcs::kMcs0, 96);
  medium_.transmit(radio_, std::move(frame), duration);
  state_ = TxState::kTransmitting;
  sched_.schedule_in(duration, [this] {
    state_ = TxState::kIdle;
    kick();
  }, sim::EventCategory::kMacTx);
}

void WifiMac::complete_mpdu(Peer& p, RadioId peer_id,
                            std::deque<TxMpdu>::iterator it,
                            bool via_forwarded) {
  ++p.stats.mpdus_delivered;
  if (via_forwarded) ++p.stats.mpdus_delivered_via_forwarded_ba;
  p.stats.bytes_delivered += it->mpdu.packet.payload_bytes;
  // Erase before the callback: on_mpdu_acked handlers re-enter (the AP pump
  // enqueues the next packet), which would invalidate `it`.
  Mpdu acked = std::move(it->mpdu);
  p.queue.erase(it);
  if (on_mpdu_acked) on_mpdu_acked(peer_id, acked.seq, acked.packet);
}

void WifiMac::process_ba(RadioId peer_id, const BaBitmap& ba, bool forwarded) {
  Peer* pp = peers_.contains(peer_id) ? &peer_of(peer_id) : nullptr;
  if (pp == nullptr) return;
  Peer& p = *pp;

  // Complete every queued MPDU the bitmap acks. Index-based loop: deque
  // erase invalidates iterators.
  for (std::size_t i = 0; i < p.queue.size();) {
    if (p.queue[i].ever_sent && ba.acks(p.queue[i].mpdu.seq)) {
      complete_mpdu(p, peer_id, p.queue.begin() + static_cast<std::ptrdiff_t>(i),
                    forwarded);
    } else {
      ++i;
    }
  }

  if (!forwarded && state_ == TxState::kAwaitingBa && outstanding_.peer == peer_id) {
    // Live BA for the outstanding aggregate: resolve it. An MPDU counts as
    // delivered if this bitmap acks it OR an earlier-merged BA (another AP
    // hearing the same BSSID-addressed aggregate, or a forwarded BA)
    // already completed it — otherwise the rate controller under-counts
    // multi-AP receptions and spirals down the MCS table.
    ba_timer_->cancel();
    int delivered = 0;
    for (std::uint16_t s : outstanding_.seqs) {
      if (ba.acks(s)) {
        ++delivered;
        continue;
      }
      const bool still_queued =
          std::any_of(p.queue.begin(), p.queue.end(),
                      [s](const TxMpdu& t) { return t.mpdu.seq == s; });
      if (!still_queued) ++delivered;
    }
    if (p.rc) {
      p.rc->report(outstanding_.mcs, static_cast<int>(outstanding_.seqs.size()),
                   delivered);
    }
    // Unacked MPDUs stay queued; drop those past the retry limit.
    for (auto it = p.queue.begin(); it != p.queue.end();) {
      if (it->ever_sent && !ba.acks(it->mpdu.seq) &&
          it->mpdu.retries >= config_.retry_limit) {
        ++p.stats.mpdus_dropped_retry;
        it = p.queue.erase(it);
      } else {
        ++it;
      }
    }
    cw_ = config_.timings.cw_min;
    state_ = TxState::kIdle;
    kick();
  }
}

void WifiMac::on_ba_timeout() {
  if (state_ != TxState::kAwaitingBa) return;
  Peer* pp = peers_.contains(outstanding_.peer) ? &peer_of(outstanding_.peer) : nullptr;
  if (pp != nullptr) {
    Peer& p = *pp;
    ++p.stats.ba_timeouts;
    if (p.rc) {
      // MPDUs completed out-of-band (merged BAs) still count as delivered.
      int delivered = 0;
      for (std::uint16_t s : outstanding_.seqs) {
        const bool still_queued =
            std::any_of(p.queue.begin(), p.queue.end(),
                        [s](const TxMpdu& t) { return t.mpdu.seq == s; });
        if (!still_queued) ++delivered;
      }
      p.rc->report(outstanding_.mcs, static_cast<int>(outstanding_.seqs.size()),
                   delivered);
    }
    for (auto it = p.queue.begin(); it != p.queue.end();) {
      if (it->ever_sent && it->mpdu.retries >= config_.retry_limit) {
        ++p.stats.mpdus_dropped_retry;
        it = p.queue.erase(it);
      } else {
        ++it;
      }
    }
  }
  cw_ = std::min(cw_ * 2 + 1, config_.timings.cw_max);
  state_ = TxState::kIdle;
  kick();
}

void WifiMac::inject_block_ack(RadioId client, const BaBitmap& ba) {
  // Out-of-band scoreboard update (ath_tx_complete_aggr path in the paper).
  ++ba_injected_;
  process_ba(client, ba, /*forwarded=*/true);
  // If we are currently awaiting this client's BA over the air, the live
  // path still runs; the forwarded copy only completes queued MPDUs early.
}

void WifiMac::send_block_ack(RadioId to, const BaBitmap& ba,
                             std::uint64_t acked_uid) {
  // BA is sent SIFS (plus hardware jitter) after the data frame, without
  // contention (HT-immediate block ack).
  const Time jitter = Time::ns(static_cast<std::int64_t>(
      rng_.uniform() *
      static_cast<double>(config_.ba_response_jitter_max.count_ns())));
  sched_.schedule_in(config_.timings.sifs + jitter, [this, to, ba, acked_uid] {
    Frame f;
    f.to = to;
    BlockAckFrame baf;
    baf.start_seq = ba.start_seq;
    baf.bitmap = ba.bits;
    baf.acked_tx_uid = acked_uid;
    f.body = baf;
    medium_.transmit(radio_, std::move(f), phy::block_ack_duration());
  }, sim::EventCategory::kMacTx);
}

bool WifiMac::decide_decodes(RadioId from, phy::Mcs mcs,
                             channel::CsiMeasurement& csi) {
  // Bound-first decode (DESIGN.md §8). Every exact probability p lies
  // between its values at a lower and an upper bound on the ESNR, and is
  // above 0 (ESNR never falls below the -30 dB floor). When every
  // p_hi < 1 - 1e-9, Rng::chance would make exactly one uniform draw per
  // MPDU, so the draws can be made up front; a draw below p_lo decodes and
  // one at or above p_hi fails, whatever the exact ESNR. First the link's
  // SNR ceiling: if it fails every draw, nothing reads the CSI. Then the
  // measured CSI's own bounds; only a draw between them needs the ESNR.
  const phy::Modulation modulation = phy::mcs_info(mcs).modulation;
  const bool positive =
      std::all_of(draw_bytes_.begin(), draw_bytes_.end(), [](std::size_t b) {
        return b <= phy::kMaxPositivePsduBytes;
      });
  // Fills draw_p_ with p at `ceiling` and, if every draw then takes exactly
  // one uniform, makes them into draw_u_.
  const auto draw_up_front = [&](double ceiling) {
    if (!positive || !std::isfinite(ceiling)) return false;
    delivery_probabilities(ceiling, mcs, draw_bytes_, draw_p_);
    if (!std::all_of(draw_p_.begin(), draw_p_.end(),
                     [](double p_hi) { return p_hi < 1.0 - 1e-9; })) {
      return false;
    }
    draw_u_.clear();
    for (std::size_t i = 0; i < draw_p_.size(); ++i) {
      draw_u_.push_back(rng_.uniform());
    }
    return true;
  };
  bool drawn = ceiling_ && draw_up_front(phy::esnr_ceiling_db(
                               modulation, ceiling_(from)));
  if (drawn && every_draw_fails(draw_u_, draw_p_)) {
    ++rx_ruled_out_;
    return false;
  }

  csi = sampler_(from);
  const auto [lowest, highest] = std::minmax_element(
      csi.subcarrier_snr_db.begin(), csi.subcarrier_snr_db.end());
  const double ceiling = phy::esnr_ceiling_db(modulation, *highest);
  if (drawn) {
    // The measured ceiling is the tighter one, when finite.
    if (std::isfinite(ceiling)) {
      delivery_probabilities(ceiling, mcs, draw_bytes_, draw_p_);
    }
  } else {
    drawn = draw_up_front(ceiling);
  }
  draw_ok_.clear();
  if (drawn) {
    // ESNR >= the weakest subcarrier (its BER is the largest), or the 45 dB
    // clamp, or the -30 dB floor.
    const double floor_db =
        std::max(std::min(*lowest, 45.0), phy::kEsnrFloorDb) - 1e-3;
    delivery_probabilities(floor_db, mcs, draw_bytes_, draw_p_lo_);
    bool any = false;
    bool bounded = true;
    for (std::size_t i = 0; i < draw_u_.size() && bounded; ++i) {
      const bool ok = draw_u_[i] < draw_p_lo_[i] * (1.0 - 1e-9);
      bounded = ok || draw_u_[i] >= draw_p_[i] * (1.0 + 1e-9);
      draw_ok_.push_back(ok);
      any = any || ok;
    }
    if (bounded) {
      ++rx_bounded_;
      return any;
    }
    draw_ok_.clear();
  }

  delivery_probabilities(
      phy::effective_snr_db(csi.subcarrier_snr_db, modulation), mcs,
      draw_bytes_, draw_p_);
  bool any = false;
  for (std::size_t i = 0; i < draw_p_.size(); ++i) {
    const bool ok = drawn ? draw_u_[i] < draw_p_[i] : rng_.chance(draw_p_[i]);
    draw_ok_.push_back(ok);
    any = any || ok;
  }
  return any;
}

void WifiMac::handle_rx(const Frame& frame, const Medium::RxContext& ctx) {
  if (!sampler_) return;
  const bool addressed =
      frame.to == radio_ || (config_.accept_bssid && frame.to == kBssidWgtt) ||
      frame.to == kBroadcast;
  if (!addressed) {
    // Skip uninteresting overheard traffic before the channel sampling.
    if (!on_heard) return;
    if (interest_ && !interest_(frame.from)) return;
  }

  if (addressed && std::holds_alternative<BlockAckFrame>(frame.body)) {
    ++ba_heard_;
    if (ctx.collided) ++ba_collided_;
  }

  // A collided frame never reaches a decode draw, so nothing reads its CSI:
  // no channel sample and no on_heard call. The sampler is pure, so
  // skipping it draws no RNG and moves no event.
  if (ctx.collided) return;

  // The decode plan: the frame's MCS and the PSDU length of each draw.
  draw_bytes_.clear();
  phy::Mcs mcs = phy::Mcs::kMcs0;
  const auto* df = std::get_if<DataFrame>(&frame.body);
  if (df != nullptr) {
    // Per-MPDU decode draws from this receiver's own channel realization.
    mcs = df->mcs;
    for (const auto& m : df->mpdus) draw_bytes_.push_back(m.packet.air_bytes());
  } else if (std::holds_alternative<BlockAckFrame>(frame.body)) {
    // Block ACKs are sent at the 24 Mbit/s legacy control rate (16-QAM
    // 1/2): fast, but fragile near cell edges — which is why the paper
    // forwards overheard BAs between APs (§3.2.1).
    mcs = phy::Mcs::kMcs3;
    draw_bytes_.push_back(32);
  } else {
    // Beacons and management frames go at the 1 Mbit/s basic rate: slow
    // and very robust (decodable well past the data-usable range).
    draw_bytes_.push_back(
        std::holds_alternative<BeaconFrame>(frame.body) ? 300 : 96);
  }
  ++rx_decided_;
  channel::CsiMeasurement csi;
  if (!decide_decodes(frame.from, mcs, csi)) return;
  if (on_heard) on_heard(frame, true, csi);
  if (!addressed) return;

  if (df != nullptr) {
    decoded_seqs_.clear();
    for (std::size_t i = 0; i < df->mpdus.size(); ++i) {
      if (draw_ok_[i]) decoded_seqs_.push_back(df->mpdus[i].seq);
    }
    if (df->needs_block_ack) {
      const BaBitmap ba =
          BaBitmap::from_decoded(df->mpdus.front().seq, decoded_seqs_);
      Peer* p = peers_.contains(frame.from) ? &peer_of(frame.from) : nullptr;
      if (p != nullptr) ++p->stats.ba_sent;
      send_block_ack(frame.from, ba, frame.tx_uid);
    }

    // Deliver new MPDUs upward through the duplicate filter.
    for (const auto& m : df->mpdus) {
      if (std::find(decoded_seqs_.begin(), decoded_seqs_.end(), m.seq) ==
          decoded_seqs_.end()) {
        continue;
      }
      RxDupFilter& filter = config_.shared_rx_scoreboard
                                ? shared_filter_
                                : per_sender_filter_[frame.from];
      // Attribute rx stats to the logical peer: in thin-AP mode data from
      // any AP belongs to the single BSSID peer.
      const RadioId stats_peer =
          config_.shared_rx_scoreboard && peers_.contains(kBssidWgtt)
              ? kBssidWgtt
              : frame.from;
      Peer* p = peers_.contains(stats_peer) ? &peer_of(stats_peer) : nullptr;
      if (filter.accept(m.seq)) {
        if (p != nullptr) ++p->stats.rx_mpdus_decoded;
        if (on_deliver) on_deliver(frame.from, m.packet);
      } else if (p != nullptr) {
        ++p->stats.rx_mpdus_duplicate;
      }
    }
    return;
  }

  if (const auto* baf = std::get_if<BlockAckFrame>(&frame.body)) {
    BaBitmap ba;
    ba.start_seq = baf->start_seq;
    ba.bits = baf->bitmap;
    if (state_ == TxState::kAwaitingBa &&
        (baf->acked_tx_uid == outstanding_.tx_uid)) {
      process_ba(outstanding_.peer, ba, /*forwarded=*/false);
    } else {
      // Late or duplicate BA (e.g. a second AP acking the same uplink
      // aggregate): still merge any acks it carries. In thin-AP (BSSID)
      // mode every AP's BA refers to the single network peer.
      process_ba(tx_to_bssid_ ? kBssidWgtt : frame.from, ba, /*forwarded=*/true);
    }
    return;
  }

  if (const auto* mf = std::get_if<MgmtFrame>(&frame.body)) {
    if (on_mgmt) on_mgmt(frame.from, *mf);
  }
}

void WifiMac::enable_beacons(Time interval) {
  beacons_enabled_ = true;
  beacon_interval_ = interval;
  if (!beacon_timer_) {
    beacon_timer_ = std::make_unique<sim::Timer>(
        sched_,
        [this] {
          if (!beacons_enabled_) return;
          mgmt_queue_.push_back(MgmtItem{kBroadcast, BeaconFrame{}});
          kick();
          beacon_timer_->start(beacon_interval_);
        },
        sim::EventCategory::kMacTx);
  }
  beacon_timer_->start(beacon_interval_);
}

void WifiMac::disable_beacons() {
  beacons_enabled_ = false;
  if (beacon_timer_) beacon_timer_->cancel();
}

void WifiMac::send_mgmt(RadioId peer, MgmtFrame frame) {
  mgmt_queue_.push_back(MgmtItem{peer, frame});
  kick();
}

const WifiMac::PeerStats& WifiMac::stats(RadioId peer) const {
  static const PeerStats kEmpty{};
  const Peer* p = find_peer(peer);
  return p ? p->stats : kEmpty;
}

WifiMac::PeerStats WifiMac::total_stats() const {
  PeerStats total;
  for (const auto& [id, p] : peers_) {
    total.mpdus_enqueued += p.stats.mpdus_enqueued;
    total.enqueue_drops += p.stats.enqueue_drops;
    total.mpdus_delivered += p.stats.mpdus_delivered;
    total.mpdus_delivered_via_forwarded_ba +=
        p.stats.mpdus_delivered_via_forwarded_ba;
    total.mpdus_dropped_retry += p.stats.mpdus_dropped_retry;
    total.retransmissions += p.stats.retransmissions;
    total.ampdus_sent += p.stats.ampdus_sent;
    total.ba_timeouts += p.stats.ba_timeouts;
    total.bytes_delivered += p.stats.bytes_delivered;
    total.rx_mpdus_decoded += p.stats.rx_mpdus_decoded;
    total.rx_mpdus_duplicate += p.stats.rx_mpdus_duplicate;
    total.ba_sent += p.stats.ba_sent;
  }
  return total;
}

}  // namespace wgtt::mac
