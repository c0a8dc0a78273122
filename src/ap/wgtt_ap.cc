#include "ap/wgtt_ap.h"

#include <algorithm>

#include "mac/block_ack.h"
#include "phy/rate_control.h"

namespace wgtt::ap {

using net::BackhaulMessage;
using net::NodeId;

WgttAp::WgttAp(net::ApId id, sim::Scheduler& sched, mac::Medium& medium,
               net::Backhaul& backhaul, Rng rng, Config config,
               mac::Medium::PositionFn position)
    : id_(id),
      sched_(sched),
      backhaul_(backhaul),
      rng_(rng),
      config_([&] {
        Config c = config;
        c.mac.accept_bssid = true;  // thin-AP shared BSSID
        return c;
      }()),
      mac_(sched, medium, rng_.fork(), config_.mac) {
  mac_.attach(std::move(position));
  mac_.on_deliver = [this](mac::RadioId from, const net::Packet& pkt) {
    // Uplink data decoded by this AP: tunnel to the controller (§3.2.2).
    if (!client_of_radio(from)) return;
    ++stats_.uplink_forwarded;
    backhaul_.send(NodeId::ap(id_), controller_node_,
                   net::UplinkData{id_, pkt});
  };
  mac_.on_heard = [this](const mac::Frame& f, bool decoded,
                         const channel::CsiMeasurement& csi) {
    on_heard(f, decoded, csi);
  };
  mac_.on_mpdu_acked = [this](mac::RadioId peer, std::uint16_t, const net::Packet&) {
    const std::optional<net::ClientId> client = client_of_radio(peer);
    if (!client) return;
    ClientState* cs = client_state(*client);
    if (cs != nullptr) pump(*cs);
  };
  backhaul_.attach(NodeId::ap(id_), [this](NodeId from, BackhaulMessage msg) {
    handle_backhaul(from, std::move(msg));
  });
  pump_timer_ = std::make_unique<sim::Timer>(
      sched_,
      [this] {
        settle();
        pump_all();
        pump_timer_->start(config_.pump_period);
      },
      sim::EventCategory::kMacTx);
  pump_timer_->start(config_.pump_period);
}

WgttAp::~WgttAp() {
  if (payload_pool_ == nullptr) return;
  backhaul_.set_fanout_sink(id_, nullptr);
  // Pending copies die with the AP; their references go back to the pool.
  for (std::size_t i = inbox_head_; i < inbox_.size(); ++i) {
    payload_pool_->drop(inbox_[i].handle);
  }
}

void WgttAp::set_payload_pool(net::PacketPool* pool) {
  payload_pool_ = pool;
  backhaul_.set_fanout_sink(id_, pool != nullptr ? this : nullptr);
}

bool WgttAp::defer(const net::DeferredCopy& copy) {
  const ClientState* cs = client_state(copy.client);
  if (cs != nullptr && cs->serving) return false;
  if (inbox_head_ < inbox_.size() && copy < inbox_.back()) {
    inbox_sorted_ = false;
  }
  inbox_.push_back(copy);
  return true;
}

void WgttAp::settle() {
  if (inbox_head_ == inbox_.size()) return;
  if (!inbox_sorted_) {
    std::sort(inbox_.begin() + static_cast<std::ptrdiff_t>(inbox_head_),
              inbox_.end());
    inbox_sorted_ = true;
  }
  while (inbox_head_ < inbox_.size()) {
    const net::DeferredCopy copy = inbox_[inbox_head_];
    if (!sched_.passed(copy.arrival, copy.seq)) break;
    ++inbox_head_;
    take_copy(copy);
  }
  if (inbox_head_ == inbox_.size()) {
    inbox_.clear();
    inbox_head_ = 0;
  } else if (inbox_head_ >= 64 && 2 * inbox_head_ >= inbox_.size()) {
    inbox_.erase(inbox_.begin(),
                 inbox_.begin() + static_cast<std::ptrdiff_t>(inbox_head_));
    inbox_head_ = 0;
  }
}

void WgttAp::receive(const net::DeferredCopy& copy) {
  // What any backhaul message does first; then the copy itself.
  settle();
  take_copy(copy);
}

void WgttAp::take_copy(const net::DeferredCopy& copy) {
  if (!backhaul_.node_up(NodeId::ap(id_))) {
    backhaul_.drop_on_downed_link(copy.handle);
    return;
  }
  ClientState* cs = crashed_ ? nullptr : client_state(copy.client);
  if (cs == nullptr) {
    payload_pool_->drop(copy.handle);
    return;
  }
  store_downlink(*cs, copy.index, copy.handle);
}

void WgttAp::promote(net::ClientId client) {
  auto keep = inbox_.begin() + static_cast<std::ptrdiff_t>(inbox_head_);
  for (auto it = keep; it != inbox_.end(); ++it) {
    if (it->client != client) {
      *keep++ = *it;
      continue;
    }
    // The delivery event the backhaul would have scheduled.
    sched_.schedule_reserved(it->arrival, it->seq,
                             [this, copy = *it] { receive(copy); },
                             sim::EventCategory::kBackhaul);
  }
  inbox_.erase(keep, inbox_.end());
}

const std::array<WgttAp::CounterKey, 14> WgttAp::kCounterKeys = {{
    {"ap.downlink_received", &Stats::downlink_received},
    {"ap.cyclic_overwrites", &Stats::cyclic_overwrites},
    {"ap.stale_dropped", &Stats::stale_dropped},
    {"ap.pump_enqueued", &Stats::pump_enqueued},
    {"ap.stops_handled", &Stats::stops_handled},
    {"ap.starts_handled", &Stats::starts_handled},
    {"ap.stop_duplicates", &Stats::stop_duplicates},
    {"ap.start_duplicates", &Stats::start_duplicates},
    {"ap.stale_control_ignored", &Stats::stale_control_ignored},
    {"ap.ba_forwarded", &Stats::ba_forwarded},
    {"ap.ba_forward_received", &Stats::ba_forward_received},
    {"ap.ba_forward_duplicate", &Stats::ba_forward_duplicate},
    {"ap.csi_reports_sent", &Stats::csi_reports_sent},
    {"ap.uplink_forwarded", &Stats::uplink_forwarded},
}};

WgttAp::Instruments WgttAp::instruments(obs::MetricsRegistry& registry) {
  Instruments in;
  in.registry = &registry;
  for (const CounterKey& k : kCounterKeys) {
    in.counters.push_back(&registry.counter(k.name));
  }
  in.cyclic_occupancy =
      &registry.histogram("ap.cyclic_occupancy", 0.0, 2048.0, 128);
  in.stop_to_start = &registry.histogram("ap.stop_to_start_ms", 0.0, 40.0, 160);
  in.start_to_ack = &registry.histogram("ap.start_to_ack_ms", 0.0, 40.0, 160);
  return in;
}

void WgttAp::set_metrics(obs::MetricsRegistry* registry) {
  if (registry == nullptr) {
    settle();
    counters_.release();
    metrics_.reset();
    return;
  }
  set_metrics(instruments(*registry));
}

void WgttAp::set_metrics(const Instruments& instruments) {
  settle();
  counters_.release();
  metrics_.reset();
  for (std::size_t i = 0; i < kCounterKeys.size(); ++i) {
    counters_.bind(*instruments.registry, *instruments.counters[i],
                   stats_.*kCounterKeys[i].field);
  }
  Metrics m;
  m.cyclic_occupancy = instruments.cyclic_occupancy;
  m.stop_to_start.set_sink(instruments.stop_to_start);
  m.start_to_ack.set_sink(instruments.start_to_ack);
  metrics_ = std::move(m);
}

void WgttAp::set_ap_directory(
    std::function<std::optional<net::ApId>(mac::RadioId)> ap_of_radio) {
  ap_of_radio_ = std::move(ap_of_radio);
}

void WgttAp::register_client(net::ClientId client, mac::RadioId radio) {
  if (client_state(client) != nullptr) return;
  settle();
  auto cs = std::make_unique<ClientState>();
  cs->radio = radio;
  // Queues share the system-wide payload pool when one is wired (pooled
  // fan-out handles must land in the pool that owns them), the AP-wide
  // pool otherwise.
  cs->queue =
      CyclicQueue(payload_pool_ != nullptr ? payload_pool_ : &packet_pool_);
  const std::size_t i = net::index_of(client);
  if (i >= clients_.size()) clients_.resize(i + 1);
  clients_[i] = std::move(cs);
  const auto r = static_cast<std::size_t>(radio);
  if (r >= client_of_radio_.size()) client_of_radio_.resize(r + 1);
  client_of_radio_[r] = client;
  mac_.add_peer(radio);
  // WGTT APs have per-frame CSI; drive the rate from it (§4.2 keeps the
  // default controller, but the default Atheros controller converges to the
  // same choice — see bench_abl_selection_metric for the comparison).
  mac_.set_rate_controller(radio, std::make_unique<phy::EsnrRateSelector>());
}

bool WgttAp::serving(net::ClientId client) const {
  const ClientState* cs = client_state(client);
  return cs != nullptr && cs->serving;
}

std::size_t WgttAp::cyclic_backlog(net::ClientId client) const {
  const ClientState* cs = client_state(client);
  return cs == nullptr ? 0 : cs->queue.occupancy();
}

void WgttAp::queue_totals(std::size_t& cyclic_backlog_total,
                          std::size_t& hw_queue_total) const {
  for (const auto& cs : clients_) {
    if (cs == nullptr) continue;
    cyclic_backlog_total += cs->queue.occupancy();
    hw_queue_total += mac_.queue_depth(cs->radio);
  }
}

void WgttAp::set_serving(ClientState& cs, net::ClientId client, bool serving) {
  if (cs.serving == serving) return;
  settle();
  cs.serving = serving;
  if (serving) promote(client);
  const auto pos = std::lower_bound(
      serving_clients_.begin(), serving_clients_.end(), client,
      [](net::ClientId a, net::ClientId b) {
        return net::index_of(a) < net::index_of(b);
      });
  if (serving) {
    serving_clients_.insert(pos, client);
  } else if (pos != serving_clients_.end() && *pos == client) {
    serving_clients_.erase(pos);
  }
}

Time WgttAp::draw_delay(Time mean, Time std) {
  const double ns = rng_.normal(static_cast<double>(mean.count_ns()),
                                static_cast<double>(std.count_ns()));
  return Time::ns(std::max<std::int64_t>(static_cast<std::int64_t>(ns),
                                         Time::micros(100).count_ns()));
}

void WgttAp::handle_backhaul(NodeId /*from*/, BackhaulMessage msg) {
  settle();
  // Belt and braces: the scenario takes a crashed AP's backhaul link down,
  // so nothing should arrive here — but a dead process handles nothing.
  // A pooled payload reaching a corpse still owns a pool reference, which
  // must be dropped or the slot leaks for the rest of the run.
  if (crashed_) {
    if (const auto* d = std::get_if<net::DownlinkData>(&msg);
        d != nullptr && d->pooled() && payload_pool_ != nullptr) {
      payload_pool_->drop(d->handle);
    }
    return;
  }
  std::visit(
      [this](auto&& m) {
        using T = std::decay_t<decltype(m)>;
        if constexpr (std::is_same_v<T, net::DownlinkData>) {
          handle_downlink(std::move(m));
        } else if constexpr (std::is_same_v<T, net::StopMsg>) {
          handle_stop(m);
        } else if constexpr (std::is_same_v<T, net::StartMsg>) {
          handle_start(m);
        } else if constexpr (std::is_same_v<T, net::BlockAckForward>) {
          handle_ba_forward(m);
        } else if constexpr (std::is_same_v<T, net::Heartbeat>) {
          // Answered inline, no Click crossing: the liveness probe runs in
          // the kernel path and the RTT sample measures the backhaul alone.
          ++stats_.heartbeats_answered;
          backhaul_.send(NodeId::ap(id_), controller_node_,
                         net::HeartbeatAck{id_, m.seq});
        } else if constexpr (std::is_same_v<T, net::AdoptAp>) {
          // A (new) controller domain took ownership of this AP. Re-point
          // the report path; idempotent on duplicates.
          const NodeId node = NodeId::controller(m.new_domain);
          if (!(node == controller_node_)) {
            controller_node_ = node;
            ++stats_.adoptions;
          }
        }
        // AssocSync is handled by the scenario wiring (register_client);
        // UplinkData / CsiReport / SwitchAck never address an AP.
      },
      std::move(msg));
}

void WgttAp::crash() {
  if (crashed_) return;
  settle();
  crashed_ = true;
  ++stats_.crashes;
  delivered_at_crash_ = mac_.total_stats().mpdus_delivered;
  for (std::size_t i = 0; i < clients_.size(); ++i) {
    if (clients_[i] == nullptr) continue;
    ClientState& cs = *clients_[i];
    cs.queue.clear();
    set_serving(cs, net::ClientId{static_cast<std::uint32_t>(i)}, false);
    cs.next_index = 0;
    cs.ctl = ControlRecord{};
    cs.seen_ba_uids.clear();
    mac_.flush_peer(cs.radio);
  }
  pump_timer_->cancel();
}

void WgttAp::restart() {
  if (!crashed_) return;
  settle();
  crashed_ = false;
  ++stats_.restarts;
  pump_timer_->start(config_.pump_period);
}

void WgttAp::handle_downlink(net::DownlinkData&& msg) {
  const bool pooled = msg.pooled() && payload_pool_ != nullptr;
  // A pooled message carries no Packet body; the client is read through
  // the shared pool (one indexed load, the handle stays shared).
  const net::ClientId client =
      pooled ? payload_pool_->get(msg.handle)->client : msg.packet.client;
  ClientState* cs = client_state(client);
  if (cs == nullptr) {  // not yet associated here
    if (pooled) payload_pool_->drop(msg.handle);
    return;
  }
  store_downlink(*cs, msg.index,
                 pooled ? msg.handle
                        : cs->queue.pool().acquire(std::move(msg.packet)));
}

void WgttAp::store_downlink(ClientState& cs, std::uint16_t index,
                            net::PacketPool::Handle handle) {
  ++stats_.downlink_received;
  const std::uint64_t overwrites_before = cs.queue.overwrites();
  cs.queue.put_handle(index, handle);  // adopts the reference
  stats_.cyclic_overwrites += cs.queue.overwrites() - overwrites_before;
  if (metrics_) {
    metrics_->cyclic_occupancy->observe(
        static_cast<double>(cs.queue.occupancy()));
  }
  if (cs.serving) pump(cs);
}

void WgttAp::handle_stop(const net::StopMsg& msg) {
  ClientState* cs = client_state(msg.client);
  if (cs == nullptr) return;
  ControlRecord& ctl = cs->ctl;
  if (ctl.have_epoch && msg.epoch < ctl.epoch) {
    // A leftover of an already-superseded switch; acting on it would stop
    // a drain the controller believes is live.
    ++stats_.stale_control_ignored;
    return;
  }
  if (ctl.have_epoch && msg.epoch == ctl.epoch && ctl.op == CtlOp::kStop) {
    // Retransmit of a stop already seen (the start or the ack got lost
    // downstream). Replay the RECORDED first-unsent index rather than
    // re-querying: the live next_index belongs to whichever AP is draining
    // now, and a fresh query would hand the new AP a rewound (or advanced)
    // pointer. No span re-begin either — the switch started once.
    // An equal-epoch stop over a START record falls through instead: a
    // single controller never stops its serving AP within the same epoch,
    // but an inter-domain quench (the source stopping its drain under the
    // target's minted epoch, or an ownership yield) legitimately does.
    ++stats_.stop_duplicates;
    if (ctl.op == CtlOp::kStop && ctl.stop_first_unsent) {
      const Time proc = draw_delay(config_.control_processing_mean,
                                   config_.control_processing_std);
      sched_.schedule_in(proc, [this, client = msg.client, epoch = msg.epoch] {
        ClientState* s = client_state(client);
        if (s == nullptr) return;
        const ControlRecord& c = s->ctl;
        if (!c.have_epoch || c.epoch != epoch || c.op != CtlOp::kStop ||
            !c.stop_first_unsent) {
          return;  // superseded while the replay was in flight
        }
        backhaul_.send(net::NodeId::ap(id_), net::NodeId::ap(c.stop_new_ap),
                       net::StartMsg{client, id_, *c.stop_first_unsent, epoch});
      }, sim::EventCategory::kControl);
    }
    // else: the kernel query is still in flight; its answer covers this
    // duplicate too.
    return;
  }
  ctl.have_epoch = true;
  ctl.epoch = msg.epoch;
  ctl.op = CtlOp::kStop;
  ctl.stop_new_ap = msg.new_ap;
  ctl.stop_first_unsent.reset();
  ctl.start_acked = false;
  ++stats_.stops_handled;
  if (metrics_) {
    metrics_->stop_to_start.begin(net::index_of(msg.client), sched_.now());
  }
  // Control packets are prioritized but still cross the Click userspace.
  const Time proc = draw_delay(config_.control_processing_mean,
                               config_.control_processing_std);
  sched_.schedule_in(proc, [this, client = msg.client, new_ap = msg.new_ap,
                            epoch = msg.epoch] {
    ClientState* s = client_state(client);
    if (s == nullptr) return;
    if (!s->ctl.have_epoch || s->ctl.epoch != epoch ||
        s->ctl.op != CtlOp::kStop) {
      return;  // a newer epoch took over while we crossed userspace
    }
    // Cease sending: stop pumping. MPDUs already in the NIC hardware queue
    // keep draining over the (deteriorating) old link — the paper measures
    // ~6 ms of residual transmissions and accepts them.
    set_serving(*s, client, false);
    // Query the kernel for the first unsent index (ioctl round trip), then
    // hand off to the new AP.
    const Time q = draw_delay(config_.ioctl_query_mean, config_.ioctl_query_std);
    sched_.schedule_in(q, [this, client, new_ap, epoch] {
      ClientState* s2 = client_state(client);
      if (s2 == nullptr) return;
      if (!s2->ctl.have_epoch || s2->ctl.epoch != epoch ||
          s2->ctl.op != CtlOp::kStop) {
        return;
      }
      s2->ctl.stop_first_unsent = s2->next_index;
      if (metrics_) {
        metrics_->stop_to_start.end(net::index_of(client), sched_.now());
      }
      backhaul_.send(net::NodeId::ap(id_), net::NodeId::ap(new_ap),
                     net::StartMsg{client, id_, s2->next_index, epoch});
    }, sim::EventCategory::kControl);
  }, sim::EventCategory::kControl);
}

void WgttAp::handle_start(const net::StartMsg& msg) {
  ClientState* cs = client_state(msg.client);
  if (cs == nullptr) return;
  ControlRecord& ctl = cs->ctl;
  if (ctl.have_epoch && msg.epoch < ctl.epoch) {
    // e.g. a delayed duplicate arriving after this AP was already stopped
    // for a later switch: becoming "serving" again would duplicate the
    // client's serving AP.
    ++stats_.stale_control_ignored;
    return;
  }
  if (ctl.have_epoch && msg.epoch == ctl.epoch) {
    // Retransmit chain reached us again (our ack was lost). Replay the ack
    // only: re-applying the stale k would rewind next_index and
    // re-transmit everything already delivered since.
    ++stats_.start_duplicates;
    if (ctl.op == CtlOp::kStart && ctl.start_acked) {
      const Time proc = draw_delay(config_.control_processing_mean,
                                   config_.control_processing_std);
      sched_.schedule_in(proc, [this, client = msg.client, epoch = msg.epoch] {
        if (client_state(client) == nullptr) return;
        backhaul_.send(net::NodeId::ap(id_), controller_node_,
                       net::SwitchAck{client, id_, epoch});
      }, sim::EventCategory::kControl);
    }
    // else: the original start is still being processed; it will ack.
    return;
  }
  ctl.have_epoch = true;
  ctl.epoch = msg.epoch;
  ctl.op = CtlOp::kStart;
  ctl.start_acked = false;
  ctl.stop_first_unsent.reset();
  ++stats_.starts_handled;
  if (metrics_) {
    metrics_->start_to_ack.begin(net::index_of(msg.client), sched_.now());
  }
  const Time proc = draw_delay(config_.start_processing_mean,
                               config_.start_processing_std);
  sched_.schedule_in(proc, [this, client = msg.client,
                            k = msg.first_unsent_index, epoch = msg.epoch] {
    ClientState* s = client_state(client);
    if (s == nullptr) return;
    if (!s->ctl.have_epoch || s->ctl.epoch != epoch ||
        s->ctl.op != CtlOp::kStart) {
      return;  // superseded while we crossed userspace
    }
    settle();  // the queue's newest index includes every copy arrived so far
    std::uint16_t applied;
    if (config_.start_from_newest && s->queue.newest()) {
      // Queue-management ablation: drop the handed-off backlog on the floor
      // and continue from whatever arrives next.
      applied = (*s->queue.newest() + 1) & (CyclicQueue::kIndexSpace - 1);
    } else {
      applied = k & (CyclicQueue::kIndexSpace - 1);
    }
    if (s->serving &&
        mac::seq_sub(applied, s->next_index) > CyclicQueue::kIndexSpace / 2) {
      // A NEW-epoch start pointing behind an already-serving drain pointer.
      // Reachable on forced failover: the controller bootstraps us from its
      // rewound watermark while the stop meant for us died with the old
      // epoch's backhaul fault, so we never stopped. Everything before our
      // own pointer is already delivered — resume from it, never rewind.
      // (A DUPLICATE start rewinding the pointer remains the bug the epoch
      // guard above makes unreachable — it never gets here. With the clamp,
      // index_regressions counts rewinds actually applied, i.e. stays zero,
      // which the invariant checker asserts.)
      ++stats_.starts_clamped_forward;
      applied = s->next_index;
    }
    if (s->serving &&
        mac::seq_sub(applied, s->next_index) > CyclicQueue::kIndexSpace / 2) {
      ++stats_.index_regressions;
    }
    set_serving(*s, client, true);
    s->next_index = applied;
    s->ctl.start_acked = true;
    if (metrics_) {
      metrics_->start_to_ack.end(net::index_of(client), sched_.now());
    }
    backhaul_.send(net::NodeId::ap(id_), controller_node_,
                   net::SwitchAck{client, id_, epoch});
    pump(*s);
  }, sim::EventCategory::kControl);
}

bool WgttAp::ba_seen(ClientState& cs, std::uint64_t uid) {
  for (std::size_t i = 0; i < cs.seen_ba_uids.size(); ++i) {
    if (cs.seen_ba_uids.at(i) == uid) return true;
  }
  if (cs.seen_ba_uids.full()) cs.seen_ba_uids.pop_front();
  cs.seen_ba_uids.push_back(uid);
  return false;
}

void WgttAp::handle_ba_forward(const net::BlockAckForward& msg) {
  ClientState* cs = client_state(msg.client);
  if (cs == nullptr) return;
  ++stats_.ba_forward_received;
  if (ba_seen(*cs, msg.ba_uid)) {
    // Already merged (own NIC or another AP's forward): drop (§3.2.1).
    ++stats_.ba_forward_duplicate;
    return;
  }
  mac::BaBitmap ba;
  ba.start_seq = msg.start_seq;
  ba.bits = msg.bitmap;
  mac_.inject_block_ack(cs->radio, ba);
}

void WgttAp::on_heard(const mac::Frame& frame, bool decoded,
                      const channel::CsiMeasurement& csi) {
  if (!decoded) return;
  const std::optional<net::ClientId> heard = client_of_radio(frame.from);
  if (!heard) return;
  const net::ClientId client = *heard;

  // CSI extraction on every decoded client frame (§3.1.1).
  if (csi_reporting_) {
    ++stats_.csi_reports_sent;
    backhaul_.send(net::NodeId::ap(id_), controller_node_,
                   net::CsiReport{id_, client, csi});
  }

  // Monitor-mode BA forwarding (§3.2.1): a client BA addressed to another
  // AP is forwarded there; the serving AP has no monitor interface for its
  // own client (it decodes its BAs directly).
  if (const auto* ba = std::get_if<mac::BlockAckFrame>(&frame.body)) {
    ClientState* cs = client_state(client);
    if (cs == nullptr) return;
    if (frame.to == mac_.radio()) {
      // Our own BA: remember its identity so a forwarded copy is dropped.
      (void)ba_seen(*cs, frame.tx_uid);
      return;
    }
    if (!ba_forwarding_ || cs->serving || ap_of_radio_ == nullptr) return;
    const std::optional<net::ApId> dest = ap_of_radio_(frame.to);
    if (!dest || *dest == id_) return;
    ++stats_.ba_forwarded;
    backhaul_.send(
        net::NodeId::ap(id_), net::NodeId::ap(*dest),
        net::BlockAckForward{client, id_, ba->start_seq, ba->bitmap, frame.tx_uid});
  }
}

void WgttAp::pump(ClientState& cs) {
  if (crashed_ || !cs.serving) return;
  while (mac_.queue_depth(cs.radio) < config_.mac.hw_queue_capacity) {
    if (const net::Packet* head = cs.queue.peek(cs.next_index)) {
      if (sched_.now() - head->created > config_.cyclic_staleness) {
        // A slot written a lap (or a long lull) ago: useless and, worse,
        // possibly already delivered by another AP. Discard — drop() just
        // decrements the pool reference, no Packet is materialized.
        cs.queue.drop(cs.next_index);
        ++stats_.stale_dropped;
      } else {
        mac_.enqueue(cs.radio, *cs.queue.take(cs.next_index), cs.next_index);
        ++stats_.pump_enqueued;
      }
      cs.next_index = (cs.next_index + 1) & (CyclicQueue::kIndexSpace - 1);
      continue;
    }
    // Gap handling: if newer packets exist (this AP joined the fan-out set
    // after index k was assigned), skip forward to the next occupied slot.
    const auto newest = cs.queue.newest();
    if (!newest || cs.queue.occupancy() == 0) break;
    const std::uint16_t end = (*newest + 1) & (CyclicQueue::kIndexSpace - 1);
    std::uint16_t probe = cs.next_index;
    bool found = false;
    while (probe != end) {
      if (cs.queue.has(probe)) {
        found = true;
        break;
      }
      probe = (probe + 1) & (CyclicQueue::kIndexSpace - 1);
    }
    if (!found) break;
    cs.next_index = probe;
  }
}

void WgttAp::pump_all() {
  // Only serving queues ever drain; iterating the incrementally-maintained
  // list keeps the 1 ms tick O(served clients), not O(registered clients).
  for (const net::ClientId client : serving_clients_) {
    ClientState* cs = client_state(client);
    if (cs != nullptr) pump(*cs);
  }
}

}  // namespace wgtt::ap
