#include "net/backhaul.h"

#include <algorithm>
#include <limits>
#include <stdexcept>
#include <utility>

namespace wgtt::net {
namespace {
/// A flow's watermark before its first message: below every arrival.
constexpr Time kNoArrival = Time::ns(std::numeric_limits<std::int64_t>::min());

DownlinkData message_of(const FanoutCopy& copy) {
  DownlinkData msg;
  msg.index = copy.index;
  msg.handle = copy.handle;
  msg.tunnel_bytes = copy.tunnel_bytes;
  return msg;
}
}  // namespace

std::size_t wire_bytes(const BackhaulMessage& msg) {
  return std::visit(
      [](const auto& m) -> std::size_t {
        using T = std::decay_t<decltype(m)>;
        if constexpr (std::is_same_v<T, DownlinkData>) {
          // A pooled message cached its wire size at fan-out so latency
          // accounting never dereferences the pool.
          return m.pooled() ? m.tunnel_bytes : m.packet.tunnel_bytes();
        } else if constexpr (std::is_same_v<T, UplinkData>) {
          return m.packet.tunnel_bytes();
        } else if constexpr (std::is_same_v<T, CsiReport>) {
          // 56 subcarriers x 2 bytes + UDP/IP + metadata (paper §3.1.1).
          return 56 * 2 + 28 + 16;
        } else if constexpr (std::is_same_v<T, StopMsg>) {
          return 64;  // two L2 addresses + framing
        } else if constexpr (std::is_same_v<T, StartMsg>) {
          return 64;
        } else if constexpr (std::is_same_v<T, SwitchAck>) {
          return 64;
        } else if constexpr (std::is_same_v<T, BlockAckForward>) {
          return 28 + 2 + 8 + 14;  // UDP/IP + start seq + bitmap + addresses
        } else if constexpr (std::is_same_v<T, AssocSync>) {
          return 256;  // sta_info struct transfer
        } else if constexpr (std::is_same_v<T, Heartbeat>) {
          return 64;  // UDP/IP + seq + framing
        } else if constexpr (std::is_same_v<T, HeartbeatAck>) {
          return 64;
        } else if constexpr (std::is_same_v<T, CsiForward>) {
          // The inner report plus the forwarding header.
          return 56 * 2 + 28 + 16 + 8;
        } else if constexpr (std::is_same_v<T, UplinkForward>) {
          return m.data.packet.tunnel_bytes() + 8;
        } else if constexpr (std::is_same_v<T, DownlinkForward>) {
          return m.packet.tunnel_bytes() + 8;
        } else if constexpr (std::is_same_v<T, HandoverRequest>) {
          // Fixed state-transfer header plus the dedup-ring seed.
          return 96 + m.dedup_seed.size() * 4;
        } else if constexpr (std::is_same_v<T, HandoverAck>) {
          return 64;
        } else if constexpr (std::is_same_v<T, DomainHeartbeat>) {
          return 64;
        } else if constexpr (std::is_same_v<T, DomainHeartbeatAck>) {
          return 64;
        } else if constexpr (std::is_same_v<T, DomainSync>) {
          return 64 + m.entries.size() * 24;
        } else {
          static_assert(std::is_same_v<T, AdoptAp>);
          return 64;
        }
      },
      msg);
}

bool is_control(const BackhaulMessage& msg) {
  return std::holds_alternative<StopMsg>(msg) ||
         std::holds_alternative<StartMsg>(msg) ||
         std::holds_alternative<SwitchAck>(msg) ||
         std::holds_alternative<Heartbeat>(msg) ||
         std::holds_alternative<HeartbeatAck>(msg) ||
         std::holds_alternative<HandoverRequest>(msg) ||
         std::holds_alternative<HandoverAck>(msg) ||
         std::holds_alternative<DomainHeartbeat>(msg) ||
         std::holds_alternative<DomainHeartbeatAck>(msg) ||
         std::holds_alternative<DomainSync>(msg) ||
         std::holds_alternative<AdoptAp>(msg);
}

MsgKind kind_of(const BackhaulMessage& msg) {
  // The variant index IS the kind; a static_assert pins the correspondence.
  static_assert(std::variant_size_v<BackhaulMessage> == kNumMsgKinds);
  static_assert(std::is_same_v<std::variant_alternative_t<
                    static_cast<std::size_t>(MsgKind::kStop), BackhaulMessage>,
                StopMsg>);
  static_assert(std::is_same_v<std::variant_alternative_t<
                    static_cast<std::size_t>(MsgKind::kAssocSync),
                    BackhaulMessage>,
                AssocSync>);
  static_assert(std::is_same_v<std::variant_alternative_t<
                    static_cast<std::size_t>(MsgKind::kHeartbeatAck),
                    BackhaulMessage>,
                HeartbeatAck>);
  static_assert(std::is_same_v<std::variant_alternative_t<
                    static_cast<std::size_t>(MsgKind::kHandoverRequest),
                    BackhaulMessage>,
                HandoverRequest>);
  static_assert(std::is_same_v<std::variant_alternative_t<
                    static_cast<std::size_t>(MsgKind::kAdoptAp),
                    BackhaulMessage>,
                AdoptAp>);
  return static_cast<MsgKind>(msg.index());
}

Backhaul::Backhaul(sim::Scheduler& sched, const Config& config, Rng rng)
    : sched_(sched), config_(config), rng_(rng) {
  for (std::size_t k = 0; k < kNumMsgKinds; ++k) {
    drop_first_remaining_[k] = config_.faults[k].drop_first;
  }
}

Backhaul::Node& Backhaul::node(NodeId id) {
  auto& nodes = nodes_[static_cast<std::size_t>(id.kind)];
  if (id.index >= nodes.size()) nodes.resize(id.index + 1);
  return nodes[id.index];
}

void Backhaul::attach(NodeId node_id, Handler handler) {
  Node& n = node(node_id);
  n.handler = std::move(handler);
  n.attached = true;
}

void Backhaul::set_fanout_sink(ApId ap, FanoutSink* sink) {
  node(NodeId::ap(ap)).sink = sink;
}

void Backhaul::set_node_up(NodeId node_id, bool up) {
  Node& n = node(node_id);
  // Deferred copies that arrived while the link had its old state are
  // applied under that state before it changes.
  if (n.sink != nullptr) n.sink->settle();
  if (n.down == !up) return;
  n.down = !up;
  if (up) {
    --num_down_;
  } else {
    ++num_down_;
  }
}

void Backhaul::drop_on_downed_link(PacketPool::Handle handle) {
  ++dropped_;
  ++link_dropped_;
  payload_pool_->drop(handle);
}

Time& Backhaul::watermark(NodeId from, NodeId to) {
  // flow_key() folds the source's kind away, so distinct flows can share a
  // key (and with it a watermark); storage keyed by flow_key() keeps that
  // sharing exactly.
  const std::uint64_t key = flow_key(from, to);
  const std::uint64_t row = key >> 32;
  if (row < kDenseFlowRows) {
    std::vector<Time>& r = dense_watermarks_[row];
    const auto col = static_cast<std::size_t>(key & 0xffffffffu);
    if (col >= r.size()) r.resize(col + 1, kNoArrival);
    return r[col];
  }
  return last_delivery_.try_emplace(key, kNoArrival).first->second;
}

Time Backhaul::clamp_to_flow(NodeId from, NodeId to, Time arrival,
                             bool bypass_fifo) {
  // Enforce per-(src,dst) FIFO: neither jitter nor injected delay may
  // reorder a flow (a delayed message stalls everything behind it). A
  // reorder-faulted message skips both the clamp and the watermark update,
  // so messages sent after it can overtake it.
  if (bypass_fifo) return arrival;
  Time& last = watermark(from, to);
  if (arrival <= last) arrival = last + Time::ns(1);
  last = arrival;
  return arrival;
}

void Backhaul::drop_payload(const BackhaulMessage& msg) {
  if (payload_pool_ == nullptr) return;
  if (const auto* d = std::get_if<DownlinkData>(&msg);
      d != nullptr && d->pooled()) {
    payload_pool_->drop(d->handle);
  }
}

void Backhaul::ref_payload(const BackhaulMessage& msg) {
  if (payload_pool_ == nullptr) return;
  if (const auto* d = std::get_if<DownlinkData>(&msg);
      d != nullptr && d->pooled()) {
    payload_pool_->add_ref(d->handle);
  }
}

double Backhaul::max_link_utilization(Time now) const {
  if (now <= Time::zero()) return 0.0;
  double best = 0.0;
  for (const auto& [key, link] : links_) {
    best = std::max(best, static_cast<double>(link.busy_ns) /
                              static_cast<double>(now.count_ns()));
  }
  return best;
}

bool Backhaul::admit(NodeId from, NodeId to, MsgKind kind, double bytes,
                     Time& queue_wait, double& ser_us) {
  ++sent_;
  // Link-down drops happen before any RNG draw so that a run where no node
  // ever goes down consumes the identical draw sequence.
  if (num_down_ > 0 && (down(from) || down(to))) {
    ++dropped_;
    ++link_dropped_;
    return false;
  }
  if (rng_.chance(config_.loss_rate)) {
    ++dropped_;
    return false;
  }
  const auto k = static_cast<std::size_t>(kind);
  const FaultPlan& plan = config_.faults[k];
  if (drop_first_remaining_[k] > 0) {
    --drop_first_remaining_[k];
    ++dropped_;
    ++fault_dropped_;
    return false;
  }
  // RNG draws are gated on nonzero knobs so an all-zero plan keeps seeded
  // runs bit-identical to a Backhaul built before fault injection existed.
  if (plan.loss_rate > 0.0 && rng_.chance(plan.loss_rate)) {
    ++dropped_;
    ++fault_dropped_;
    return false;
  }

  // --- link admission (DESIGN.md §10; consumes no RNG draws) -----------
  // With link_rate_mbps == 0 this reduces exactly to the legacy formula:
  // serialization at line rate, no queueing, no drops.
  queue_wait = Time::zero();
  if (config_.link_rate_mbps > 0.0) {
    LinkState& link = links_[flow_key(from, to)];
    const Time now = sched_.now();
    const Time backlog =
        link.busy_until > now ? link.busy_until - now : Time::zero();
    // The queue bound is enforced analytically: pending bytes are the
    // backlog interval times the drain rate, so no per-byte bookkeeping
    // (and no extra events) is needed.
    const double backlog_bytes = static_cast<double>(backlog.count_ns()) *
                                 config_.link_rate_mbps / 8000.0;
    if (backlog_bytes + bytes > static_cast<double>(config_.link_queue_bytes)) {
      ++dropped_;
      ++queue_drops_;
      return false;
    }
    ser_us = bytes * 8.0 / config_.link_rate_mbps;
    const Time ser = Time::micros(ser_us);
    queue_wait = backlog;
    link.busy_until = now + backlog + ser;
    link.busy_ns += static_cast<std::uint64_t>(ser.count_ns());
  } else {
    ser_us = bytes * 8.0 / config_.line_rate_mbps;
  }
  return true;
}

Backhaul::Route Backhaul::draw_route(const FaultPlan& plan, Time queue_wait,
                                     double ser_us) {
  Time latency = config_.switch_overhead + Time::micros(ser_us) + queue_wait;
  if (config_.jitter_max > Time::zero()) {
    latency += Time::ns(static_cast<std::int64_t>(
        rng_.uniform() * static_cast<double>(config_.jitter_max.count_ns())));
  }
  if (plan.delay_rate > 0.0 && plan.delay_max > Time::zero() &&
      rng_.chance(plan.delay_rate)) {
    ++delayed_;
    latency += Time::ns(static_cast<std::int64_t>(
        rng_.uniform() * static_cast<double>(plan.delay_max.count_ns())));
  }
  // A reordered message takes an extra delay and skips the FIFO clamp in
  // deliver(): it neither waits for earlier messages nor holds back later
  // ones, so the flow genuinely reorders around it.
  Route route;
  if (plan.reorder_rate > 0.0 && plan.reorder_max > Time::zero() &&
      rng_.chance(plan.reorder_rate)) {
    route.reorder = true;
    ++reordered_;
    latency += Time::ns(static_cast<std::int64_t>(
        rng_.uniform() * static_cast<double>(plan.reorder_max.count_ns())));
  }
  route.duplicate = plan.dup_rate > 0.0 && rng_.chance(plan.dup_rate);
  route.arrival = sched_.now() + latency;
  return route;
}

void Backhaul::send(NodeId from, NodeId to, BackhaulMessage msg) {
  if (!attached(to)) {
    drop_payload(msg);
    throw std::logic_error("Backhaul::send to unattached node");
  }
  const MsgKind kind = kind_of(msg);
  Time queue_wait;
  double ser_us = 0.0;
  if (!admit(from, to, kind, static_cast<double>(wire_bytes(msg)), queue_wait,
             ser_us)) {
    drop_payload(msg);
    return;
  }
  const FaultPlan& plan = config_.fault(kind);

  if (config_.batching) {
    const std::uint64_t key = flow_key(from, to);
    if (std::holds_alternative<DownlinkData>(msg)) {
      // Fault draws still happen per message at send time, so batching
      // changes scheduling only, never which messages fault. A faulted
      // message cannot ride a batch (its latency differs from its
      // batchmates'), so it flushes the open batch — earlier sends deliver
      // first — and takes the per-message path below.
      Time extra = Time::zero();
      bool faulted = false;
      bool reorder = false;
      if (plan.delay_rate > 0.0 && plan.delay_max > Time::zero() &&
          rng_.chance(plan.delay_rate)) {
        faulted = true;
        ++delayed_;
        extra += Time::ns(static_cast<std::int64_t>(
            rng_.uniform() * static_cast<double>(plan.delay_max.count_ns())));
      }
      if (plan.reorder_rate > 0.0 && plan.reorder_max > Time::zero() &&
          rng_.chance(plan.reorder_rate)) {
        faulted = true;
        reorder = true;
        ++reordered_;
        extra += Time::ns(static_cast<std::int64_t>(
            rng_.uniform() * static_cast<double>(plan.reorder_max.count_ns())));
      }
      const bool duplicate = plan.dup_rate > 0.0 && rng_.chance(plan.dup_rate);
      if (!faulted && !duplicate) {
        const Time ser_done = sched_.now() + queue_wait + Time::micros(ser_us);
        Batch& b = batches_[key];
        if (!b.open) {
          b.open = true;
          b.from = from;
          b.to = to;
          b.msgs.clear();
          b.ready = ser_done;
          const std::uint64_t gen = ++b.gen;
          sched_.schedule_at(
              sched_.now() + config_.batch_window,
              [this, key, gen] { flush_batch_if(key, gen); },
              sim::EventCategory::kBackhaul);
        }
        b.msgs.push_back(std::move(msg));
        if (ser_done > b.ready) b.ready = ser_done;
        ++batched_msgs_;
        if (b.msgs.size() >= config_.batch_max_msgs) flush_batch(key);
        return;
      }
      flush_batch(key);
      Time latency =
          queue_wait + config_.switch_overhead + Time::micros(ser_us) + extra;
      if (config_.jitter_max > Time::zero()) {
        latency += Time::ns(static_cast<std::int64_t>(
            rng_.uniform() *
            static_cast<double>(config_.jitter_max.count_ns())));
      }
      const Time arrival = sched_.now() + latency;
      if (duplicate) {
        ++duplicated_;
        BackhaulMessage copy = msg;
        ref_payload(copy);
        deliver(from, to, std::move(msg), arrival, reorder);
        deliver(from, to, std::move(copy), arrival + config_.switch_overhead,
                reorder);
      } else {
        deliver(from, to, std::move(msg), arrival, reorder);
      }
      return;
    }
    // Non-batchable traffic (control, uplink) on this link empties the open
    // batch first: a stop/start must never overtake data queued before it.
    flush_batch(key);
  }

  const Route route = draw_route(plan, queue_wait, ser_us);
  if (route.duplicate) {
    ++duplicated_;
    BackhaulMessage copy = msg;
    ref_payload(copy);
    deliver(from, to, std::move(msg), route.arrival, route.reorder);
    // The copy trails the original; the FIFO clamp in deliver() keeps it
    // behind both the original and anything sent meanwhile.
    deliver(from, to, std::move(copy), route.arrival + config_.switch_overhead,
            route.reorder);
  } else {
    deliver(from, to, std::move(msg), route.arrival, route.reorder);
  }
}

void Backhaul::fan_out(NodeId from, std::span<const ApId> targets,
                       const FanoutCopy& copy) {
  if (config_.batching) {
    // Batches coalesce whole messages per link: every copy rides send().
    for (const ApId ap : targets) {
      payload_pool_->add_ref(copy.handle);
      send(from, NodeId::ap(ap), message_of(copy));
    }
    return;
  }
  const FaultPlan& plan = config_.fault(MsgKind::kDownlinkData);
  for (const ApId ap : targets) {
    const NodeId to = NodeId::ap(ap);
    payload_pool_->add_ref(copy.handle);
    if (!attached(to)) {
      payload_pool_->drop(copy.handle);
      throw std::logic_error("Backhaul::fan_out to unattached node");
    }
    Time queue_wait;
    double ser_us = 0.0;
    if (!admit(from, to, MsgKind::kDownlinkData,
               static_cast<double>(copy.tunnel_bytes), queue_wait, ser_us)) {
      payload_pool_->drop(copy.handle);
      continue;
    }
    const Route route = draw_route(plan, queue_wait, ser_us);
    if (route.duplicate) {
      ++duplicated_;
      payload_pool_->add_ref(copy.handle);
      deliver_copy(from, to, copy, route.arrival, route.reorder);
      deliver_copy(from, to, copy, route.arrival + config_.switch_overhead,
                   route.reorder);
    } else {
      deliver_copy(from, to, copy, route.arrival, route.reorder);
    }
  }
}

void Backhaul::deliver(NodeId from, NodeId to, BackhaulMessage msg,
                       Time arrival, bool bypass_fifo) {
  arrival = clamp_to_flow(from, to, arrival, bypass_fifo);
  // Park the message in the slab and schedule a 16-byte (this, slot)
  // trampoline: the message body never rides inside the callback, so the
  // event stays in InlineCallback's inline buffer.
  const std::uint32_t slot = park(from, to, std::move(msg));
  sched_.schedule_at(arrival, [this, slot] { deliver_parked(slot); },
                     sim::EventCategory::kBackhaul);
}

void Backhaul::deliver_copy(NodeId from, NodeId to, const FanoutCopy& copy,
                            Time arrival, bool bypass_fifo) {
  arrival = clamp_to_flow(from, to, arrival, bypass_fifo);
  // The copy holds the scheduler position its delivery event takes, event
  // or not, so every other event keeps its sequence number.
  const std::uint64_t seq = sched_.reserve_seq();
  if (FanoutSink* sink = find_node(to)->sink) {
    const DeferredCopy deferred{arrival, seq, copy.client, copy.index,
                                copy.handle};
    if (!sink->defer(deferred)) {
      sched_.schedule_reserved(
          arrival, seq, [sink, deferred] { sink->receive(deferred); },
          sim::EventCategory::kBackhaul);
    }
    return;
  }
  const std::uint32_t slot = park(from, to, message_of(copy));
  sched_.schedule_reserved(arrival, seq, [this, slot] { deliver_parked(slot); },
                           sim::EventCategory::kBackhaul);
}

void Backhaul::flush_batch(std::uint64_t key) {
  const auto it = batches_.find(key);
  if (it == batches_.end() || !it->second.open) return;
  Batch& b = it->second;
  b.open = false;
  ++b.gen;  // stales the pending window-flush event
  ++batches_flushed_;
  // One serialization tail + one switch crossing + one jitter draw for the
  // whole batch: the coalesced deliveries share a wire departure.
  Time arrival = std::max(sched_.now(), b.ready) + config_.switch_overhead;
  if (config_.jitter_max > Time::zero()) {
    arrival += Time::ns(static_cast<std::int64_t>(
        rng_.uniform() * static_cast<double>(config_.jitter_max.count_ns())));
  }
  // The batch clamps against the same per-flow watermark single deliveries
  // use, so batched and unbatched traffic of one flow share one FIFO.
  arrival = clamp_to_flow(b.from, b.to, arrival, false);
  std::uint32_t slot;
  if (free_batch_in_flight_.empty()) {
    batch_in_flight_.push_back(PendingBatch{b.from, b.to, std::move(b.msgs)});
    slot = static_cast<std::uint32_t>(batch_in_flight_.size() - 1);
  } else {
    slot = free_batch_in_flight_.back();
    free_batch_in_flight_.pop_back();
    batch_in_flight_[slot] = PendingBatch{b.from, b.to, std::move(b.msgs)};
  }
  b.msgs = {};
  sched_.schedule_at(arrival, [this, slot] { deliver_batch_parked(slot); },
                     sim::EventCategory::kBackhaul);
}

void Backhaul::flush_batch_if(std::uint64_t key, std::uint64_t gen) {
  const auto it = batches_.find(key);
  if (it != batches_.end() && it->second.open && it->second.gen == gen) {
    flush_batch(key);
  }
}

std::uint32_t Backhaul::park(NodeId from, NodeId to, BackhaulMessage msg) {
  if (free_in_flight_.empty()) {
    in_flight_.push_back(PendingDelivery{from, to, std::move(msg)});
    return static_cast<std::uint32_t>(in_flight_.size() - 1);
  }
  const std::uint32_t slot = free_in_flight_.back();
  free_in_flight_.pop_back();
  in_flight_[slot] = PendingDelivery{from, to, std::move(msg)};
  return slot;
}

void Backhaul::deliver_parked(std::uint32_t slot) {
  // Move everything out and recycle the slot before invoking: the handler
  // may send() reentrantly, which can grow in_flight_.
  PendingDelivery d = std::move(in_flight_[slot]);
  free_in_flight_.push_back(slot);
  // A message in flight toward a node whose link went down meanwhile is
  // lost with the cable.
  if (num_down_ > 0 && down(d.to)) {
    ++dropped_;
    ++link_dropped_;
    drop_payload(d.msg);
    return;
  }
  // Handler looked up at delivery time: attach order vs send order must
  // not matter, and a handler may be replaced mid-run.
  if (const Node* n = find_node(d.to); n != nullptr && n->attached) {
    n->handler(d.from, std::move(d.msg));
  } else {
    drop_payload(d.msg);
  }
}

void Backhaul::deliver_batch_parked(std::uint32_t slot) {
  PendingBatch b = std::move(batch_in_flight_[slot]);
  free_batch_in_flight_.push_back(slot);
  if (num_down_ > 0 && down(b.to)) {
    // The cable cut loses the whole batch on the wire.
    for (const BackhaulMessage& m : b.msgs) {
      ++dropped_;
      ++link_dropped_;
      drop_payload(m);
    }
    return;
  }
  const Node* n = find_node(b.to);
  if (n == nullptr || !n->attached) {
    for (const BackhaulMessage& m : b.msgs) drop_payload(m);
    return;
  }
  // One event, many messages: invoked in send order so the receiver sees
  // exactly the per-message sequence, just on one timestamp.
  for (BackhaulMessage& m : b.msgs) n->handler(b.from, std::move(m));
}

}  // namespace wgtt::net
