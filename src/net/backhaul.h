// Simulated switched-Ethernet backhaul connecting the controller and APs.
//
// Unicast store-and-forward through one switch: per-message latency =
// serialization at line rate + switch forwarding overhead (+ optional
// jitter). The backhaul is reliable by default but carries two layers of
// fault injection to exercise the switching protocol's 30 ms retransmission
// timeout: a uniform `loss_rate` over all messages, and per-message-type
// FaultPlans (loss, extra delay, duplication, deterministic first-N drops).
// Faults preserve the per-(src,dst) FIFO discipline — a delayed message
// holds back the rest of its flow, and a duplicate arrives after the
// original — because a switched-Ethernet path never reorders a flow and the
// WGTT index stream depends on that. The one deliberate exception is
// FaultPlan::reorder_rate, which models a misbehaving switch by letting a
// message escape the FIFO clamp. Whole-node faults (AP crash, partition)
// are modelled by taking a node's link down via set_node_up().
//
// Two opt-in extensions (DESIGN.md §10), both off by default so seeded runs
// stay byte-identical to the infinite-pipe engine:
//
//  * Per-link bandwidth/queue model (`link_rate_mbps` > 0): each directed
//    (src, dst) link is a FIFO serializer at the configured rate with a
//    bounded byte queue. Backlog is tracked analytically as a busy-until
//    virtual clock — no extra scheduler events — and a message that would
//    push the queued bytes past `link_queue_bytes` is dropped at send time
//    (counted in queue_drops()).
//
//  * Fan-out batching (`batching`): unfaulted DownlinkData messages on one
//    link coalesce into an open batch that flushes after `batch_window`,
//    at `batch_max_msgs`, or immediately when any other traffic hits the
//    link (so control messages can never overtake queued data of the same
//    flow). A flushed batch is ONE delivery event invoking the receiver
//    once per message in send order — event count stops scaling with
//    fan-out width x packet rate. Delay-, reorder- or dup-faulted messages
//    flush the open batch and take the per-message path, so fault
//    semantics (and the per-flow FIFO, reorder excepted) are preserved.
//
// Payload pooling: when a PacketPool is wired via set_payload_pool, pooled
// DownlinkData messages carry a refcounted handle instead of a Packet, and
// every path that destroys a message without delivering it (loss, queue
// bound, downed link, missing handler) drops its reference; duplication
// adds one.
//
// Deferred fan-out (DESIGN.md §10): fan_out() sends one pooled downlink
// packet to many APs. Each copy takes exactly the drops, draws, FIFO clamp
// and scheduler position a send() would give it, but a copy whose
// destination has a FanoutSink that takes it becomes an entry in that AP's
// inbox rather than a delivery event; the AP applies it once the clock has
// passed its (arrival, seq) position.
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <span>
#include <unordered_map>
#include <vector>

#include "net/messages.h"
#include "net/packet_pool.h"
#include "sim/scheduler.h"
#include "util/rng.h"

namespace wgtt::net {

/// Fault injection for one message type. Faults are drawn independently per
/// send; RNG draws happen only for nonzero knobs, so an all-zero plan leaves
/// seeded runs bit-identical to a fault-free backhaul.
struct FaultPlan {
  double loss_rate = 0.0;   // drop probability
  double dup_rate = 0.0;    // probability of delivering a second copy
  double delay_rate = 0.0;  // probability of adding extra delay
  Time delay_max = Time::zero();  // extra delay ~ U[0, delay_max)
  /// Deterministically drop the first N matching sends (then behave
  /// normally). The surgical knob regression tests use to lose exactly one
  /// control message.
  int drop_first = 0;
  /// Opt-in reordering: with this probability the message takes an extra
  /// U[0, reorder_max) delay AND bypasses the per-flow FIFO clamp, so
  /// later sends on the same flow can overtake it. Off by default — a
  /// healthy switched-Ethernet path never reorders a flow — but a
  /// misbehaving switch or a routing flap can, and the epoch guards must
  /// survive that.
  double reorder_rate = 0.0;
  Time reorder_max = Time::zero();
};

/// One pooled downlink packet as fan_out() hands it to every target.
struct FanoutCopy {
  ClientId client{};
  std::uint16_t index = 0;  // m = 12-bit index number
  PacketPool::Handle handle = PacketPool::kNullHandle;
  std::uint32_t tunnel_bytes = 0;  // wire size
};

/// A fan-out copy parked at its destination instead of a delivery event.
/// (arrival, seq) is exactly the scheduler position the event would have
/// had; the entry owns one payload reference.
struct DeferredCopy {
  Time arrival;
  std::uint64_t seq = 0;
  ClientId client{};
  std::uint16_t index = 0;
  PacketPool::Handle handle = PacketPool::kNullHandle;

  [[nodiscard]] friend bool operator<(const DeferredCopy& a,
                                      const DeferredCopy& b) {
    return a.arrival != b.arrival ? a.arrival < b.arrival : a.seq < b.seq;
  }
};

/// A node that takes fan-out copies itself, holding those it can in an
/// inbox (DESIGN.md §10). Fan-out copies for a node with a sink never reach
/// its backhaul handler.
class FanoutSink {
 public:
  /// Takes `copy` (and its payload reference) into the inbox, or returns
  /// false to have the backhaul schedule a delivery event that calls
  /// receive() at the copy's (arrival, seq).
  virtual bool defer(const DeferredCopy& copy) = 0;
  /// A copy's delivery event: the copy reaches the node now.
  virtual void receive(const DeferredCopy& copy) = 0;
  /// Applies, in (arrival, seq) order, every inbox entry the scheduler has
  /// passed. The backhaul calls it before it changes the node's link state.
  virtual void settle() = 0;

 protected:
  ~FanoutSink() = default;
};

class Backhaul {
 public:
  struct Config {
    double line_rate_mbps = 1000.0;     // GigE
    Time switch_overhead = Time::us(30);  // forwarding + host stack
    Time jitter_max = Time::us(20);
    double loss_rate = 0.0;             // uniform loss over all messages
    /// Per-message-type fault plans, indexed by MsgKind.
    std::array<FaultPlan, kNumMsgKinds> faults{};

    // --- Per-link bandwidth/queue model (DESIGN.md §10) ---
    /// Rate of each directed (src, dst) link. 0 (the default) = the legacy
    /// infinite pipe: serialization at line_rate_mbps, no queueing, no
    /// drops — byte-identical to the pre-model engine.
    double link_rate_mbps = 0.0;
    /// Byte bound of each link's send queue; a message that would push the
    /// analytically-tracked backlog past this is dropped at send time.
    /// Read only when link_rate_mbps > 0.
    std::size_t link_queue_bytes = 256 * 1024;

    // --- Fan-out batching (DESIGN.md §10) ---
    /// Coalesce unfaulted DownlinkData per link into single delivery
    /// events. Off by default (byte-identity).
    bool batching = false;
    /// How long an open batch may wait for more traffic before flushing.
    Time batch_window = Time::us(500);
    /// Flush as soon as a batch holds this many messages.
    std::size_t batch_max_msgs = 32;

    [[nodiscard]] FaultPlan& fault(MsgKind kind) {
      return faults[static_cast<std::size_t>(kind)];
    }
    [[nodiscard]] const FaultPlan& fault(MsgKind kind) const {
      return faults[static_cast<std::size_t>(kind)];
    }
  };

  using Handler = std::function<void(NodeId from, BackhaulMessage msg)>;

  Backhaul(sim::Scheduler& sched, const Config& config, Rng rng);

  /// Registers the message handler for `node`. Re-registering replaces.
  void attach(NodeId node, Handler handler);

  /// Wires the pool behind pooled DownlinkData payloads, so drop paths can
  /// release references and duplication can add them. The pool must outlive
  /// the backhaul's last delivery. nullptr detaches (the default: all
  /// messages carry payloads by value).
  void set_payload_pool(PacketPool* pool) { payload_pool_ = pool; }

  /// Sends `msg` from `from` to `to`; delivery is scheduled on the
  /// simulator. Sending to an unattached node is an error.
  void send(NodeId from, NodeId to, BackhaulMessage msg);

  /// Sends one copy of a pooled downlink packet to each of `targets`, in
  /// order, exactly as one send() of a pooled DownlinkData per target would
  /// (same drops, fault and jitter draws, FIFO clamps and scheduler
  /// sequence numbers), adding one payload reference per target. A copy the
  /// target's FanoutSink takes is deferred instead of scheduled. Needs a
  /// payload pool; with batching on, every copy takes send().
  void fan_out(NodeId from, std::span<const ApId> targets,
               const FanoutCopy& copy);

  /// Routes fan-out copies for `ap` through `sink` (nullptr detaches). The
  /// sink must detach before it is destroyed.
  void set_fanout_sink(ApId ap, FanoutSink* sink);

  /// Accounts a deferred copy that reached its node while the link was
  /// down: counted as a link drop, its payload reference dropped — what
  /// the delivery event would have done.
  void drop_on_downed_link(PacketPool::Handle handle);

  /// Marks a node's backhaul link up or down (all links start up). While
  /// down, sends from or to the node are dropped at send time, and messages
  /// already in flight toward it are dropped at delivery time — a cable cut
  /// loses what is on the wire. A pure map lookup: taking links down and up
  /// never consumes RNG draws, so fault-free runs stay bit-identical.
  void set_node_up(NodeId node, bool up);
  [[nodiscard]] bool node_up(NodeId node) const {
    const Node* n = find_node(node);
    return n == nullptr || !n->down;
  }

  [[nodiscard]] std::uint64_t messages_sent() const { return sent_; }
  [[nodiscard]] std::uint64_t messages_dropped() const { return dropped_; }
  [[nodiscard]] std::uint64_t messages_duplicated() const { return duplicated_; }
  [[nodiscard]] std::uint64_t messages_delayed() const { return delayed_; }
  /// Drops attributable to a FaultPlan (excluded from the uniform
  /// `loss_rate` drops, which `messages_dropped` also counts).
  [[nodiscard]] std::uint64_t fault_dropped() const { return fault_dropped_; }
  /// Drops attributable to a downed link (send-time and in-flight).
  [[nodiscard]] std::uint64_t link_dropped() const { return link_dropped_; }
  /// Messages that bypassed the FIFO clamp via FaultPlan::reorder_rate.
  [[nodiscard]] std::uint64_t messages_reordered() const { return reordered_; }
  /// Drops by the per-link byte-queue bound (link model only); also counted
  /// in messages_dropped.
  [[nodiscard]] std::uint64_t queue_drops() const { return queue_drops_; }
  /// Batches flushed / messages that rode in a batch (batching only).
  [[nodiscard]] std::uint64_t batches_flushed() const { return batches_flushed_; }
  [[nodiscard]] std::uint64_t messages_batched() const { return batched_msgs_; }
  /// Lifetime serialization-busy fraction of the busiest directed link
  /// (the `backhaul.link_utilization` gauge). 0 while the link model is off
  /// or no time has elapsed.
  [[nodiscard]] double max_link_utilization(Time now) const;

 private:
  /// Hashed directed-link key; indexes the FIFO watermark, the link
  /// serializer state, and the open batch.
  [[nodiscard]] static std::uint64_t flow_key(NodeId from, NodeId to) {
    return (static_cast<std::uint64_t>(std::hash<NodeId>{}(from)) << 32) ^
           std::hash<NodeId>{}(to);
  }

  /// Per-node state, dense by node kind and index.
  struct Node {
    Handler handler;
    FanoutSink* sink = nullptr;
    bool attached = false;
    bool down = false;
  };
  [[nodiscard]] const Node* find_node(NodeId node) const {
    const auto& nodes = nodes_[static_cast<std::size_t>(node.kind)];
    return node.index < nodes.size() ? &nodes[node.index] : nullptr;
  }
  [[nodiscard]] Node* find_node(NodeId node) {
    auto& nodes = nodes_[static_cast<std::size_t>(node.kind)];
    return node.index < nodes.size() ? &nodes[node.index] : nullptr;
  }
  Node& node(NodeId node);
  [[nodiscard]] bool attached(NodeId node) const {
    const Node* n = find_node(node);
    return n != nullptr && n->attached;
  }
  [[nodiscard]] bool down(NodeId node) const { return !node_up(node); }

  /// The FIFO watermark (latest scheduled arrival) of the flow from `from`
  /// to `to`; below any arrival until the flow's first message. Flows are
  /// told apart by flow_key(). Keys below kDenseFlowRows << 32 — the
  /// controller -> AP fan-out flows among them — live in dense rows, the
  /// rest in a map.
  Time& watermark(NodeId from, NodeId to);
  /// Clamps `arrival` behind the flow's watermark and advances it, unless
  /// `bypass_fifo` (a reorder-faulted message).
  Time clamp_to_flow(NodeId from, NodeId to, Time arrival, bool bypass_fifo);

  /// send()'s admission stage for a message of `kind` and `bytes`: counts
  /// it, then applies link-down, loss, drop-first, fault-loss and link
  /// queue drops (counted) in that order. On admission sets the link
  /// model's queueing delay and serialization time.
  [[nodiscard]] bool admit(NodeId from, NodeId to, MsgKind kind, double bytes,
                           Time& queue_wait, double& ser_us);

  /// An admitted unbatched message's arrival and fault draws.
  struct Route {
    Time arrival;
    bool reorder = false;
    bool duplicate = false;
  };
  [[nodiscard]] Route draw_route(const FaultPlan& plan, Time queue_wait,
                                 double ser_us);

  /// Drops / adds the payload-pool reference of a pooled DownlinkData.
  /// No-ops for by-value messages or while no pool is wired.
  void drop_payload(const BackhaulMessage& msg);
  void ref_payload(const BackhaulMessage& msg);

  /// Schedules one delivery at >= `arrival`, clamped to the flow's FIFO
  /// unless `bypass_fifo` (a reorder-faulted message) is set.
  void deliver(NodeId from, NodeId to, BackhaulMessage msg, Time arrival,
               bool bypass_fifo = false);
  /// deliver() for one fan-out copy: deferred when the target's sink takes
  /// it, otherwise scheduled — to the sink when there is one, parked for
  /// the handler when not.
  void deliver_copy(NodeId from, NodeId to, const FanoutCopy& copy,
                    Time arrival, bool bypass_fifo);

  // Batching machinery.
  void flush_batch(std::uint64_t key);
  void flush_batch_if(std::uint64_t key, std::uint64_t gen);
  void deliver_batch_parked(std::uint32_t slot);

  /// In-flight message parked between send() and its delivery event. Kept in
  /// a free-listed slab so the scheduled callback captures only
  /// (this, slot index) — it stays within InlineCallback's inline buffer, and
  /// the steady state allocates nothing per message (DESIGN.md §8).
  struct PendingDelivery {
    NodeId from{};
    NodeId to{};
    BackhaulMessage msg;
  };
  std::uint32_t park(NodeId from, NodeId to, BackhaulMessage msg);
  void deliver_parked(std::uint32_t slot);

  /// One directed link's serializer state (link model only).
  struct LinkState {
    Time busy_until = Time::zero();   // virtual clock of the FIFO serializer
    std::uint64_t busy_ns = 0;        // lifetime serialization time
  };

  /// An open (not yet flushed) batch on one link.
  struct Batch {
    NodeId from{};
    NodeId to{};
    std::vector<BackhaulMessage> msgs;
    Time ready = Time::zero();  // latest serialization finish among members
    std::uint64_t gen = 0;      // stales the pending window-flush event
    bool open = false;
  };
  /// A flushed batch parked until its single delivery event.
  struct PendingBatch {
    NodeId from{};
    NodeId to{};
    std::vector<BackhaulMessage> msgs;
  };

  sim::Scheduler& sched_;
  Config config_;
  Rng rng_;
  PacketPool* payload_pool_ = nullptr;
  std::array<std::vector<Node>, 2> nodes_;  // by NodeId::Kind, then index
  std::size_t num_down_ = 0;
  std::vector<PendingDelivery> in_flight_;    // grows to the high-water mark
  std::vector<std::uint32_t> free_in_flight_;
  std::vector<PendingBatch> batch_in_flight_;
  std::vector<std::uint32_t> free_batch_in_flight_;
  // FIFO discipline per (src, dst): a switched-Ethernet path never reorders
  // packets of one flow, and the WGTT index stream depends on that. See
  // watermark().
  static constexpr std::uint64_t kDenseFlowRows = 16;
  std::array<std::vector<Time>, kDenseFlowRows> dense_watermarks_;
  std::unordered_map<std::uint64_t, Time> last_delivery_;
  std::unordered_map<std::uint64_t, LinkState> links_;
  std::unordered_map<std::uint64_t, Batch> batches_;
  std::array<int, kNumMsgKinds> drop_first_remaining_{};
  std::uint64_t sent_ = 0;
  std::uint64_t dropped_ = 0;
  std::uint64_t duplicated_ = 0;
  std::uint64_t delayed_ = 0;
  std::uint64_t fault_dropped_ = 0;
  std::uint64_t link_dropped_ = 0;
  std::uint64_t reordered_ = 0;
  std::uint64_t queue_drops_ = 0;
  std::uint64_t batches_flushed_ = 0;
  std::uint64_t batched_msgs_ = 0;
};

}  // namespace wgtt::net
