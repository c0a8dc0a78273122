// Tests for the cyclic queue and the WGTT AP's data/control-plane logic:
// fan-in of downlink packets, the stop/start/ack switching protocol, stale
// drop, and block-ACK forwarding with de-duplication.
#include <gtest/gtest.h>

#include <functional>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "ap/cyclic_queue.h"
#include "ap/wgtt_ap.h"
#include "mac/medium.h"
#include "net/backhaul.h"
#include "obs/metrics.h"
#include "sim/scheduler.h"
#include "util/rng.h"

namespace wgtt::ap {
namespace {

using net::ApId;
using net::BackhaulMessage;
using net::ClientId;
using net::NodeId;

net::Packet data_packet(ClientId c, Time created) {
  net::Packet p = net::make_packet();
  p.client = c;
  p.proto = net::Proto::kUdp;
  p.payload_bytes = 1400;
  p.created = created;
  return p;
}

TEST(CyclicQueueTest, PutTakeBasics) {
  CyclicQueue q;
  EXPECT_EQ(q.occupancy(), 0u);
  EXPECT_FALSE(q.has(5));
  net::Packet p = net::make_packet();
  p.payload_bytes = 100;
  q.put(5, p);
  EXPECT_TRUE(q.has(5));
  EXPECT_EQ(q.occupancy(), 1u);
  ASSERT_NE(q.peek(5), nullptr);
  EXPECT_EQ(q.peek(5)->payload_bytes, 100u);
  auto taken = q.take(5);
  ASSERT_TRUE(taken.has_value());
  EXPECT_FALSE(q.has(5));
  EXPECT_EQ(q.occupancy(), 0u);
  EXPECT_FALSE(q.take(5).has_value());
}

TEST(CyclicQueueTest, IndexMasking) {
  CyclicQueue q;
  net::Packet p = net::make_packet();
  q.put(4096 + 7, p);  // masked to 7
  EXPECT_TRUE(q.has(7));
}

TEST(CyclicQueueTest, OverwriteSameSlot) {
  CyclicQueue q;
  net::Packet a = net::make_packet();
  a.payload_bytes = 1;
  net::Packet b = net::make_packet();
  b.payload_bytes = 2;
  q.put(9, a);
  q.put(9, b);
  EXPECT_EQ(q.occupancy(), 1u);
  EXPECT_EQ(q.peek(9)->payload_bytes, 2u);
}

TEST(CyclicQueueTest, NewestTracksLastPut) {
  CyclicQueue q;
  EXPECT_FALSE(q.newest().has_value());
  q.put(10, net::make_packet());
  q.put(12, net::make_packet());
  EXPECT_EQ(q.newest().value(), 12);
  q.clear();
  EXPECT_EQ(q.occupancy(), 0u);
  EXPECT_FALSE(q.newest().has_value());
}

TEST(CyclicQueueTest, FullLapKeepsAllSlots) {
  CyclicQueue q;
  for (std::uint16_t i = 0; i < CyclicQueue::kIndexSpace; ++i) {
    q.put(i, net::make_packet());
  }
  EXPECT_EQ(q.occupancy(), static_cast<std::size_t>(CyclicQueue::kIndexSpace));
}

TEST(CyclicQueueTest, DropDiscardsWithoutMaterializing) {
  CyclicQueue q;
  q.put(3, net::make_packet());
  EXPECT_TRUE(q.drop(3));
  EXPECT_FALSE(q.has(3));
  EXPECT_EQ(q.occupancy(), 0u);
  EXPECT_FALSE(q.drop(3));  // already empty
}

TEST(CyclicQueueTest, SharedHandleSurvivesPeerCrashWipe) {
  // The fan-out invariant: N queues hold N references to ONE pooled packet.
  // Wiping one queue (an AP crash) must leave every other queue's view of
  // the shared slot intact, and taking from the survivors must not disturb
  // the rest either.
  net::PacketPool pool;
  CyclicQueue a(&pool);
  CyclicQueue b(&pool);
  CyclicQueue c(&pool);
  net::Packet p = net::make_packet();
  p.payload_bytes = 777;
  const auto h = pool.acquire(std::move(p));  // controller's acquisition ref
  pool.add_ref(h);
  a.put_handle(40, h);
  pool.add_ref(h);
  b.put_handle(40, h);
  pool.add_ref(h);
  c.put_handle(40, h);
  pool.drop(h);  // controller lets go; the queues hold theirs
  EXPECT_EQ(pool.ref_count(h), 3u);
  EXPECT_EQ(pool.in_use(), 1u);  // three queues, ONE packet

  a.clear();  // AP a crashes: its ref drops, nothing is copied or moved
  EXPECT_EQ(pool.ref_count(h), 2u);
  ASSERT_NE(b.peek(40), nullptr);
  EXPECT_EQ(b.peek(40)->payload_bytes, 777u);

  const auto from_b = b.take(40);  // shared: must copy, leaving c's view
  ASSERT_TRUE(from_b.has_value());
  EXPECT_EQ(from_b->payload_bytes, 777u);
  ASSERT_NE(c.peek(40), nullptr);
  EXPECT_EQ(c.peek(40)->payload_bytes, 777u);

  const auto from_c = c.take(40);  // last ref: moves out and frees the slot
  ASSERT_TRUE(from_c.has_value());
  EXPECT_EQ(from_c->payload_bytes, 777u);
  EXPECT_EQ(pool.in_use(), 0u);
  EXPECT_EQ(pool.total_refs(), 0u);
}

TEST(CyclicQueueTest, OverwriteDropsDisplacedSharedRef) {
  // A new packet landing on an occupied slot drops the displaced occupant's
  // reference; a peer still holding that occupant keeps reading it.
  net::PacketPool pool;
  CyclicQueue a(&pool);
  CyclicQueue b(&pool);
  net::Packet old = net::make_packet();
  old.payload_bytes = 1;
  const auto h = pool.acquire(std::move(old));
  pool.add_ref(h);
  a.put_handle(9, h);
  b.put_handle(9, h);
  net::Packet fresh = net::make_packet();
  fresh.payload_bytes = 2;
  a.put(9, fresh);  // a's ref on the old packet drops; b's stays
  EXPECT_EQ(a.overwrites(), 1u);
  EXPECT_EQ(a.peek(9)->payload_bytes, 2u);
  EXPECT_EQ(b.peek(9)->payload_bytes, 1u);
  EXPECT_EQ(pool.ref_count(h), 1u);
}

// --- WgttAp fixture ---------------------------------------------------------

channel::CsiMeasurement flat_csi(double snr_db, Time when) {
  channel::CsiMeasurement m;
  m.when = when;
  m.subcarrier_snr_db.fill(snr_db);
  m.rssi_dbm = -94.0 + snr_db;
  return m;
}

class WgttApTest : public ::testing::Test {
 protected:
  static constexpr ClientId kClient{0};

  WgttApTest() : medium_(sched_, {}), backhaul_(sched_, {}, Rng{99}) {
    // Controller endpoint: records everything it receives.
    backhaul_.attach(NodeId::controller(),
                     [this](NodeId from, BackhaulMessage msg) {
                       controller_log_.emplace_back(from, std::move(msg));
                     });
    ap0_ = make_ap(0);
    ap1_ = make_ap(1);
    // Client radio on the medium.
    client_radio_ = client_mac_template();
    ap0_->register_client(kClient, client_radio_);
    ap1_->register_client(kClient, client_radio_);
  }

  std::unique_ptr<WgttAp> make_ap(int idx) {
    auto ap = std::make_unique<WgttAp>(
        ApId{static_cast<std::uint32_t>(idx)}, sched_, medium_, backhaul_,
        Rng{static_cast<std::uint64_t>(idx) + 5}, WgttAp::Config{},
        [idx] { return channel::Vec2{idx * 7.5, 15.0}; });
    ap->mac().set_channel_sampler(
        [this](mac::RadioId) { return flat_csi(40.0, sched_.now()); });
    ap->set_ap_directory([this](mac::RadioId r) -> std::optional<ApId> {
      if (ap0_ && r == ap0_->mac().radio()) return ApId{0};
      if (ap1_ && r == ap1_->mac().radio()) return ApId{1};
      return std::nullopt;
    });
    return ap;
  }

  mac::RadioId client_mac_template() {
    client_mac_ = std::make_unique<mac::WifiMac>(
        sched_, medium_, Rng{777}, mac::WifiMac::Config{.shared_rx_scoreboard = true});
    const mac::RadioId id =
        client_mac_->attach([] { return channel::Vec2{0.0, 0.0}; });
    client_mac_->set_channel_sampler(
        [this](mac::RadioId) { return flat_csi(40.0, sched_.now()); });
    client_mac_->set_tx_to_bssid(true);
    client_mac_->add_peer(mac::kBssidWgtt);
    client_mac_->on_deliver = [this](mac::RadioId, const net::Packet& p) {
      client_rx_.push_back(p);
    };
    return id;
  }

  void send_downlink(WgttAp& ap, std::uint16_t index) {
    backhaul_.send(NodeId::controller(), NodeId::ap(ap.id()),
                   net::DownlinkData{data_packet(kClient, sched_.now()), index});
  }

  int count_controller(auto pred) const {
    int n = 0;
    for (const auto& [from, msg] : controller_log_) {
      if (pred(msg)) ++n;
    }
    return n;
  }

  sim::Scheduler sched_;
  mac::Medium medium_;
  net::Backhaul backhaul_;
  std::unique_ptr<WgttAp> ap0_;
  std::unique_ptr<WgttAp> ap1_;
  std::unique_ptr<mac::WifiMac> client_mac_;
  mac::RadioId client_radio_{};
  std::vector<net::Packet> client_rx_;
  std::vector<std::pair<NodeId, BackhaulMessage>> controller_log_;
};

TEST_F(WgttApTest, NonServingApBuffersWithoutTransmitting) {
  send_downlink(*ap0_, 0);
  send_downlink(*ap0_, 1);
  sched_.run_until(Time::ms(50));
  EXPECT_EQ(ap0_->cyclic_backlog(kClient), 2u);
  EXPECT_TRUE(client_rx_.empty());
  EXPECT_FALSE(ap0_->serving(kClient));
}

TEST_F(WgttApTest, StartMakesApServeFromIndex) {
  for (std::uint16_t i = 0; i < 5; ++i) send_downlink(*ap0_, i);
  backhaul_.send(NodeId::controller(), NodeId::ap(ApId{0}),
                 net::StartMsg{kClient, ApId{0}, 2});
  sched_.run_until(Time::ms(100));
  EXPECT_TRUE(ap0_->serving(kClient));
  // Serves from index 2: packets 2,3,4 delivered; 0,1 remain buffered.
  EXPECT_EQ(client_rx_.size(), 3u);
  // ack went back to the controller.
  EXPECT_EQ(count_controller([](const BackhaulMessage& m) {
              return std::holds_alternative<net::SwitchAck>(m);
            }),
            1);
}

TEST_F(WgttApTest, SwitchingProtocolHandsOffFirstUnsent) {
  // AP0 serves 0..9; stop arrives mid-stream; AP0 must send start(c, k) to
  // AP1 with k = its first unsent index, and AP1 resumes exactly there.
  for (std::uint16_t i = 0; i < 10; ++i) {
    send_downlink(*ap0_, i);
    send_downlink(*ap1_, i);
  }
  backhaul_.send(NodeId::controller(), NodeId::ap(ApId{0}),
                 net::StartMsg{kClient, ApId{0}, 0, /*epoch=*/1});
  sched_.run_until(Time::ms(60));
  const std::size_t delivered_by_ap0 = client_rx_.size();
  EXPECT_GT(delivered_by_ap0, 0u);

  backhaul_.send(NodeId::controller(), NodeId::ap(ApId{0}),
                 net::StopMsg{kClient, ApId{1}, /*epoch=*/2});
  sched_.run_until(Time::ms(300));
  EXPECT_FALSE(ap0_->serving(kClient));
  EXPECT_TRUE(ap1_->serving(kClient));
  EXPECT_EQ(ap0_->stats().stops_handled, 1u);
  EXPECT_EQ(ap1_->stats().starts_handled, 1u);
  // All ten packets arrive exactly once across the two APs.
  EXPECT_EQ(client_rx_.size(), 10u);
}

TEST_F(WgttApTest, SwitchTimingMatchesTableOne) {
  // The stop -> start -> ack pipeline takes ~17 ms (paper Table 1).
  for (std::uint16_t i = 0; i < 3; ++i) {
    send_downlink(*ap0_, i);
    send_downlink(*ap1_, i);
  }
  backhaul_.send(NodeId::controller(), NodeId::ap(ApId{0}),
                 net::StartMsg{kClient, ApId{0}, 0, /*epoch=*/1});
  sched_.run_until(Time::ms(100));
  const Time t0 = sched_.now();
  backhaul_.send(NodeId::controller(), NodeId::ap(ApId{0}),
                 net::StopMsg{kClient, ApId{1}, /*epoch=*/2});
  // Wait for the SwitchAck from AP1.
  Time acked;
  backhaul_.attach(NodeId::controller(),
                   [&](NodeId, BackhaulMessage msg) {
                     if (std::holds_alternative<net::SwitchAck>(msg)) {
                       acked = sched_.now();
                     }
                   });
  sched_.run_until(t0 + Time::ms(200));
  const double ms = (acked - t0).to_millis();
  EXPECT_GT(ms, 5.0);
  EXPECT_LT(ms, 40.0);
}

TEST_F(WgttApTest, DuplicateStopReplaysRecordedIndexWithoutRequery) {
  // Capture what AP0 hands to AP1 (detaches the real AP1 — fine, the test
  // only watches AP0's side of the handshake).
  std::vector<net::StartMsg> starts_to_ap1;
  backhaul_.attach(NodeId::ap(ApId{1}), [&](NodeId, BackhaulMessage msg) {
    if (const auto* s = std::get_if<net::StartMsg>(&msg)) {
      starts_to_ap1.push_back(*s);
    }
  });
  for (std::uint16_t i = 0; i < 6; ++i) send_downlink(*ap0_, i);
  backhaul_.send(NodeId::controller(), NodeId::ap(ApId{0}),
                 net::StartMsg{kClient, ApId{0}, 0, /*epoch=*/1});
  sched_.run_until(Time::ms(60));
  backhaul_.send(NodeId::controller(), NodeId::ap(ApId{0}),
                 net::StopMsg{kClient, ApId{1}, /*epoch=*/2});
  sched_.run_until(Time::ms(120));
  ASSERT_EQ(starts_to_ap1.size(), 1u);
  // The ack never comes (AP1 is detached), so the controller would
  // retransmit the stop. The duplicate must replay the RECORDED index, not
  // re-query a pointer that may have moved.
  backhaul_.send(NodeId::controller(), NodeId::ap(ApId{0}),
                 net::StopMsg{kClient, ApId{1}, /*epoch=*/2});
  sched_.run_until(Time::ms(180));
  EXPECT_EQ(ap0_->stats().stops_handled, 1u);
  EXPECT_EQ(ap0_->stats().stop_duplicates, 1u);
  ASSERT_EQ(starts_to_ap1.size(), 2u);
  EXPECT_EQ(starts_to_ap1[1].first_unsent_index,
            starts_to_ap1[0].first_unsent_index);
  EXPECT_EQ(starts_to_ap1[1].epoch, starts_to_ap1[0].epoch);
}

TEST_F(WgttApTest, DuplicateStartReacksWithoutRewinding) {
  for (std::uint16_t i = 0; i < 5; ++i) send_downlink(*ap0_, i);
  backhaul_.send(NodeId::controller(), NodeId::ap(ApId{0}),
                 net::StartMsg{kClient, ApId{0}, 0, /*epoch=*/1});
  sched_.run_until(Time::ms(100));
  EXPECT_EQ(client_rx_.size(), 5u);
  const auto acks = [this] {
    return count_controller([](const BackhaulMessage& m) {
      return std::holds_alternative<net::SwitchAck>(m);
    });
  };
  EXPECT_EQ(acks(), 1);
  // The ack was lost upstream; the retransmit chain delivers the same
  // start again. The AP must replay the ack but NOT rewind next_index —
  // pre-fix it re-applied k=0 and re-transmitted all five packets.
  backhaul_.send(NodeId::controller(), NodeId::ap(ApId{0}),
                 net::StartMsg{kClient, ApId{0}, 0, /*epoch=*/1});
  sched_.run_until(Time::ms(200));
  EXPECT_EQ(acks(), 2);
  EXPECT_EQ(client_rx_.size(), 5u);  // nothing re-delivered
  EXPECT_EQ(ap0_->stats().start_duplicates, 1u);
  EXPECT_EQ(ap0_->stats().starts_handled, 1u);
  EXPECT_EQ(ap0_->stats().index_regressions, 0u);
}

TEST_F(WgttApTest, StaleControlMessagesIgnored) {
  backhaul_.send(NodeId::controller(), NodeId::ap(ApId{0}),
                 net::StartMsg{kClient, ApId{0}, 0, /*epoch=*/3});
  sched_.run_until(Time::ms(50));
  EXPECT_TRUE(ap0_->serving(kClient));
  // A delayed stop from a superseded switch (epoch 2 < 3) surfaces late.
  // Acting on it would halt a drain the controller believes is live.
  backhaul_.send(NodeId::controller(), NodeId::ap(ApId{0}),
                 net::StopMsg{kClient, ApId{1}, /*epoch=*/2});
  sched_.run_until(Time::ms(120));
  EXPECT_TRUE(ap0_->serving(kClient));
  EXPECT_EQ(ap0_->stats().stops_handled, 0u);
  EXPECT_EQ(ap0_->stats().stale_control_ignored, 1u);
  // A stale start is equally ignored.
  backhaul_.send(NodeId::controller(), NodeId::ap(ApId{0}),
                 net::StartMsg{kClient, ApId{0}, 7, /*epoch=*/1});
  sched_.run_until(Time::ms(180));
  EXPECT_EQ(ap0_->stats().starts_handled, 1u);
  EXPECT_EQ(ap0_->stats().stale_control_ignored, 2u);
}

TEST_F(WgttApTest, StaleCyclicEntriesDropped) {
  send_downlink(*ap0_, 0);
  // Age the packet past the staleness bound before serving begins.
  sched_.run_until(Time::sec(2));
  backhaul_.send(NodeId::controller(), NodeId::ap(ApId{0}),
                 net::StartMsg{kClient, ApId{0}, 0});
  sched_.run_until(Time::sec(2) + Time::ms(100));
  EXPECT_TRUE(client_rx_.empty());
  EXPECT_EQ(ap0_->stats().stale_dropped, 1u);
}

TEST_F(WgttApTest, UplinkForwardedToController) {
  net::Packet up = data_packet(kClient, sched_.now());
  up.downlink = false;
  client_mac_->enqueue(mac::kBssidWgtt, up);
  sched_.run_until(Time::ms(50));
  // Both APs decode the BSSID-addressed uplink and forward it.
  EXPECT_EQ(count_controller([](const BackhaulMessage& m) {
              return std::holds_alternative<net::UplinkData>(m);
            }),
            2);
}

TEST_F(WgttApTest, CsiReportedOnClientFrames) {
  net::Packet up = data_packet(kClient, sched_.now());
  up.downlink = false;
  client_mac_->enqueue(mac::kBssidWgtt, up);
  sched_.run_until(Time::ms(50));
  EXPECT_GE(count_controller([](const BackhaulMessage& m) {
              return std::holds_alternative<net::CsiReport>(m);
            }),
            2);  // one per AP at least (data frame; BAs may add more)
}

TEST_F(WgttApTest, CsiReportingCanBeDisabled) {
  ap0_->set_csi_reporting(false);
  ap1_->set_csi_reporting(false);
  net::Packet up = data_packet(kClient, sched_.now());
  up.downlink = false;
  client_mac_->enqueue(mac::kBssidWgtt, up);
  sched_.run_until(Time::ms(50));
  EXPECT_EQ(count_controller([](const BackhaulMessage& m) {
              return std::holds_alternative<net::CsiReport>(m);
            }),
            0);
}

TEST_F(WgttApTest, ForwardedBaDeduplicated) {
  // Two identical BlockAckForward messages (same over-the-air BA uid, e.g.
  // forwarded by two monitor APs): the second is dropped (§3.2.1).
  backhaul_.send(NodeId::controller(), NodeId::ap(ApId{0}),
                 net::StartMsg{kClient, ApId{0}, 0});
  sched_.run_until(Time::ms(50));
  net::BlockAckForward fwd{kClient, ApId{1}, 0, 0x3, /*ba_uid=*/555};
  backhaul_.send(NodeId::ap(ApId{1}), NodeId::ap(ApId{0}), fwd);
  backhaul_.send(NodeId::ap(ApId{1}), NodeId::ap(ApId{0}), fwd);
  sched_.run_until(Time::ms(100));
  EXPECT_EQ(ap0_->stats().ba_forward_received, 2u);
  EXPECT_EQ(ap0_->stats().ba_forward_duplicate, 1u);
}


// --- Deferred fan-out delivery ----------------------------------------------
// A fan-out copy for a client an AP does not serve waits in the AP's inbox
// instead of as a delivery event (DESIGN.md §10). Each case runs one script
// on two rigs: one deferring, and an eager reference whose APs are detached
// as fan-out sinks so that every copy is a delivery event. Everything the
// APs, the pool, the backhaul and the client show must match.

class FanoutRig {
 public:
  static constexpr int kAps = 3;
  static constexpr ClientId kClient{0};

  FanoutRig(bool deferred, const net::Backhaul::Config& bh,
            const WgttAp::Config& ap_config = {})
      : medium_(sched_, {}), backhaul_(sched_, bh, Rng{99}) {
    net::reset_packet_uids();
    backhaul_.set_payload_pool(&pool_);
    backhaul_.attach(NodeId::controller(),
                     [this](NodeId, BackhaulMessage) { ++controller_msgs_; });
    for (int i = 0; i < kAps; ++i) {
      auto ap = std::make_unique<WgttAp>(
          ApId{static_cast<std::uint32_t>(i)}, sched_, medium_, backhaul_,
          Rng{static_cast<std::uint64_t>(i) + 5}, ap_config,
          [i] { return channel::Vec2{i * 7.5, 15.0}; });
      ap->mac().set_channel_sampler(
          [this](mac::RadioId) { return flat_csi(40.0, sched_.now()); });
      ap->set_payload_pool(&pool_);
      if (!deferred) {
        backhaul_.set_fanout_sink(ApId{static_cast<std::uint32_t>(i)}, nullptr);
      }
      targets_.push_back(ApId{static_cast<std::uint32_t>(i)});
      aps_.push_back(std::move(ap));
    }
    client_mac_ = std::make_unique<mac::WifiMac>(
        sched_, medium_, Rng{777},
        mac::WifiMac::Config{.shared_rx_scoreboard = true});
    const mac::RadioId radio =
        client_mac_->attach([] { return channel::Vec2{7.5, 0.0}; });
    client_mac_->set_channel_sampler(
        [this](mac::RadioId) { return flat_csi(40.0, sched_.now()); });
    client_mac_->set_tx_to_bssid(true);
    client_mac_->add_peer(mac::kBssidWgtt);
    client_mac_->on_deliver = [this](mac::RadioId, const net::Packet& p) {
      rx_ << p.uid << '@' << sched_.now().count_ns() << ' ';
    };
    for (auto& ap : aps_) ap->register_client(kClient, radio);
  }

  sim::Scheduler& sched() { return sched_; }
  net::Backhaul& backhaul() { return backhaul_; }
  WgttAp& ap(int i) { return *aps_[static_cast<std::size_t>(i)]; }

  /// What the controller does per downlink packet: acquire once, fan out
  /// to every AP, drop the acquisition reference.
  void fan_out() {
    net::Packet p = data_packet(kClient, sched_.now());
    const std::uint16_t index = next_index_++;
    net::FanoutCopy copy;
    copy.client = kClient;
    copy.index = index;
    copy.tunnel_bytes = static_cast<std::uint32_t>(p.tunnel_bytes());
    copy.handle = pool_.acquire(std::move(p));
    backhaul_.fan_out(NodeId::controller(), targets_, copy);
    pool_.drop(copy.handle);
  }
  /// `n` fan-outs, `period` apart, from `t0`.
  void stream(Time t0, Time period, int n) {
    for (int i = 0; i < n; ++i) {
      sched_.schedule_at(t0 + period * i, [this] { fan_out(); });
    }
  }
  void at(Time t, std::function<void()> fn) {
    sched_.schedule_at(t, [fn = std::move(fn)] { fn(); });
  }
  /// A reading taken inside an event; settles first, as a reader must.
  void observe() {
    for (auto& ap : aps_) ap->settle();
    for (auto& ap : aps_) notes_ << ap->cyclic_backlog(kClient) << ' ';
    notes_ << '|';
  }
  /// Sends the controller's bootstrap start for the client to AP `i`.
  void start(int i, std::uint16_t k, std::uint32_t epoch) {
    backhaul_.send(NodeId::controller(),
                   NodeId::ap(ApId{static_cast<std::uint32_t>(i)}),
                   net::StartMsg{kClient, ApId{0}, k, epoch});
  }
  void stop(int i, int new_ap, std::uint32_t epoch) {
    backhaul_.send(NodeId::controller(),
                   NodeId::ap(ApId{static_cast<std::uint32_t>(i)}),
                   net::StopMsg{kClient, ApId{static_cast<std::uint32_t>(new_ap)},
                                epoch});
  }

  /// Everything observable after running to `t`.
  std::string run_and_describe(Time t) {
    sched_.run_until(t);
    for (auto& ap : aps_) ap->settle();
    std::ostringstream os;
    for (const auto& ap : aps_) {
      const WgttAp::Stats& s = ap->stats();
      os << "ap" << net::index_of(ap->id()) << " received=" << s.downlink_received
         << " overwrites=" << s.cyclic_overwrites << " stale=" << s.stale_dropped
         << " pumped=" << s.pump_enqueued << " stops=" << s.stops_handled
         << " starts=" << s.starts_handled << " crashes=" << s.crashes
         << " restarts=" << s.restarts << " serving=" << ap->serving(kClient)
         << " backlog=" << ap->cyclic_backlog(kClient)
         << " delivered=" << ap->mac().total_stats().mpdus_delivered << '\n';
    }
    os << "pool in_use=" << pool_.in_use() << " refs=" << pool_.total_refs()
       << '\n';
    os << "backhaul sent=" << backhaul_.messages_sent()
       << " dropped=" << backhaul_.messages_dropped()
       << " link_dropped=" << backhaul_.link_dropped()
       << " fault_dropped=" << backhaul_.fault_dropped()
       << " duplicated=" << backhaul_.messages_duplicated()
       << " delayed=" << backhaul_.messages_delayed()
       << " reordered=" << backhaul_.messages_reordered()
       << " to_controller=" << controller_msgs_ << '\n';
    os << "client " << rx_.str() << '\n';
    os << "notes " << notes_.str() << '\n';
    return os.str();
  }

  [[nodiscard]] std::uint64_t events() const { return sched_.events_executed(); }

 private:
  sim::Scheduler sched_;
  mac::Medium medium_;
  net::Backhaul backhaul_;
  net::PacketPool pool_;
  std::vector<std::unique_ptr<WgttAp>> aps_;
  std::unique_ptr<mac::WifiMac> client_mac_;
  std::vector<ApId> targets_;
  std::uint16_t next_index_ = 0;
  std::uint64_t controller_msgs_ = 0;
  std::ostringstream rx_;
  std::ostringstream notes_;
};

/// Runs `script` on a deferring rig and on an eager one; the descriptions
/// must be equal, and the deferring rig must have run fewer events.
void expect_deferral_exact(const std::function<void(FanoutRig&)>& script,
                           Time until, net::Backhaul::Config bh = {},
                           const WgttAp::Config& ap_config = {}) {
  FanoutRig eager(false, bh, ap_config);
  script(eager);
  const std::string eager_text = eager.run_and_describe(until);
  FanoutRig deferred(true, bh, ap_config);
  script(deferred);
  const std::string deferred_text = deferred.run_and_describe(until);
  EXPECT_EQ(deferred_text, eager_text);
  EXPECT_LT(deferred.events(), eager.events()) << "nothing was deferred";
}

TEST(DeferredDeliveryTest, ApStartsServingWithCopiesInFlight) {
  // No jitter and a fixed start-processing delay, so each start lands at a
  // known instant: 10 us after copy k was sent, while it is still on the
  // wire, with k as the start index. Nothing from k on is queued yet, so
  // the pump must run at copy k's arrival — a promoted delivery event —
  // for the client to receive packet k when it would have.
  net::Backhaul::Config bh;
  bh.jitter_max = Time::zero();
  WgttAp::Config ap;
  ap.start_processing_std = Time::zero();
  expect_deferral_exact(
      [&bh, &ap](FanoutRig& rig) {
        const Time period = Time::us(50);
        rig.stream(Time::ms(1), period, 2000);
        const Time to_ap =
            bh.switch_overhead + Time::micros(64 * 8.0 / bh.line_rate_mbps);
        const std::uint16_t starts[] = {300, 900, 1500};
        for (int i = 0; i < 3; ++i) {
          const std::uint16_t k = starts[i];
          const Time applied = Time::ms(1) + period * k + Time::us(10);
          rig.at(applied - ap.start_processing_mean - to_ap,
                 [&rig, i, k] { rig.start(i, k, 1); });
        }
      },
      Time::ms(110), bh, ap);

  // The queue-management ablation resumes after the newest queued index,
  // which must count every copy that arrived before the start applies.
  WgttAp::Config newest;
  newest.start_from_newest = true;
  expect_deferral_exact(
      [](FanoutRig& rig) {
        rig.stream(Time::ms(1), Time::us(20), 2000);
        rig.at(Time::ms(3), [&rig] { rig.start(1, 0, 1); });
        rig.at(Time::ms(4), [&rig] { rig.start(2, 0, 1); });
      },
      Time::ms(50), {}, newest);
}

TEST(DeferredDeliveryTest, LinkDownAndUpBetweenSendAndArrival) {
  expect_deferral_exact(
      [](FanoutRig& rig) {
        rig.stream(Time::ms(1), Time::us(20), 1500);
        rig.at(Time::ms(2), [&rig] { rig.start(0, 0, 1); });
        // Outages shorter than, about equal to and longer than the
        // backhaul latency, on a non-serving and on the serving AP.
        for (int k = 0; k < 6; ++k) {
          const Time down = Time::ms(10 + 4 * k);
          const Time up = down + Time::us(15 + 30 * k);
          const int ap = k % 2 == 0 ? 2 : 0;
          const auto node = NodeId::ap(ApId{static_cast<std::uint32_t>(ap)});
          rig.at(down, [&rig, node] { rig.backhaul().set_node_up(node, false); });
          rig.at(up, [&rig, node] { rig.backhaul().set_node_up(node, true); });
        }
      },
      Time::ms(50));
}

TEST(DeferredDeliveryTest, ApCrashesAndRestartsWithCopiesPending) {
  expect_deferral_exact(
      [](FanoutRig& rig) {
        rig.stream(Time::ms(1), Time::us(20), 1500);
        rig.at(Time::ms(2), [&rig] { rig.start(0, 0, 1); });
        // A bare process crash (link up: copies reach a corpse) and a
        // crash with the link cut, as the scenario does it.
        rig.at(Time::ms(10), [&rig] { rig.ap(2).crash(); });
        rig.at(Time::ms(10) + Time::us(45), [&rig] { rig.ap(2).restart(); });
        const auto node = NodeId::ap(ApId{1});
        rig.at(Time::ms(20), [&rig, node] {
          rig.backhaul().set_node_up(node, false);
          rig.ap(1).crash();
        });
        rig.at(Time::ms(25), [&rig, node] {
          rig.backhaul().set_node_up(node, true);
          rig.ap(1).restart();
        });
        rig.at(Time::ms(30), [&rig] { rig.stop(0, 1, 2); });
      },
      Time::ms(50));
}

TEST(DeferredDeliveryTest, DuplicatedDelayedAndReorderedCopies) {
  net::Backhaul::Config bh;
  net::FaultPlan& plan = bh.fault(net::MsgKind::kDownlinkData);
  plan.dup_rate = 0.2;
  plan.delay_rate = 0.2;
  plan.delay_max = Time::us(80);
  plan.reorder_rate = 0.2;
  plan.reorder_max = Time::us(120);
  expect_deferral_exact(
      [](FanoutRig& rig) {
        rig.stream(Time::ms(1), Time::us(20), 2000);
        rig.at(Time::ms(5), [&rig] { rig.start(2, 0, 1); });
        rig.at(Time::ms(25), [&rig] { rig.stop(2, 0, 2); });
        // Readers and a crash between settle points: a reordered copy must
        // not hold back the copies that arrive before it.
        for (int k = 0; k < 800; ++k) {
          rig.at(Time::ms(1) + Time::us(50) * k + Time::us(7),
                 [&rig] { rig.observe(); });
        }
        rig.at(Time::ms(15) + Time::us(3), [&rig] { rig.ap(1).crash(); });
        rig.at(Time::ms(17) + Time::us(3), [&rig] { rig.ap(1).restart(); });
      },
      Time::ms(60), bh);
}

TEST(DeferredDeliveryTest, MetricsAttachedMidRun) {
  obs::MetricsRegistry eager_registry;
  obs::MetricsRegistry deferred_registry;
  const auto script = [](obs::MetricsRegistry& registry) {
    return [&registry](FanoutRig& rig) {
      rig.stream(Time::ms(1), Time::us(20), 1500);
      rig.at(Time::ms(2), [&rig] { rig.start(1, 0, 1); });
      // Just before pump ticks, so copies are waiting in the inboxes.
      rig.at(Time::ms(10) + Time::us(900), [&rig, &registry] {
        for (int i = 0; i < FanoutRig::kAps; ++i) rig.ap(i).set_metrics(&registry);
      });
      rig.at(Time::ms(20) + Time::us(900), [&rig] {
        for (int i = 0; i < FanoutRig::kAps; ++i) rig.ap(i).set_metrics(nullptr);
      });
    };
  };
  {
    FanoutRig eager(false, {});
    script(eager_registry)(eager);
    const std::string eager_text = eager.run_and_describe(Time::ms(40));
    FanoutRig deferred(true, {});
    script(deferred_registry)(deferred);
    EXPECT_EQ(deferred.run_and_describe(Time::ms(40)), eager_text);
  }
  const obs::Histogram* h = deferred_registry.find_histogram("ap.cyclic_occupancy");
  ASSERT_NE(h, nullptr);
  EXPECT_GT(h->count(), 0u);
  EXPECT_EQ(deferred_registry.to_json(), eager_registry.to_json());
}

TEST(DeferredDeliveryTest, EqualTimeTiesAgainstRealEvents) {
  // No jitter: a copy sent at t arrives at exactly t + overhead +
  // serialization. Real events at that instant, scheduled before the send
  // (ordered before the copy) and after it (ordered after), crash, restart
  // and read the APs; each must see exactly what the copy's delivery event
  // order gives.
  net::Backhaul::Config bh;
  bh.jitter_max = Time::zero();
  expect_deferral_exact(
      [&bh](FanoutRig& rig) {
        const double bytes = static_cast<double>(
            data_packet(FanoutRig::kClient, Time::zero()).tunnel_bytes());
        const Time latency =
            bh.switch_overhead + Time::micros(bytes * 8.0 / bh.line_rate_mbps);
        for (int k = 0; k < 40; ++k) {
          const Time send = Time::ms(1) + Time::us(200) * k;
          const Time arrival = send + latency;
          rig.at(arrival, [&rig, k] {  // before the copy
            rig.observe();
            if (k % 4 == 1) rig.ap(2).crash();
          });
          rig.at(send, [&rig, arrival, k] {
            rig.fan_out();
            rig.at(arrival, [&rig, k] {  // after the copy
              rig.observe();
              if (k % 4 == 1) rig.ap(2).restart();
            });
          });
        }
      },
      Time::ms(20), bh);
}

}  // namespace
}  // namespace wgtt::ap
