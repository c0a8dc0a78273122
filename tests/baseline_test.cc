// Tests for the Enhanced 802.11r baseline: beacon-driven association, the
// below-threshold time hysteresis, the stock-802.11r slow-decision mode,
// and the distribution router.
#include <gtest/gtest.h>

#include <memory>

#include "baseline/baseline_ap.h"
#include "baseline/baseline_client.h"
#include "baseline/router.h"
#include "mobility/trajectory.h"
#include "scenario/baseline_system.h"
#include "transport/udp.h"

namespace wgtt::baseline {
namespace {

using net::ApId;
using net::ClientId;

// The full BaselineSystem wires geometry + channels; using it keeps these
// tests at the public-API level.
scenario::BaselineSystemConfig test_config(std::uint64_t seed) {
  scenario::BaselineSystemConfig cfg;
  cfg.geometry.seed = seed;
  return cfg;
}

TEST(BaselineClientTest, AssociatesToNearestApWhenParked) {
  scenario::BaselineSystem sys(test_config(3));
  mobility::StaticPosition pos({15.0, 0.0});  // AP2 boresight
  const int c = sys.add_client(&pos);
  sys.start();
  sys.run_until(Time::sec(2));
  EXPECT_EQ(sys.serving_ap(c), 2);
  EXPECT_EQ(sys.client(c).stats().handovers_completed, 1u);
}

TEST(BaselineClientTest, StaysPutWhileRssiAboveThreshold) {
  scenario::BaselineSystem sys(test_config(4));
  mobility::StaticPosition pos({22.5, 0.0});
  const int c = sys.add_client(&pos);
  sys.start();
  sys.run_until(Time::sec(10));
  // A parked client at a boresight never crosses the threshold: exactly the
  // initial association, no ping-pong.
  EXPECT_EQ(sys.client(c).stats().handovers_completed, 1u);
}

TEST(BaselineClientTest, HandsOverWhenDriving) {
  scenario::BaselineSystem sys(test_config(5));
  mobility::LineDrive drive(-10.0, 0.0, mph_to_mps(15.0));
  const int c = sys.add_client(&drive);
  sys.start();
  const Time horizon = Time::seconds(70.0 / mph_to_mps(15.0));
  sys.run_until(horizon);
  // Crossing eight cells forces several (but, with 1 s hysteresis, not
  // dozens of) handovers.
  const auto& st = sys.client(c).stats();
  EXPECT_GE(st.handovers_completed, 4u);
  EXPECT_LE(st.handovers_completed, 12u);
}

TEST(BaselineClientTest, StockModeSwitchesFarLessAtSpeed) {
  // The §2 experiment: a 5 s decision history at 20 mph means the client
  // leaves the cell before it ever decides to switch.
  auto cfg = test_config(6);
  cfg.client.below_threshold_persistence = Time::sec(5);  // stock 802.11r
  // Stock clients also react slowly to total beacon loss (background scan
  // intervals are seconds).
  cfg.client.beacon_staleness = Time::sec(3);
  scenario::BaselineSystem sys(cfg);
  mobility::LineDrive drive(-10.0, 0.0, mph_to_mps(20.0));
  const int c = sys.add_client(&drive);
  sys.start();
  sys.run_until(Time::seconds(70.0 / mph_to_mps(20.0)));
  // Only the initial association (plus at most a beacon-staleness rescue).
  EXPECT_LE(sys.client(c).stats().handovers_completed, 3u);
}

TEST(BaselineClientTest, UplinkRequiresAssociation) {
  scenario::BaselineSystem sys(test_config(7));
  mobility::StaticPosition pos({15.0, 0.0});
  const int c = sys.add_client(&pos);
  sys.start();
  int uplinks = 0;
  sys.on_server_uplink = [&](const net::Packet&) { ++uplinks; };
  // Before any beacons have been processed, uplink is dropped silently.
  net::Packet p = net::make_packet();
  p.proto = net::Proto::kUdp;
  p.payload_bytes = 100;
  sys.client(c).send_uplink(p);
  sys.run_until(Time::ms(1));
  EXPECT_EQ(uplinks, 0);
  // Once associated, uplink flows.
  sys.run_until(Time::sec(2));
  net::Packet q = net::make_packet();
  q.proto = net::Proto::kUdp;
  q.payload_bytes = 100;
  sys.client(c).send_uplink(q);
  sys.run_until(Time::sec(2) + Time::ms(100));
  EXPECT_EQ(uplinks, 1);
}

TEST(RouterTest, RoutesDownlinkToAssociatedApOnly) {
  scenario::BaselineSystem sys(test_config(8));
  mobility::StaticPosition pos({0.0, 0.0});  // AP0
  const int c = sys.add_client(&pos);
  sys.start();
  sys.run_until(Time::sec(2));
  ASSERT_EQ(sys.serving_ap(c), 0);
  int delivered = 0;
  sys.client(c).on_downlink = [&](const net::Packet&) { ++delivered; };
  for (int i = 0; i < 5; ++i) {
    net::Packet p = net::make_packet();
    p.client = ClientId{0};
    p.proto = net::Proto::kUdp;
    p.payload_bytes = 1000;
    p.created = sys.now();
    sys.server_send(std::move(p));
  }
  sys.run_until(Time::sec(2) + Time::ms(200));
  EXPECT_EQ(delivered, 5);
  EXPECT_EQ(sys.ap(0).stats().downlink_received, 5u);
  for (int i = 1; i < sys.num_aps(); ++i) {
    EXPECT_EQ(sys.ap(i).stats().downlink_received, 0u) << "AP" << i;
  }
}

TEST(RouterTest, DropsDownlinkForUnassociatedClient) {
  scenario::BaselineSystem sys(test_config(9));
  mobility::StaticPosition pos({0.0, 0.0});
  sys.add_client(&pos);
  // Not started: no association ever happens.
  net::Packet p = net::make_packet();
  p.client = ClientId{0};
  sys.server_send(std::move(p));
  sys.run_until(Time::ms(100));
  EXPECT_EQ(sys.router().stats().downlink_dropped_unassociated, 1u);
}

TEST(RouterTest, AssociationMoveNotifiesOldAp) {
  scenario::BaselineSystem sys(test_config(10));
  mobility::LineDrive drive(0.0, 0.0, mph_to_mps(25.0));
  sys.add_client(&drive);
  sys.start();
  sys.run_until(Time::sec(4));
  // The client has moved down the road and re-associated at least once; the
  // router saw the moves, and the first AP is no longer "associated".
  EXPECT_GE(sys.router().stats().association_moves, 2u);
  EXPECT_FALSE(sys.ap(0).associated(ClientId{0}));
}

TEST(BaselineEndToEnd, UdpFlowsWhileDriving) {
  scenario::BaselineSystem sys(test_config(11));
  mobility::LineDrive drive(-10.0, 0.0, mph_to_mps(15.0));
  const int c = sys.add_client(&drive);
  sys.start();
  transport::UdpSink sink;
  sys.client(c).on_downlink = [&](const net::Packet& p) {
    sink.on_packet(sys.now(), p);
  };
  transport::UdpSource src(
      sys.sched(),
      [&](net::Packet p) {
        p.client = ClientId{0};
        sys.server_send(std::move(p));
      },
      {.rate_mbps = 10.0, .client = ClientId{0}});
  src.start();
  const Time horizon = Time::seconds(70.0 / mph_to_mps(15.0));
  sys.run_until(horizon);
  // The baseline delivers something, but well below the offered rate (it
  // wastes the tail of every cell — the paper's core complaint).
  const double mbps = sink.throughput().average_mbps(Time::zero(), horizon);
  EXPECT_GT(mbps, 0.5);
  EXPECT_LT(mbps, 9.5);
}

TEST(ViFiSalvage, RecoversUplinkLostToTheServingAp) {
  // Same world, uplink UDP, with and without ViFi-style salvaging: salvage
  // must strictly help (more packets reach the server) and the router must
  // de-duplicate the fan-in.
  auto run = [](bool salvage) {
    net::reset_packet_uids();
    auto cfg = test_config(12);
    cfg.vifi_uplink_salvage = salvage;
    scenario::BaselineSystem sys(cfg);
    mobility::LineDrive drive(-10.0, 0.0, mph_to_mps(15.0));
    const int c = sys.add_client(&drive);
    sys.start();
    int received = 0;
    sys.on_server_uplink = [&](const net::Packet&) { ++received; };
    transport::UdpSource src(
        sys.sched(),
        [&](net::Packet p) { sys.client(c).send_uplink(std::move(p)); },
        {.rate_mbps = 5.0, .client = net::ClientId{0}, .downlink = false});
    src.start();
    sys.run_until(Time::sec(9));
    return std::pair<int, std::uint64_t>(
        received, sys.router().stats().uplink_duplicates_dropped);
  };
  const auto [plain, plain_dups] = run(false);
  const auto [salvaged, salvage_dups] = run(true);
  EXPECT_GT(salvaged, plain);
  EXPECT_EQ(plain_dups, 0u);       // single path: nothing to de-dup
  EXPECT_GT(salvage_dups, 0u);     // fan-in de-duplicated, not delivered twice
}

}  // namespace
}  // namespace wgtt::baseline
