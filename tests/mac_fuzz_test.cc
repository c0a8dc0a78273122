// Randomized invariant tests for the MAC: under arbitrary channel quality
// sequences, dynamic peers and BA injections, the MAC must (1) never
// deliver the same packet twice to the application, (2) never lose packets
// silently (every enqueued MPDU is eventually delivered, retry-dropped, or
// still queued), and (3) never wedge (traffic keeps flowing once the
// channel recovers).
#include <gtest/gtest.h>

#include <map>
#include <set>

#include "mac/medium.h"
#include "mac/wifi_mac.h"
#include "net/packet.h"
#include "sim/scheduler.h"
#include "util/rng.h"

namespace wgtt::mac {
namespace {

channel::CsiMeasurement flat_csi(double snr_db, Time when) {
  channel::CsiMeasurement m;
  m.when = when;
  m.subcarrier_snr_db.fill(snr_db);
  m.rssi_dbm = -94.0 + snr_db;
  return m;
}

class MacFuzz : public ::testing::TestWithParam<int> {};

TEST_P(MacFuzz, ConservationAndNoDuplicates) {
  const auto seed = static_cast<std::uint64_t>(GetParam());
  Rng rng(seed * 2654435761ULL + 11);

  sim::Scheduler sched;
  Medium medium(sched, {});

  // The channel quality is a shared variable the fuzzer mutates over time.
  auto snr = std::make_shared<double>(35.0);

  WifiMac::Config cfg;
  cfg.retry_limit = 1 + static_cast<int>(rng.uniform_int(6));
  cfg.hw_queue_capacity = 16 + rng.uniform_int(100);
  WifiMac tx(sched, medium, Rng{seed + 1}, cfg);
  WifiMac rx(sched, medium, Rng{seed + 2}, {});
  tx.attach([] { return channel::Vec2{0, 0}; });
  rx.attach([] { return channel::Vec2{5, 0}; });
  auto sampler = [&sched, snr](RadioId) { return flat_csi(*snr, sched.now()); };
  tx.set_channel_sampler(sampler);
  rx.set_channel_sampler(sampler);
  tx.add_peer(rx.radio());
  rx.add_peer(tx.radio());

  std::multiset<std::uint64_t> delivered_uids;
  rx.on_deliver = [&](RadioId, const net::Packet& p) {
    delivered_uids.insert(p.uid);
  };
  std::set<std::uint64_t> acked_uids;
  tx.on_mpdu_acked = [&](RadioId, std::uint16_t, const net::Packet& p) {
    // Transmit-side completion must be unique per packet too.
    EXPECT_TRUE(acked_uids.insert(p.uid).second)
        << "packet acked twice at tx side";
  };

  std::uint64_t enqueued = 0;
  std::uint64_t accepted = 0;
  for (int round = 0; round < 200; ++round) {
    // Mutate the channel: anywhere from dead to perfect.
    *snr = rng.uniform(-10.0, 40.0);
    // Offer a burst of packets.
    const int burst = static_cast<int>(rng.uniform_int(12));
    for (int i = 0; i < burst; ++i) {
      net::Packet p = net::make_packet();
      p.payload_bytes = 100 + rng.uniform_int(1300);
      ++enqueued;
      accepted += tx.enqueue(rx.radio(), std::move(p)) ? 1 : 0;
    }
    // Occasionally inject a (nonsense) forwarded BA: must never corrupt
    // state or cause duplicate completions.
    if (rng.chance(0.1)) {
      BaBitmap ba;
      ba.start_seq = static_cast<std::uint16_t>(rng.uniform_int(4096));
      ba.bits = rng.next_u64();
      tx.inject_block_ack(rx.radio(), ba);
    }
    sched.run_until(sched.now() + Time::millis(rng.uniform(1.0, 15.0)));
  }
  // Let everything settle on a good channel.
  *snr = 40.0;
  sched.run_until(sched.now() + Time::sec(2));

  // (1) No duplicate deliveries.
  for (const auto& uid : delivered_uids) {
    EXPECT_EQ(delivered_uids.count(uid), 1u) << "duplicate delivery";
  }
  // (2) Conservation: accepted = delivered-or-lost-to-retry + still queued.
  const auto& st = tx.stats(rx.radio());
  EXPECT_EQ(st.mpdus_enqueued, accepted);
  EXPECT_EQ(st.mpdus_delivered + st.mpdus_dropped_retry +
                tx.queue_depth(rx.radio()),
            accepted);
  EXPECT_EQ(st.enqueue_drops, enqueued - accepted);
  // (3) No wedge: on the recovered channel the queue drained fully.
  EXPECT_EQ(tx.queue_depth(rx.radio()), 0u);
  // Note: rx-side and tx-side delivery counts need not match exactly — a
  // lost BA can leave a delivered packet counted as retry-dropped at the
  // transmitter, and an injected (garbage) forwarded BA can complete a
  // packet the receiver never got. The invariants above are the ones the
  // design must guarantee.
}

INSTANTIATE_TEST_SUITE_P(Seeds, MacFuzz, ::testing::Range(0, 15));

}  // namespace
}  // namespace wgtt::mac
