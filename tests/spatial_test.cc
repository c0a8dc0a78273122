// Spatial interest management (DESIGN.md §9): proof that the road-segment
// index is purely an exactness-preserving accelerator, plus the city-scale
// pieces that ride on it (lazy channel matrix, distributed drive pattern).
//
// The load-bearing test is the 20-seed sweep: a full seeded drive with the
// index ON must produce a byte-identical `wgtt.metrics.v1` snapshot — every
// counter, gauge and histogram bucket — to the same drive with the index
// OFF. Any reordered event, extra RNG draw or changed candidate set anywhere
// in the hot path (medium fan-out, CSI sampling, ESNR argmax, downlink
// fan-out, invariant sweep) shows up as a diff here.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "bench/harness.h"
#include "core/esnr_tracker.h"
#include "mobility/trajectory.h"
#include "net/ids.h"
#include "scenario/testbed.h"
#include "scenario/wgtt_system.h"

namespace wgtt {
namespace {

using benchx::DriveConfig;
using benchx::DriveResult;
using benchx::Pattern;

/// Asserts two runs of the same drive agree on everything observable.
void expect_identical(const DriveResult& plain, const DriveResult& indexed,
                      const std::string& what) {
  EXPECT_EQ(plain.invariant_violations, 0u) << what;
  EXPECT_EQ(indexed.invariant_violations, 0u) << what;
  EXPECT_EQ(plain.switches, indexed.switches) << what;
  ASSERT_EQ(plain.clients.size(), indexed.clients.size()) << what;
  for (std::size_t c = 0; c < plain.clients.size(); ++c) {
    // Exact, not approximate: the same floating-point reductions must have
    // happened in the same order.
    EXPECT_EQ(plain.clients[c].mbps, indexed.clients[c].mbps)
        << what << " client " << c;
    EXPECT_EQ(plain.clients[c].bytes, indexed.clients[c].bytes)
        << what << " client " << c;
    EXPECT_EQ(plain.clients[c].accuracy, indexed.clients[c].accuracy)
        << what << " client " << c;
  }
  ASSERT_NE(plain.metrics, nullptr) << what;
  ASSERT_NE(indexed.metrics, nullptr) << what;
  EXPECT_EQ(plain.metrics->to_json(), indexed.metrics->to_json())
      << what << ": indexed run diverged from the brute-force snapshot";
}

TEST(SpatialEquivalenceTest, TwentySeedDrivesByteIdentical) {
  scenario::GeometryConfig geo;
  geo.num_aps = 4;  // short drive; 20 seeds x 2 runs must stay CI-friendly
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    DriveConfig base;
    base.mph = 25.0;
    base.udp_rate_mbps = 8.0;
    base.seed = seed;
    base.geometry = geo;
    base.collect_metrics = true;

    DriveConfig plain_cfg = base;
    plain_cfg.use_spatial_index = false;
    DriveConfig indexed_cfg = base;
    indexed_cfg.use_spatial_index = true;

    const DriveResult plain = benchx::run_drive(plain_cfg);
    const DriveResult indexed = benchx::run_drive(indexed_cfg);
    expect_identical(plain, indexed, "seed " + std::to_string(seed));
  }
}

TEST(SpatialEquivalenceTest, LargeArrayDistributedDrivesByteIdentical) {
  // The 64-AP end of the equivalence claim, under the city-scale drive
  // pattern: four clients spread along the array, each driving its own
  // 40 m span. At this scale the indexed medium fan-out visits < 1/4 of
  // the radios the brute scan does, so any filter bug would diverge fast.
  scenario::GeometryConfig geo;
  geo.num_aps = 64;
  for (std::uint64_t seed = 3; seed <= 4; ++seed) {
    DriveConfig base;
    base.mph = 25.0;
    base.udp_rate_mbps = 4.0;
    base.seed = seed;
    base.num_clients = 4;
    base.pattern = Pattern::kDistributed;
    base.drive_span_m = 40.0;
    base.geometry = geo;
    base.collect_metrics = true;

    DriveConfig plain_cfg = base;
    plain_cfg.use_spatial_index = false;
    DriveConfig indexed_cfg = base;
    indexed_cfg.use_spatial_index = true;

    const DriveResult plain = benchx::run_drive(plain_cfg);
    const DriveResult indexed = benchx::run_drive(indexed_cfg);
    expect_identical(plain, indexed, "64-AP seed " + std::to_string(seed));
  }
}

TEST(SpatialEquivalenceTest, CandidateSetsMatchBruteForceStepByStep) {
  // Two fully wired systems over the same seed — index on vs off — stepped
  // in lockstep. At every sample instant the controller-visible candidate
  // state (serving AP, fan-out set, selection argmax, optimal-AP ground
  // truth) must agree element for element.
  scenario::WgttSystemConfig on_cfg;
  on_cfg.spatial.use_index = true;
  scenario::WgttSystemConfig off_cfg;
  off_cfg.spatial.use_index = false;

  scenario::WgttSystem on_sys(on_cfg);
  scenario::WgttSystem off_sys(off_cfg);
  EXPECT_EQ(on_sys.spatial_index().num_aps(), on_sys.num_aps());
  EXPECT_TRUE(off_sys.spatial_index().empty());

  mobility::LineDrive car0(-15.0, 0.0, 11.0);
  mobility::LineDrive car1(20.0, 0.0, -8.0);
  for (auto* sys : {&on_sys, &off_sys}) {
    sys->add_client(&car0);
    sys->add_client(&car1);
    sys->start();
  }

  for (Time t = Time::ms(50); t <= Time::sec(3); t += Time::ms(50)) {
    on_sys.run_until(t);
    off_sys.run_until(t);
    for (int c = 0; c < 2; ++c) {
      const net::ClientId id{static_cast<std::uint32_t>(c)};
      EXPECT_EQ(on_sys.serving_ap(c), off_sys.serving_ap(c))
          << "t=" << t.to_millis() << " client " << c;
      EXPECT_EQ(on_sys.optimal_ap(c, t), off_sys.optimal_ap(c, t))
          << "t=" << t.to_millis() << " client " << c;
      EXPECT_EQ(off_sys.optimal_ap(c, t), off_sys.geometry().optimal_ap(c, t));
      EXPECT_EQ(on_sys.controller().tracker().fresh_aps(id, t, Time::ms(200)),
                off_sys.controller().tracker().fresh_aps(id, t, Time::ms(200)))
          << "t=" << t.to_millis() << " client " << c;
      EXPECT_EQ(on_sys.controller().tracker().best_ap(id, t),
                off_sys.controller().tracker().best_ap(id, t))
          << "t=" << t.to_millis() << " client " << c;
    }
  }
  const scenario::InvariantReport on_rep = on_sys.check_invariants();
  const scenario::InvariantReport off_rep = off_sys.check_invariants();
  EXPECT_EQ(on_rep.violations, off_rep.violations);
  EXPECT_TRUE(on_rep.ok());
}

TEST(SpatialEquivalenceTest, PrunedOptimalApMatchesBruteScanEvery10ms) {
  // The accuracy probe's bound-pruned argmax against a full ESNR scan over
  // the same candidates, index on and off: a car crossing the array, a
  // client parked under AP 3 (its ESNR hits the 45 dB clamp) and a client
  // out of range of every AP (ESNRs at or near the -30 dB floor).
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    for (const bool use_index : {false, true}) {
      scenario::WgttSystemConfig cfg;
      cfg.geometry.seed = seed;
      cfg.spatial.use_index = use_index;
      scenario::WgttSystem sys(cfg);
      mobility::LineDrive car(-15.0, 0.0, mph_to_mps(25.0));
      mobility::StaticPosition under_ap({22.5, 14.0});
      mobility::StaticPosition out_of_range({-400.0, 0.0});
      sys.add_client(&car);
      sys.add_client(&under_ap);
      sys.add_client(&out_of_range);
      const auto& geo = sys.geometry();
      // WgttSystem::optimal_ap's candidates: every AP without the index;
      // with it, the APs within sense range plus the 5 m reach margin, or
      // the nearest AP when there are none.
      const double reach = cfg.medium.sense_range_m + 5.0;
      int clamped = 0;
      for (Time t = Time::zero(); t < Time::sec(6); t += Time::ms(10)) {
        for (int c = 0; c < 3; ++c) {
          const double x = geo.client_position(c, t).x;
          std::vector<int> candidates;
          if (use_index) {
            candidates = sys.spatial_index().neighbors(x, reach);
          } else {
            for (int ap = 0; ap < geo.num_aps(); ++ap) candidates.push_back(ap);
          }
          int expected = use_index ? sys.spatial_index().nearest(x) : -1;
          double best_esnr = -std::numeric_limits<double>::infinity();
          for (const int ap : candidates) {
            const double e = geo.esnr_db(ap, c, t);
            if (e > best_esnr) {
              best_esnr = e;
              expected = ap;
            }
          }
          if (best_esnr == 45.0) ++clamped;
          ASSERT_EQ(sys.optimal_ap(c, t), expected)
              << "seed " << seed << " index " << use_index << " client " << c
              << " t=" << t.to_millis();
        }
      }
      EXPECT_GT(clamped, 0) << "seed " << seed;
    }
  }
}

TEST(CityScaleTest, LazyLinksDeterministicAndAccessOrderIndependent) {
  // Lazy links draw each (AP, client) channel from a private RNG seeded by
  // (geometry seed, ap, client): the realization must be a pure function of
  // configuration, never of which link was touched first.
  scenario::GeometryConfig cfg;
  cfg.lazy_links = true;
  cfg.seed = 5;
  mobility::StaticPosition parked({20.0, 0.0});

  scenario::TestbedGeometry forward(cfg);
  scenario::TestbedGeometry backward(cfg);
  forward.add_client(&parked);
  backward.add_client(&parked);
  const Time t = Time::ms(100);
  std::vector<double> fwd;
  for (int ap = 0; ap < forward.num_aps(); ++ap) {
    fwd.push_back(forward.esnr_db(ap, 0, t));
  }
  for (int ap = backward.num_aps() - 1; ap >= 0; --ap) {
    EXPECT_EQ(backward.esnr_db(ap, 0, t), fwd[static_cast<std::size_t>(ap)])
        << "ap " << ap << ": realization depended on access order";
  }
  // And on a re-run with the same config, the realization repeats exactly.
  scenario::TestbedGeometry again(cfg);
  again.add_client(&parked);
  for (int ap = 0; ap < again.num_aps(); ++ap) {
    EXPECT_EQ(again.esnr_db(ap, 0, t), fwd[static_cast<std::size_t>(ap)]);
  }
}

TEST(CityScaleTest, DistributedPatternDrivesClean) {
  // Smoke for the city bench's exact knob combination at a CI-sized scale:
  // distributed clients, lazy links, bounded fallback, spatial index on.
  scenario::GeometryConfig geo;
  geo.num_aps = 16;
  geo.lazy_links = true;
  DriveConfig cfg;
  cfg.mph = 15.0;
  cfg.udp_rate_mbps = 4.0;
  cfg.seed = 11;
  cfg.num_clients = 4;
  cfg.pattern = Pattern::kDistributed;
  cfg.drive_span_m = 40.0;
  cfg.bounded_fallback = true;
  cfg.geometry = geo;
  const DriveResult r = benchx::run_drive(cfg);
  EXPECT_EQ(r.invariant_violations, 0u);
  ASSERT_EQ(r.clients.size(), 4u);
  for (std::size_t c = 0; c < r.clients.size(); ++c) {
    EXPECT_GT(r.clients[c].mbps, 0.0) << "client " << c;
  }
  // kDistributed sets the horizon to drive_span / speed, so every client
  // stays in-array for the whole run.
  EXPECT_NEAR(r.duration_s, 40.0 / (15.0 * 0.44704), 0.5);
}

}  // namespace
}  // namespace wgtt
