// Unit tests for the PHY layer: MCS table, BER/ESNR math, delivery
// probability, airtime accounting, and rate control.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <vector>

#include "channel/link_channel.h"
#include "phy/airtime.h"
#include "phy/esnr.h"
#include "phy/mcs.h"
#include "phy/rate_control.h"
#include "util/rng.h"
#include "util/units.h"

namespace wgtt::phy {
namespace {

std::vector<double> flat_csi(double snr_db) {
  return std::vector<double>(static_cast<std::size_t>(kNumSubcarriers), snr_db);
}

TEST(McsTest, TableShape) {
  EXPECT_EQ(all_mcs().size(), 8u);
  // Rates strictly increase with index, as do sensitivity thresholds.
  for (int i = 1; i < kNumMcs; ++i) {
    EXPECT_GT(mcs_info(static_cast<Mcs>(i)).data_rate_mbps,
              mcs_info(static_cast<Mcs>(i - 1)).data_rate_mbps);
    EXPECT_GT(mcs_info(static_cast<Mcs>(i)).min_esnr_db,
              mcs_info(static_cast<Mcs>(i - 1)).min_esnr_db);
  }
  // Top rate matches the paper's "around 70 Mbit/s" (MCS7 short GI).
  EXPECT_NEAR(mcs_info(Mcs::kMcs7).data_rate_mbps, 72.2, 1e-9);
}

TEST(McsTest, HighestMcsForEsnr) {
  EXPECT_EQ(highest_mcs_for_esnr(-10.0), Mcs::kMcs0);
  EXPECT_EQ(highest_mcs_for_esnr(100.0), Mcs::kMcs7);
  EXPECT_EQ(highest_mcs_for_esnr(13.0), Mcs::kMcs3);
  EXPECT_EQ(highest_mcs_for_esnr(13.0, 5.0), Mcs::kMcs1);  // margin derates
}

TEST(McsTest, ModulationBits) {
  EXPECT_EQ(bits_per_symbol(Modulation::kBpsk), 1);
  EXPECT_EQ(bits_per_symbol(Modulation::kQam64), 6);
  EXPECT_EQ(to_string(Modulation::kQam16), "16-QAM");
}

TEST(BerTest, MonotoneDecreasingInSnr) {
  for (auto m : {Modulation::kBpsk, Modulation::kQpsk, Modulation::kQam16,
                 Modulation::kQam64}) {
    double prev = bit_error_rate(m, 0.01);
    for (double snr = 0.1; snr < 1e5; snr *= 3.0) {
      const double cur = bit_error_rate(m, snr);
      EXPECT_LE(cur, prev + 1e-15);
      prev = cur;
    }
  }
}

TEST(BerTest, HigherOrderModulationWorseAtSameSnr) {
  const double snr = from_db(12.0);
  EXPECT_LT(bit_error_rate(Modulation::kBpsk, snr),
            bit_error_rate(Modulation::kQpsk, snr));
  EXPECT_LT(bit_error_rate(Modulation::kQpsk, snr),
            bit_error_rate(Modulation::kQam16, snr));
  EXPECT_LT(bit_error_rate(Modulation::kQam16, snr),
            bit_error_rate(Modulation::kQam64, snr));
}

TEST(BerTest, KnownBpskPoint) {
  // BPSK at 9.6 dB -> BER ~1e-5 (textbook).
  const double ber = bit_error_rate(Modulation::kBpsk, from_db(9.6));
  EXPECT_GT(ber, 1e-6);
  EXPECT_LT(ber, 1e-4);
}

TEST(SnrForBerTest, InverseOfBer) {
  for (auto m : {Modulation::kBpsk, Modulation::kQpsk, Modulation::kQam16,
                 Modulation::kQam64}) {
    for (double target : {1e-2, 1e-3, 1e-5}) {
      const double snr = snr_for_ber(m, target);
      EXPECT_NEAR(bit_error_rate(m, snr), target, target * 0.05);
    }
  }
  EXPECT_THROW((void)snr_for_ber(Modulation::kBpsk, 0.0), std::invalid_argument);
}

// snr_for_ber before its bracketed form: the plain 48-step bisection. The
// bracket must reproduce it bit for bit.
double reference_snr_for_ber(Modulation m, double ber) {
  const double target = std::min(ber, 0.5);
  double lo = 1e-3;
  double hi = 1e6;
  if (bit_error_rate(m, lo) <= target) return lo;
  if (bit_error_rate(m, hi) >= target) return hi;
  for (int it = 0; it < 48; ++it) {
    const double mid = std::sqrt(lo * hi);
    if (bit_error_rate(m, mid) > target) {
      lo = mid;
    } else {
      hi = mid;
    }
  }
  return std::sqrt(lo * hi);
}

TEST(SnrForBerTest, BracketedInversionIsBitIdenticalToBisection) {
  constexpr Modulation kModulations[] = {Modulation::kBpsk, Modulation::kQpsk,
                                         Modulation::kQam16,
                                         Modulation::kQam64};
  std::vector<std::pair<Modulation, double>> targets;
  // Mean BERs of real CSI, as effective_snr_db inverts them: links under
  // the AP, along the road and beyond sense range.
  channel::LinkChannel::Config cfg;
  for (std::uint64_t seed = 1; seed <= 12; ++seed) {
    Rng rng(seed);
    const channel::Vec2 ap{0.0, seed % 2 == 0 ? 15.0 : 3.0};
    const channel::LinkChannel link(ap, {0.0, 0.0}, cfg, rng);
    Rng draw(seed + 500);
    for (int s = 0; s < 2000; ++s) {
      const double reach = s % 3 == 0 ? 10.0 : (s % 3 == 1 ? 150.0 : 600.0);
      const channel::Vec2 pos{draw.uniform(-reach, reach),
                              draw.uniform(-3.0, 3.0)};
      const auto csi = link.measure(pos, Time::millis(draw.uniform(0.0, 1e4)));
      for (const Modulation m : kModulations) {
        double mean = 0.0;
        for (const double db : csi.subcarrier_snr_db) {
          mean += bit_error_rate(m, from_db(db));
        }
        mean /= static_cast<double>(csi.subcarrier_snr_db.size());
        if (mean > 0.0) targets.emplace_back(m, mean);
      }
    }
  }
  // Log-uniform targets from 1e-13 to 0.6, past every modulation's top BER.
  Rng draw(99);
  for (int i = 0; i < 920'000; ++i) {
    targets.emplace_back(kModulations[i % 4],
                         std::pow(10.0, draw.uniform(-13.0, std::log10(0.6))));
  }
  // Edges: the cap, QAM targets above scale * 0.5, both range ends, the
  // 45 dB clamp's threshold, and tiny values down to the least subnormal.
  for (const Modulation m : kModulations) {
    for (const double t :
         {0.5, 0.4, 0.3, 0.2917, bit_error_rate(m, 1e-3),
          std::nextafter(bit_error_rate(m, 1e-3), 0.0),
          std::nextafter(bit_error_rate(m, 1e-3), 1.0), bit_error_rate(m, 1e6),
          bit_error_rate(m, 5e2), bit_error_rate(m, 2e3), 1e-12, 1e-100,
          1e-250, 1e-260, 1e-300, std::numeric_limits<double>::min(),
          std::numeric_limits<double>::denorm_min()}) {
      if (t > 0.0) targets.emplace_back(m, t);
    }
  }
  ASSERT_GE(targets.size(), 1'000'000u);
  std::size_t mismatches = 0;
  std::uint64_t evaluations = 0;
  for (const auto& [m, t] : targets) {
    int n = 0;
    const double got = snr_for_ber(m, t, n);
    evaluations += static_cast<std::uint64_t>(n);
    const double want = reference_snr_for_ber(m, t);
    if (std::bit_cast<std::uint64_t>(got) != std::bit_cast<std::uint64_t>(want)) {
      if (++mismatches <= 10) {
        ADD_FAILURE() << to_string(m) << " target " << t << ": " << got
                      << " vs " << want;
      }
    }
  }
  EXPECT_EQ(mismatches, 0u);
  // A looser bracket stays exact but shows here: ~49.5 without one.
  const double mean = static_cast<double>(evaluations) /
                      static_cast<double>(targets.size());
  EXPECT_LE(mean, 12.0);
  std::printf("%zu targets, %.2f BER evaluations per inversion\n",
              targets.size(), mean);
}

TEST(EsnrTest, FlatChannelEsnrEqualsSnr) {
  // Stay below each modulation's BER floor (where the inverse map
  // saturates and ESNR reports its ceiling).
  for (double snr_db : {2.0, 6.0, 10.0}) {
    EXPECT_NEAR(effective_snr_db(flat_csi(snr_db), Modulation::kBpsk), snr_db, 0.1);
  }
  for (double snr_db : {5.0, 10.0, 13.0}) {
    EXPECT_NEAR(effective_snr_db(flat_csi(snr_db), Modulation::kQpsk), snr_db, 0.1);
  }
  for (double snr_db : {10.0, 15.0, 20.0}) {
    EXPECT_NEAR(effective_snr_db(flat_csi(snr_db), Modulation::kQam16), snr_db, 0.1);
  }
  for (double snr_db : {15.0, 20.0, 25.0}) {
    EXPECT_NEAR(effective_snr_db(flat_csi(snr_db), Modulation::kQam64), snr_db, 0.1);
  }
}

TEST(EsnrTest, FadedSubcarriersDragEsnrBelowMeanSnr) {
  // Half the subcarriers at 25 dB, half at 5 dB: mean SNR (dB of mean
  // power) ~22 dB, but ESNR is dominated by the faded half.
  std::vector<double> csi = flat_csi(25.0);
  for (std::size_t i = 0; i < csi.size(); i += 2) csi[i] = 5.0;
  const double esnr = effective_snr_db(csi, Modulation::kQam16);
  EXPECT_LT(esnr, 12.0);
  EXPECT_GT(esnr, 4.0);
}

TEST(EsnrTest, EmptyCsisThrow) {
  EXPECT_THROW((void)effective_snr_db({}, Modulation::kBpsk), std::invalid_argument);
}

TEST(EsnrTest, MetricIsMonotoneInUniformSnr) {
  double prev = -100.0;
  for (double snr_db = -5.0; snr_db <= 40.0; snr_db += 2.5) {
    const double e = esnr_metric_db(flat_csi(snr_db));
    EXPECT_GE(e, prev - 1e-9);
    prev = e;
  }
}

TEST(DeliveryProbabilityTest, MonotoneInEsnr) {
  for (const auto& info : all_mcs()) {
    double prev = -1.0;
    for (double esnr = -5.0; esnr <= 40.0; esnr += 1.0) {
      const double p = mpdu_delivery_probability(esnr, info.index, 1500);
      EXPECT_GE(p, prev - 1e-12);
      EXPECT_GE(p, 0.0);
      EXPECT_LE(p, 1.0);
      prev = p;
    }
  }
}

TEST(DeliveryProbabilityTest, SensitivityPointIsHalfForReferenceLength) {
  for (const auto& info : all_mcs()) {
    const double p = mpdu_delivery_probability(info.min_esnr_db, info.index, 1500);
    EXPECT_NEAR(p, 0.5, 1e-9);
  }
}

TEST(DeliveryProbabilityTest, LongerFramesFailMore) {
  const double esnr = mcs_info(Mcs::kMcs4).min_esnr_db + 1.0;
  const double p_short = mpdu_delivery_probability(esnr, Mcs::kMcs4, 200);
  const double p_long = mpdu_delivery_probability(esnr, Mcs::kMcs4, 1500);
  EXPECT_GT(p_short, p_long);
}

TEST(DeliveryProbabilityTest, HighSnrNearCertain) {
  EXPECT_GT(mpdu_delivery_probability(flat_csi(35.0), Mcs::kMcs7, 1500), 0.95);
  EXPECT_LT(mpdu_delivery_probability(flat_csi(0.0), Mcs::kMcs7, 1500), 0.01);
}

TEST(DeliveryProbabilityTest, PositiveAtEsnrFloorUpToMaxLength) {
  // The MAC's bound-first decode counts on one RNG draw per MPDU, so no
  // probability it can meet may underflow to 0.
  for (const auto& info : all_mcs()) {
    EXPECT_GT(mpdu_delivery_probability(kEsnrFloorDb, info.index,
                                        kMaxPositivePsduBytes),
              0.0);
  }
}

TEST(EsnrCeilingTest, BoundsFlatChannelAndGuardsTheClamp) {
  // A flat channel at the peak SNR has the highest ESNR of every CSI vector
  // under that peak, and is the first to reach the 45 dB clamp: the worst
  // case of the bound.
  for (const Modulation m : {Modulation::kBpsk, Modulation::kQpsk,
                             Modulation::kQam16, Modulation::kQam64}) {
    double first_infinite = 0.0;
    int finite = 0;
    for (int i = -4000; i <= 5000; ++i) {
      const double peak = i * 0.01;
      const double ceiling = esnr_ceiling_db(m, peak);
      if (std::isinf(ceiling)) {
        if (first_infinite == 0.0) first_infinite = peak;
        continue;
      }
      ASSERT_EQ(first_infinite, 0.0) << "finite again above the guard";
      ASSERT_LE(effective_snr_db(flat_csi(peak), m), ceiling)
          << to_string(m) << " at " << peak << " dB";
      ++finite;
    }
    EXPECT_GT(finite, 0) << to_string(m);
    // The guard sits within 1.5 dB of the clamp: not needlessly loose.
    ASSERT_NE(first_infinite, 0.0) << to_string(m);
    EXPECT_EQ(effective_snr_db(flat_csi(first_infinite + 1.5), m), 45.0)
        << to_string(m);
  }
}

TEST(ExpectedGoodputTest, PrefersRobustRateAtLowSnr) {
  // At 8 dB, MCS7's goodput collapses while MCS1's survives.
  const auto csi = flat_csi(8.0);
  EXPECT_GT(expected_goodput_mbps(csi, Mcs::kMcs1, 1500),
            expected_goodput_mbps(csi, Mcs::kMcs7, 1500));
}

TEST(AirtimeTest, PayloadRoundsToSymbols) {
  // 1 byte at MCS0 (7.2 Mbit/s): ~1.1 us -> rounds up to one 4 us symbol.
  const Time t = mpdu_duration(Mcs::kMcs0, 1);
  EXPECT_EQ(t, default_timings().ht_preamble + Time::us(4));
}

TEST(AirtimeTest, HigherMcsIsFaster) {
  const Time slow = ampdu_duration(Mcs::kMcs0, 10'000);
  const Time fast = ampdu_duration(Mcs::kMcs7, 10'000);
  EXPECT_LT(fast, slow);
}

TEST(AirtimeTest, AggregationAmortizesPreamble) {
  // 10 MPDUs aggregated cost far less than 10 singles.
  const Time aggregated = ampdu_duration(Mcs::kMcs7, 15'000);
  const Time singles = mpdu_duration(Mcs::kMcs7, 1'500) * 10;
  EXPECT_LT(aggregated, singles);
}

TEST(AirtimeTest, ControlFrameDurations) {
  EXPECT_GT(block_ack_duration(), Time::zero());
  EXPECT_LT(block_ack_duration(), Time::us(100));
  EXPECT_GT(beacon_duration(), ack_duration());
}

TEST(AirtimeTest, TxopComposition) {
  const Time t = txop_duration(Mcs::kMcs7, 1500, 0);
  const auto& tm = default_timings();
  EXPECT_EQ(t, tm.difs + ampdu_duration(Mcs::kMcs7, 1500) + tm.sifs +
                   block_ack_duration());
  EXPECT_EQ(txop_duration(Mcs::kMcs7, 1500, 3) - t, tm.slot * 3);
}

TEST(MinstrelTest, ConvergesToBestRate) {
  MinstrelLite::Config cfg;
  cfg.sample_fraction = 0.0;  // deterministic for the test
  MinstrelLite rc(cfg, Rng{3});
  // Feed feedback as if MCS4 succeeds fully and anything above fails.
  for (int round = 0; round < 300; ++round) {
    const Mcs pick = rc.select();
    const bool ok = static_cast<int>(pick) <= 4;
    rc.report(pick, 10, ok ? 10 : 0);
  }
  EXPECT_EQ(rc.select(), Mcs::kMcs4);
  EXPECT_GT(rc.success_estimate(Mcs::kMcs4), 0.9);
}

TEST(MinstrelTest, SamplesOtherRates) {
  MinstrelLite::Config cfg;
  cfg.sample_fraction = 0.5;
  MinstrelLite rc(cfg, Rng{4});
  bool saw_non_best = false;
  for (int i = 0; i < 200; ++i) {
    if (rc.select() != Mcs::kMcs7) {
      // With equal initial success the best-throughput pick is MCS7; any
      // other pick is a sample.
      saw_non_best = true;
    }
  }
  EXPECT_TRUE(saw_non_best);
}

TEST(EsnrSelectorTest, TracksCsi) {
  EsnrRateSelector rc(1500, /*margin_db=*/0.0);
  rc.observe_csi(flat_csi(35.0));
  EXPECT_EQ(rc.select(), Mcs::kMcs7);
  rc.observe_csi(flat_csi(10.0));
  const Mcs low = rc.select();
  EXPECT_LE(static_cast<int>(low), 2);
}

TEST(EsnrSelectorTest, MarginDerates) {
  EsnrRateSelector no_margin(1500, 0.0);
  EsnrRateSelector margin(1500, 6.0);
  no_margin.observe_csi(flat_csi(24.0));
  margin.observe_csi(flat_csi(24.0));
  EXPECT_LT(static_cast<int>(margin.select()),
            static_cast<int>(no_margin.select()));
}

TEST(EsnrSelectorTest, RetreatsAfterSustainedFailure) {
  EsnrRateSelector rc(1500, 0.0);
  rc.observe_csi(flat_csi(30.0));
  const Mcs initial = rc.select();
  for (int i = 0; i < 10; ++i) rc.report(rc.select(), 10, 0);
  EXPECT_LT(static_cast<int>(rc.select()), static_cast<int>(initial));
}

TEST(EsnrSelectorTest, PicksTheExpectedGoodputArgmax) {
  // observe_csi shares one ESNR among the MCSs of a modulation and skips
  // modulations whose goodput ceiling is below the best exact goodput; its
  // choice must be the argmax of expected_goodput_mbps over every MCS, the
  // lowest MCS among exact maxima.
  Rng rng(42);
  int ties = 0;
  int floor_ties = 0;
  for (int trial = 0; trial < 2400; ++trial) {
    std::vector<double> csi(static_cast<std::size_t>(kNumSubcarriers));
    // Every regime: below the -30 dB floor, the waterfalls, and the 45 dB
    // clamp; a long reference frame makes p underflow to exact zeros.
    const double centre = rng.uniform(-70.0, 55.0);
    const double spread = trial % 3 == 0 ? 0.0 : rng.uniform(0.0, 20.0);
    for (double& s : csi) s = centre + rng.uniform(-spread, spread * 0.5);
    if (trial % 5 == 1) {
      // A few strong subcarriers over a dead channel: high goodput
      // ceilings, an ESNR on the floor, so a high modulation is visited
      // first and ties with lower ones.
      for (std::size_t k = 0; k < csi.size(); k += 9) {
        csi[k] = rng.uniform(20.0, 40.0);
      }
    }
    const double margin = trial % 2 == 0 ? 2.5 : rng.uniform(0.0, 6.0);
    const std::size_t bytes =
        trial % 4 == 0 ? 65'535 : static_cast<std::size_t>(rng.uniform(40, 4000));
    std::vector<double> derated = csi;
    for (double& s : derated) s -= margin;
    double best_goodput = -1.0;
    Mcs best = Mcs::kMcs0;
    int maxima = 0;
    for (const auto& info : all_mcs()) {
      const double g = expected_goodput_mbps(derated, info.index, bytes);
      if (g > best_goodput) {
        best_goodput = g;
        best = info.index;
        maxima = 1;
      } else if (g == best_goodput) {
        ++maxima;
      }
    }
    if (maxima > 1) {
      ++ties;
      if (effective_snr_db(derated, Modulation::kQam64) == kEsnrFloorDb) {
        ++floor_ties;
      }
    }
    EsnrRateSelector rc(bytes, margin);
    rc.observe_csi(csi);
    EXPECT_EQ(rc.select(), best) << "trial " << trial;
  }
  EXPECT_GT(floor_ties, 0);
  EXPECT_GT(ties, floor_ties);
}

// Parameterized property: for every MCS, delivery probability at its
// sensitivity + 4 dB exceeds 0.9, and at sensitivity - 4 dB is below 0.1
// (the logistic waterfall is centred and steep).
class WaterfallProperty : public ::testing::TestWithParam<int> {};

TEST_P(WaterfallProperty, SteepAroundSensitivity) {
  const Mcs mcs = static_cast<Mcs>(GetParam());
  const double sens = mcs_info(mcs).min_esnr_db;
  EXPECT_GT(mpdu_delivery_probability(sens + 4.0, mcs, 1500), 0.9);
  EXPECT_LT(mpdu_delivery_probability(sens - 4.0, mcs, 1500), 0.1);
}

INSTANTIATE_TEST_SUITE_P(AllMcs, WaterfallProperty, ::testing::Range(0, kNumMcs));

}  // namespace
}  // namespace wgtt::phy
