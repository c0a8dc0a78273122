// Golden digests: seeded end-to-end runs pinned to committed 64-bit hashes.
//
// Each entry hashes (FNV-1a, 64 bit) a run's whole `wgtt.metrics.v1`
// snapshot plus its per-client goodput and switch-accuracy fractions, so
// any change to an event, an RNG draw, a counter or the accuracy probe's
// ground truth shows up as a changed digest. A change that claims to be
// exact (a speed-up, a refactor, a deleted oracle) must leave
// golden_digests.txt byte-identical.
//
// The matrix is smoke-sized: three seeds over the 25 mph UDP and TCP
// drives, the Figure 17 three-client drive, a short 8-client x 32-AP drive,
// the baseline system, an AP-crash drive with liveness, an AP zombie and
// partition drive, a drive over a finite-rate batched backhaul, a
// two-domain drive with a controller crash under lossy links, an uplink
// flood, and the parallel city at one and two workers.
//
// Regenerate (only for a deliberate behaviour change, in its own commit):
//   build/tests/golden_digest_test --regenerate
#include <gtest/gtest.h>

#include <algorithm>
#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <functional>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "bench/harness.h"
#include "mobility/trajectory.h"
#include "scenario/parallel_city.h"
#include "scenario/wgtt_system.h"
#include "transport/tcp.h"

#ifndef WGTT_GOLDEN_DIGESTS
#error "WGTT_GOLDEN_DIGESTS must name the committed digest file"
#endif

namespace wgtt {
namespace {

using benchx::DriveConfig;
using benchx::DriveResult;
using benchx::System;
using benchx::Workload;

constexpr std::uint64_t kSeeds[] = {1, 2, 3};

std::uint64_t fnv1a64(const std::string& s) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const unsigned char c : s) {
    h ^= c;
    h *= 0x100000001b3ULL;
  }
  return h;
}

/// Exact text of a double (hex float): equal text iff equal bits.
std::string hex(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%a", v);
  return buf;
}

/// The hashed text of one drive: the metrics snapshot (WGTT only; the
/// baseline predates the metrics layer) plus per-client goodput, bytes and
/// accuracy, and the result's switch and MAC counters.
std::string drive_text(const DriveResult& r) {
  std::ostringstream os;
  if (r.metrics) os << r.metrics->to_json() << '\n';
  for (const auto& c : r.clients) {
    os << "client mbps=" << hex(c.mbps) << " bytes=" << c.bytes
       << " accuracy=" << hex(c.accuracy) << '\n';
  }
  os << "switches=" << r.switches << " retx=" << r.retransmissions
     << " delivered=" << r.mpdus_delivered << " ba_heard=" << r.ba_heard
     << " ba_collided=" << r.ba_collided
     << " violations=" << r.invariant_violations << '\n';
  return os.str();
}

DriveConfig drive(std::uint64_t seed) {
  DriveConfig cfg;
  cfg.seed = seed;
  cfg.collect_metrics = true;
  return cfg;
}

std::string udp25(std::uint64_t seed) {
  DriveConfig cfg = drive(seed);
  cfg.mph = 25.0;
  cfg.udp_rate_mbps = 30.0;
  return drive_text(benchx::run_drive(cfg));
}

std::string tcp25(std::uint64_t seed) {
  DriveConfig cfg = drive(seed);
  cfg.mph = 25.0;
  cfg.workload = Workload::kTcpDown;
  return drive_text(benchx::run_drive(cfg));
}

std::string fig17_3client(std::uint64_t seed) {
  DriveConfig cfg = drive(seed);
  cfg.mph = 15.0;
  cfg.num_clients = 3;
  cfg.udp_rate_mbps = 20.0;
  return drive_text(benchx::run_drive(cfg));
}

DriveConfig drive_8x32_config(std::uint64_t seed) {
  DriveConfig cfg = drive(seed);
  cfg.mph = 15.0;
  cfg.num_clients = 8;
  cfg.udp_rate_mbps = 20.0;
  cfg.pattern = benchx::Pattern::kDistributed;
  cfg.drive_span_m = 12.0;
  scenario::GeometryConfig geo;
  geo.num_aps = 32;
  cfg.geometry = geo;
  return cfg;
}

std::string drive_8x32(std::uint64_t seed) {
  return drive_text(benchx::run_drive(drive_8x32_config(seed)));
}

std::string baseline25(std::uint64_t seed) {
  DriveConfig cfg = drive(seed);
  cfg.system = System::kBaseline;
  cfg.mph = 25.0;
  cfg.udp_rate_mbps = 30.0;
  return drive_text(benchx::run_drive(cfg));
}

std::string ap_crash(std::uint64_t seed) {
  DriveConfig cfg = drive(seed);
  cfg.mph = 15.0;
  cfg.udp_rate_mbps = 20.0;
  scenario::ApFaultScript fs;
  fs.ap = 3;
  fs.crash_at = Time::sec(5);
  fs.restart_at = Time::sec(8);
  cfg.ap_faults.push_back(fs);  // auto-enables liveness
  return drive_text(benchx::run_drive(cfg));
}

std::string ap_zombie_partition(std::uint64_t seed) {
  DriveConfig cfg = drive(seed);
  cfg.mph = 15.0;
  cfg.udp_rate_mbps = 20.0;
  scenario::ApFaultScript zombie;
  zombie.ap = 3;
  zombie.zombie_at = Time::sec(4);
  zombie.zombie_end_at = Time::sec(6);
  cfg.ap_faults.push_back(zombie);  // auto-enables liveness
  scenario::ApFaultScript partition;
  partition.ap = 5;
  partition.partitions = {{Time::sec(3), Time::ms(3500)},
                          {Time::sec(7), Time::sec(8)}};
  cfg.ap_faults.push_back(partition);
  return drive_text(benchx::run_drive(cfg));
}

std::string backhaul_batched(std::uint64_t seed) {
  // Offered load above the per-link rate: the byte queue fills and drops.
  DriveConfig cfg = drive(seed);
  cfg.mph = 25.0;
  cfg.udp_rate_mbps = 20.0;
  cfg.backhaul_link_rate_mbps = 15.0;
  cfg.backhaul_queue_bytes = std::size_t{64} * 1024;
  cfg.backhaul_batching = true;
  return drive_text(benchx::run_drive(cfg));
}

std::string domains2(std::uint64_t seed) {
  DriveConfig cfg = drive(seed);
  cfg.mph = 15.0;
  cfg.udp_rate_mbps = 20.0;
  cfg.num_domains = 2;
  return drive_text(benchx::run_drive(cfg));
}

std::string domains2_faults(std::uint64_t seed) {
  // Domain 1's controller crashes and restarts under lossy inter-controller
  // and control links: adoption, retries, aborts, yields and forwarding.
  DriveConfig cfg = drive(seed);
  cfg.mph = 15.0;
  cfg.udp_rate_mbps = 20.0;
  cfg.num_domains = 2;
  scenario::ControllerFaultScript crash;
  crash.domain = 1;
  crash.crash_at = Time::sec(3);
  crash.restart_at = Time::sec(6);
  cfg.controller_faults.push_back(crash);
  cfg.inter_controller_loss_rate = 0.30;
  cfg.control_loss_rate = 0.05;
  return drive_text(benchx::run_drive(cfg));
}

std::string uplink_flood(std::uint64_t seed) {
  DriveConfig cfg = drive(seed);
  cfg.workload = Workload::kUdpUp;
  cfg.mph = 15.0;
  cfg.udp_rate_mbps = 120.0;
  return drive_text(benchx::run_drive(cfg));
}

std::string parallel_city(std::uint64_t seed, int workers) {
  scenario::ParallelCityConfig cfg;
  cfg.corridors = 2;
  cfg.aps_per_corridor = 8;
  cfg.clients_per_corridor = 2;
  cfg.drive_span_m = 20.0;
  cfg.seed = seed;
  cfg.workers = workers;
  cfg.collect_metrics = true;
  const scenario::ParallelCityResult r = scenario::run_parallel_city(cfg);
  std::ostringstream os;
  if (r.metrics) os << r.metrics->to_json() << '\n';
  for (const double mbps : r.client_mbps) os << "client mbps=" << hex(mbps) << '\n';
  os << "switches=" << r.switches << " events=" << r.events_executed
     << " messages=" << r.messages << " rounds=" << r.rounds
     << " violations=" << r.invariant_violations << '\n';
  return os.str();
}

struct Scenario {
  const char* name;
  std::function<std::string(std::uint64_t seed)> run;
};

const std::vector<Scenario>& scenarios() {
  static const std::vector<Scenario> all = {
      {"udp25", udp25},
      {"tcp25", tcp25},
      {"fig17_3client", fig17_3client},
      {"drive_8x32", drive_8x32},
      {"baseline25", baseline25},
      {"ap_crash", ap_crash},
      {"domains2", domains2},
      {"parallel_city_1w", [](std::uint64_t s) { return parallel_city(s, 1); }},
      {"parallel_city_2w", [](std::uint64_t s) { return parallel_city(s, 2); }},
      // Appended, so the earlier entries keep their test indices.
      {"ap_zombie_partition", ap_zombie_partition},
      {"backhaul_batched", backhaul_batched},
      {"domains2_faults", domains2_faults},
      {"uplink_flood", uplink_flood},
  };
  return all;
}

std::string entry_key(const Scenario& s, std::uint64_t seed) {
  return std::string(s.name) + "/seed" + std::to_string(seed);
}

std::string digest_hex(std::uint64_t d) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%016" PRIx64, d);
  return buf;
}

/// key -> digest, from the committed file ('#' lines are comments).
std::map<std::string, std::string> load_digests() {
  std::map<std::string, std::string> out;
  std::ifstream in(WGTT_GOLDEN_DIGESTS);
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    std::istringstream ls(line);
    std::string key;
    std::string digest;
    if (ls >> key >> digest) out[key] = digest;
  }
  return out;
}

int regenerate() {
  std::ofstream out(WGTT_GOLDEN_DIGESTS, std::ios::trunc);
  if (!out) {
    std::fprintf(stderr, "cannot write %s\n", WGTT_GOLDEN_DIGESTS);
    return 1;
  }
  out << "# Golden digests: FNV-1a 64 of each run's wgtt.metrics.v1 snapshot\n"
         "# plus per-client goodput and switch-accuracy fractions\n"
         "# (tests/golden_digest_test.cc). The simulation's floating point goes\n"
         "# through libm (exp, log10, erfc, sin, cos), so the digests hold for\n"
         "# one toolchain and libm; a different libm may change them without\n"
         "# any behaviour change in the code.\n"
         "# Regenerate only for a deliberate behaviour change:\n"
         "#   build/tests/golden_digest_test --regenerate\n";
  for (const Scenario& s : scenarios()) {
    for (const std::uint64_t seed : kSeeds) {
      out << entry_key(s, seed) << ' ' << digest_hex(fnv1a64(s.run(seed)))
          << '\n';
    }
  }
  return out ? 0 : 1;
}

class GoldenDigest : public ::testing::TestWithParam<std::size_t> {};

TEST_P(GoldenDigest, MatchesCommittedFile) {
  const Scenario& s = scenarios()[GetParam()];
  const std::map<std::string, std::string> golden = load_digests();
  for (const std::uint64_t seed : kSeeds) {
    const std::string key = entry_key(s, seed);
    const auto it = golden.find(key);
    ASSERT_NE(it, golden.end()) << key << " missing from " << WGTT_GOLDEN_DIGESTS;
    EXPECT_EQ(digest_hex(fnv1a64(s.run(seed))), it->second)
        << key << ": the run's output changed";
  }
}

INSTANTIATE_TEST_SUITE_P(
    Matrix, GoldenDigest, ::testing::Range<std::size_t>(0, scenarios().size()),
    [](const ::testing::TestParamInfo<std::size_t>& param) {
      return std::string(scenarios()[param.param].name);
    });

TEST(GoldenDigestFile, HasExactlyTheMatrix) {
  const std::map<std::string, std::string> golden = load_digests();
  EXPECT_EQ(golden.size(), scenarios().size() * std::size(kSeeds));
}

TEST(GoldenDigestFile, ParallelCityDigestIndependentOfWorkers) {
  const std::map<std::string, std::string> golden = load_digests();
  for (const std::uint64_t seed : kSeeds) {
    const std::string tail = "/seed" + std::to_string(seed);
    EXPECT_EQ(golden.at("parallel_city_1w" + tail),
              golden.at("parallel_city_2w" + tail));
  }
}

/// Counter keys and values of the `"counters"` object in a snapshot text.
std::map<std::string, std::uint64_t> counters_of(const std::string& text) {
  std::map<std::string, std::uint64_t> out;
  const std::size_t begin = text.find("\"counters\": {");
  if (begin == std::string::npos) return out;
  const std::size_t end = text.find('}', begin);
  std::istringstream in(text.substr(begin, end - begin));
  std::string line;
  while (std::getline(in, line)) {
    const std::size_t open = line.find('"');
    const std::size_t close = line.find("\": ", open + 1);
    if (open == std::string::npos || close == std::string::npos) continue;
    const std::string key = line.substr(open + 1, close - open - 1);
    if (key == "counters") continue;
    out[key] = std::stoull(line.substr(close + 3));
  }
  return out;
}

/// Every counter key the switching components register with every
/// feature on: Controller (with liveness and two domains), WgttAp,
/// WifiMac (AP and client side) and TcpSender.
std::vector<std::string> component_counter_keys() {
  scenario::WgttSystemConfig cfg;
  cfg.controller.liveness_enabled = true;
  cfg.num_domains = 2;
  const mobility::StaticPosition parked({0.0, 0.0});
  obs::MetricsRegistry registry;
  scenario::WgttSystem sys(cfg);
  sys.add_client(&parked);
  sys.enable_metrics(registry);
  transport::TcpSender::register_metrics(registry);
  std::vector<std::string> keys;
  for (const auto& [key, value] : counters_of(registry.to_json())) {
    keys.push_back(key);
  }
  return keys;
}

TEST(GoldenDigestFile, EveryComponentCounterIsExercised) {
  // A key that reads 0 in every entry cannot tell a binding to the wrong
  // field from a correct one, so each must move in at least one run.
  const std::map<std::string, std::string> exempt = {
      {"mac.enqueue_drops",
       "the AP pump fills the MAC queue only up to hw_queue_capacity"},
      {"client_mac.ba_injected",
       "only AP MACs merge backhaul-forwarded block ACKs"},
      {"domain.misrouted_dropped", "no seeded drive reaches it"},
  };
  std::map<std::string, std::uint64_t> max_value;
  for (const Scenario& s : scenarios()) {
    for (const std::uint64_t seed : kSeeds) {
      for (const auto& [key, value] : counters_of(s.run(seed))) {
        max_value[key] = std::max(max_value[key], value);
      }
    }
  }
  const std::vector<std::string> keys = component_counter_keys();
  ASSERT_FALSE(keys.empty());
  for (const std::string& key : keys) {
    if (exempt.contains(key)) continue;
    EXPECT_GT(max_value[key], 0u) << key << " reads 0 in every entry";
  }
}

TEST(BoundFirstDecode, RulesOutMostReceptionsOnThe8x32Drive) {
  // Bound-first decode (DESIGN.md §8) is exact, so the digests cannot see
  // a looser bound; this share can. It is 67-68% on seeds 1-3.
  const DriveResult r = benchx::run_drive(drive_8x32_config(1));
  ASSERT_GT(r.rx_decided, 0u);
  const double share = static_cast<double>(r.rx_ruled_out) /
                       static_cast<double>(r.rx_decided);
  EXPECT_GE(share, 0.40) << r.rx_ruled_out << " of " << r.rx_decided;
}

TEST(BoundFirstDecode, DecidesMostSampledReceptionsWithoutAnEsnr) {
  // Of the receptions that are sampled, those the measured CSI's ESNR
  // bounds decide (DESIGN.md §8). Exact too, so only this share shows a
  // looser bound.
  const DriveResult r = benchx::run_drive(drive_8x32_config(1));
  ASSERT_GT(r.rx_decided, r.rx_ruled_out);
  const std::uint64_t sampled = r.rx_decided - r.rx_ruled_out;
  const double share =
      static_cast<double>(r.rx_bounded) / static_cast<double>(sampled);
  EXPECT_GE(share, 0.40) << r.rx_bounded << " of " << sampled;
  std::printf("%llu of %llu sampled receptions decided without an ESNR\n",
              static_cast<unsigned long long>(r.rx_bounded),
              static_cast<unsigned long long>(sampled));
}

TEST(DeferredFanout, FewEventsPerDeliveredPacketOnThe8x32Drive) {
  // Fan-out copies for APs that do not serve the client are inbox entries,
  // not scheduler events (DESIGN.md §10). The digests cannot see a return
  // to one event per copy; this ratio can. On perfbench's drive-8x32
  // recipe (without its accuracy probe), seed 1, it is 90.2, against 166.0
  // with an event per copy.
  DriveConfig cfg = drive(1);
  cfg.mph = 15.0;
  cfg.num_clients = 8;  // a convoy 10 m apart past all 32 APs
  cfg.udp_rate_mbps = 20.0;
  scenario::GeometryConfig geo;
  geo.num_aps = 32;
  cfg.geometry = geo;
  const DriveResult r = benchx::run_drive(cfg);
  ASSERT_GT(r.mpdus_delivered, 0u);
  const double per_packet = static_cast<double>(r.events_executed) /
                            static_cast<double>(r.mpdus_delivered);
  EXPECT_LE(per_packet, 120.0) << r.events_executed << " events for "
                               << r.mpdus_delivered << " delivered packets";
  std::printf("%.1f scheduled events per delivered packet\n", per_packet);
}

}  // namespace
}  // namespace wgtt

int main(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--regenerate") == 0) return wgtt::regenerate();
  }
  ::testing::InitGoogleTest(&argc, argv);
  return RUN_ALL_TESTS();
}
