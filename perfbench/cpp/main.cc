// perfbench_bin: runs one workload of the repository benchmark and prints
// its result as the last line of standard output.
//
//   perfbench_bin --workload NAME --seed N --seconds S --trace 0|1
//
// --trace 0 is the timed run: set-up is measured several times, then drives
// (consecutive seeds derived from --seed) run back to back for S seconds
// with nothing attached, and the end-to-end metrics are reported. --trace 1
// runs the first drive of the same seed twice, untraced and traced (spans,
// event profiler, run_until slices, AP counters), checks that both produce
// the same simulated-output digest, cross-checks goodput against
// benchx::run_drive, times each layer's hot function in isolation, and
// reports the per-layer ledger. The Chrome trace and the ledger are written
// under .bench_out/ in the working directory.
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <exception>
#include <filesystem>
#include <fstream>
#include <iomanip>
#include <map>
#include <string>
#include <vector>

#include "bench/harness.h"
#include "drive.h"
#include "ledger.h"
#include "sim/profiler.h"

namespace perfbench {
namespace {

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  int trace = 0;
};

constexpr const char* kOutDir = ".bench_out";
/// Share of a traced drive's wall time the ledger must attribute to named
/// spans and profiled events.
constexpr double kMinCoverage = 0.9;
/// Workers of the parallel city's threaded pass in the traced run, against
/// which the one-worker drive gives parallel.speedup.
constexpr int kThreadedWorkers = 2;

[[noreturn]] void usage(const char* msg) {
  std::fprintf(stderr, "perfbench_bin: %s\n", msg);
  std::fprintf(stderr,
               "usage: perfbench_bin --workload NAME --seed N --seconds S "
               "--trace 0|1\nworkloads:");
  for (const auto& n : workload_names()) std::fprintf(stderr, " %s", n.c_str());
  std::fprintf(stderr, "\n");
  std::exit(2);
}

Args parse(int argc, char** argv) {
  Args a;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage(("missing value for " + flag).c_str());
    const std::string v = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      a.workload = v;
      have_workload = true;
    } else if (flag == "--seed") {
      a.seed = std::strtoull(v.c_str(), &end, 10);
      if (end == v.c_str() || *end != '\0') usage("bad --seed");
    } else if (flag == "--seconds") {
      a.seconds = std::strtod(v.c_str(), &end);
      if (end == v.c_str() || *end != '\0' || !(a.seconds > 0.0)) usage("bad --seconds");
    } else if (flag == "--trace") {
      if (v != "0" && v != "1") usage("--trace takes 0 or 1");
      a.trace = v == "1" ? 1 : 0;
    } else {
      usage(("unknown flag " + flag).c_str());
    }
  }
  if (!have_workload) usage("--workload is required");
  return a;
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

/// Metrics in print order, each with its unit.
class Metrics {
 public:
  void set(const std::string& name, double value, const char* unit) {
    if (!std::isfinite(value)) {
      std::fprintf(stderr, "metric %s is not finite\n", name.c_str());
      finite_ = false;
      value = 0.0;
    }
    for (auto& m : items_) {
      if (m.name == name) {
        m.value = value;
        m.unit = unit;
        return;
      }
    }
    items_.push_back({name, value, unit});
  }
  void timing(const std::string& prefix, const std::vector<double>& samples,
              const char* unit) {
    const TailStat s = summarize(samples);
    set(prefix + "_p50", s.p50, unit);
    set(prefix + "_tail", s.tail, unit);
    set(prefix + "_tail_q", s.tail_q, "fraction");
    set(prefix + "_n", static_cast<double>(s.n), "count");
  }
  [[nodiscard]] bool finite() const { return finite_; }
  [[nodiscard]] std::string json() const {
    std::string out = "{";
    char buf[64];
    for (std::size_t i = 0; i < items_.size(); ++i) {
      if (i > 0) out += ", ";
      std::snprintf(buf, sizeof(buf), "%.17g", items_[i].value);
      out += "\"" + items_[i].name + "\": {\"value\": " + buf + ", \"unit\": \"" +
             items_[i].unit + "\"}";
    }
    return out + "}";
  }

 private:
  struct Item {
    std::string name;
    double value;
    const char* unit;
  };
  std::vector<Item> items_;
  bool finite_ = true;
};

struct Outcome {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  bool correct = true;
};

void print_digest(const char* tag, const DriveStats& r) {
  std::printf("%s seed=%" PRIu64 " digest=%016" PRIx64 " events=%" PRIu64
              " switches=%" PRIu64 " packets=%" PRIu64 " goodput_mbps=%.9g",
              tag, r.seed, r.digest, r.events, r.switches, r.packets, r.goodput_mbps);
  for (std::size_t i = 0; i < r.client_bytes.size(); ++i) {
    std::printf("%s%" PRIu64, i > 0 ? "," : " bytes=", r.client_bytes[i]);
  }
  std::printf(" wall_s=%.4f%s%s\n", r.run_wall_s, r.failed ? " FAILED: " : "",
              r.failed ? r.failure.c_str() : "");
}

DriveStats guarded_drive(const Workload& w, std::uint64_t seed, Tracer* tracer,
                          int workers, Outcome& out) {
  DriveStats r;
  try {
    r = run_drive_once(w, seed, tracer, workers);
  } catch (const std::exception& e) {
    r.seed = seed;
    r.failed = true;
    r.failure = std::string("threw: ") + e.what();
  }
  ++out.attempted;
  if (r.failed) ++out.failed;
  return r;
}

// --- timed run (--trace 0) ---------------------------------------------------

void timed_run(const Workload& w, const Args& a, Metrics& m, Outcome& out) {
  // Set-up alone, in small batches before every drive and after the last,
  // topped up to min_setups at the end, so that on runs of many drives its
  // median is not one moment of host load. A drive-8x32 run is two 16 s
  // drives, so most of its samples come from the end of the run.
  const std::size_t batch = w.parallel ? 2 : 7;
  const std::size_t min_setups = w.parallel ? 11 : 41;
  std::vector<double> setup_s;
  const auto setups = [&](std::size_t n) {
    for (std::size_t i = 0; i < n; ++i) {
      setup_s.push_back(setup_once(w, drive_seed(a.seed, static_cast<int>(setup_s.size()))));
    }
  };

  std::vector<DriveStats> drives;
  double rss_mb = 0.0;
  const auto t0 = std::chrono::steady_clock::now();
  for (int k = 0;; ++k) {
    const double elapsed =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
    if (k >= w.min_drives && elapsed >= a.seconds) break;
    setups(batch);
    drives.push_back(guarded_drive(w, drive_seed(a.seed, k), nullptr, w.city.workers, out));
    print_digest("drive", drives.back());
    if (k + 1 == w.min_drives) rss_mb = peak_rss_mb();
  }
  setups(std::max(batch, min_setups - std::min(min_setups, setup_s.size())));

  // Totals over the drives, not per-drive medians: drive work varies a lot
  // with the seed (TCP goodput runs from 0 to 9 Mbit/s), and over ten seeds
  // the ratio of sums spread less than the median of ratios.
  double sim_s = 0.0;
  double wall_s = 0.0;
  double packets = 0.0;
  double goodput = 0.0;
  int counted = 0;
  for (std::size_t k = 0; k < drives.size(); ++k) {
    const DriveStats& r = drives[k];
    if (r.failed) continue;
    sim_s += r.sim_s;
    wall_s += r.run_wall_s;
    packets += static_cast<double>(r.packets);
    // Only the drives every run makes, so host speed cannot move it.
    if (k < static_cast<std::size_t>(w.min_drives)) {
      goodput += r.goodput_mbps;
      ++counted;
    }
  }
  m.set("sim_s_per_wall_s", ratio(sim_s, wall_s), "s/s");
  m.set("ns_per_pkt", ratio(wall_s * 1e9, packets), "ns");
  m.set("setup_s", median(setup_s), "s");
  m.set("peak_rss_mb", rss_mb, "MB");
  m.set("goodput_mbps", ratio(goodput, counted), "Mbit/s");
  std::printf("timed: %zu drives, %zu set-ups, seed %" PRIu64 "\n", drives.size(),
              setup_s.size(), a.seed);
}

// --- traced run (--trace 1) --------------------------------------------------

const SpanTotals* find_totals(const std::vector<SpanTotals>& t, const std::string& name) {
  for (const auto& s : t) {
    if (s.name == name) return &s;
  }
  return nullptr;
}

/// Per-call self times of span `name`: its duration less its child spans,
/// so a layer's timing never includes the layers it calls into.
std::vector<double> self_samples(const std::vector<SpanTotals>& t, const std::string& name) {
  const SpanTotals* s = find_totals(t, name);
  return s != nullptr ? s->self_samples_ns : std::vector<double>{};
}

double total_ns(const std::vector<SpanTotals>& t, const std::string& name) {
  const SpanTotals* s = find_totals(t, name);
  return s != nullptr ? static_cast<double>(s->total_ns) : 0.0;
}

double count_of(const DriveStats& r, const std::string& key) {
  const auto it = r.counts.find(key);
  return it != r.counts.end() ? it->second : 0.0;
}

void write_ledger(const std::string& path, const Workload& w, const DriveStats& traced,
                  const std::vector<SpanTotals>& totals, double wall_ns,
                  double attributed_ns, const Metrics& m) {
  std::ofstream out(path);
  if (!out) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return;
  }
  out << std::fixed << std::setprecision(0);
  out << "{\"workload\": \"" << w.name << "\", \"seed\": " << traced.seed
      << ", \"wall_ns\": " << wall_ns << ", \"attributed_ns\": " << attributed_ns
      << ",\n \"spans\": [";
  bool first = true;
  for (const auto& s : totals) {
    if (s.count == 0) continue;
    out << (first ? "\n  " : ",\n  ") << "{\"name\": \"" << s.name
        << "\", \"count\": " << s.count << ", \"total_ns\": " << s.total_ns
        << ", \"self_ns\": " << s.self_ns << "}";
    first = false;
  }
  out << "],\n \"profile_ns\": {";
  first = true;
  for (int c = 0; c < wgtt::sim::kNumEventCategories; ++c) {
    const std::string cat(wgtt::sim::to_string(static_cast<wgtt::sim::EventCategory>(c)));
    out << (first ? "" : ", ") << "\"" << cat
        << "\": " << count_of(traced, "sim.profile." + cat + "_ns");
    first = false;
  }
  out << "},\n \"metrics\": " << m.json() << "}\n";
}

void traced_run(const Workload& w, const Args& a, Metrics& m, Outcome& out) {
  const std::uint64_t seed = drive_seed(a.seed, 0);
  const int workers = w.city.workers;

  const DriveStats plain = guarded_drive(w, seed, nullptr, workers, out);
  print_digest("untraced", plain);

  Tracer tracer;
  const SpanRecorder& spans = tracer.spans;
  DriveStats traced = guarded_drive(w, seed, &tracer, workers, out);
  print_digest("traced", traced);
  if (!traced.failed && !plain.failed && traced.digest != plain.digest) {
    std::printf("FAILED: traced digest %016" PRIx64 " != untraced %016" PRIx64 "\n",
                traced.digest, plain.digest);
    ++out.failed;
  }
  if (!spans.ok()) {
    std::printf("FAILED: spans closed out of order\n");
    out.correct = false;
  }

  // The shared recipe must reproduce benchx::run_drive's goodput exactly.
  if (!w.parallel) {
    wgtt::benchx::DriveConfig cfg = w.drive;
    cfg.seed = seed;
    // run_drive always installs the accuracy probe; for a workload without
    // it, push its first firing past the horizon so the configs match.
    if (!w.probe) cfg.accuracy_probe = wgtt::Time::sec(3600);
    ++out.attempted;
    try {
      const double ref = wgtt::benchx::run_drive(cfg).mean_mbps();
      const bool same = std::memcmp(&ref, &traced.goodput_mbps, sizeof(ref)) == 0;
      std::printf("run_drive goodput_mbps=%.17g benchmark=%.17g %s\n", ref,
                  traced.goodput_mbps, same ? "identical" : "MISMATCH");
      if (!same) ++out.failed;
    } catch (const std::exception& e) {
      std::printf("FAILED: run_drive threw: %s\n", e.what());
      ++out.failed;
    }
  }

  // Parallel city: a run on more workers for the speed-up and the busy
  // fraction, and the set-up estimate the ledger uses (set-up cannot be
  // split from outside).
  DriveStats threaded;
  double city_setup_s = 0.0;
  if (w.parallel) {
    threaded = guarded_drive(w, seed, nullptr, kThreadedWorkers, out);
    print_digest("threaded", threaded);
    if (!threaded.failed && !traced.failed && threaded.digest != traced.digest) {
      std::printf("FAILED: %d-worker digest differs from %d-worker digest\n",
                  kThreadedWorkers, workers);
      ++out.failed;
    }
    std::vector<double> s;
    for (int k = 0; k < 3; ++k) s.push_back(setup_once(w, drive_seed(a.seed, k)));
    city_setup_s = median(s);
  }

  const Isolated iso = isolated_timings(w, seed);
  const double sched_ns = sched_ns_per_op(traced.pending_peak, seed);
  const std::vector<SpanTotals> totals = totals_by_name(spans);

  const double pkts = static_cast<double>(traced.packets);
  const double traced_wall_ns = traced.run_wall_s * 1e9;
  double profiled_ns = 0.0;
  for (int c = 0; c < wgtt::sim::kNumEventCategories; ++c) {
    profiled_ns += count_of(
        traced, "sim.profile." +
                    std::string(wgtt::sim::to_string(static_cast<wgtt::sim::EventCategory>(c))) +
                    "_ns");
  }

  // sim
  m.set("sim.events", static_cast<double>(traced.events), "count");
  m.set("sim.events_per_pkt", ratio(static_cast<double>(traced.events), pkts), "count");
  m.set("sim.events_per_s", ratio(static_cast<double>(plain.events), plain.run_wall_s), "1/s");
  m.set("sim.ns_per_event", ratio(plain.run_wall_s * 1e9, static_cast<double>(plain.events)),
        "ns");
  m.set("sim.pending_peak", static_cast<double>(traced.pending_peak), "count");
  m.set("sim.sched_ns_per_op", sched_ns, "ns");
  for (int c = 0; c < wgtt::sim::kNumEventCategories; ++c) {
    const std::string cat(wgtt::sim::to_string(static_cast<wgtt::sim::EventCategory>(c)));
    m.set("sim.profile." + cat + "_ns_per_pkt",
          ratio(count_of(traced, "sim.profile." + cat + "_ns"), pkts), "ns");
  }
  // channel, phy
  m.timing("channel.measure_ns", iso.measure_ns, "ns");
  m.timing("phy.esnr_ns", iso.esnr_ns, "ns");
  m.timing("phy.snr_for_ber_ns", iso.snr_for_ber_ns, "ns");
  // mac
  const double delivered = count_of(traced, "mac.mpdus_delivered");
  m.set("mac.frames_sent", count_of(traced, "mac.frames_sent"), "count");
  m.set("mac.collisions", count_of(traced, "mac.collisions"), "count");
  m.set("mac.useful_mpdu_ratio",
        ratio(delivered, delivered + count_of(traced, "mac.retransmissions")), "fraction");
  m.set("mac.ba_timeouts", count_of(traced, "mac.ba_timeouts"), "count");
  m.timing("mac.send_uplink_ns", self_samples(totals, "mac.send_uplink"), "ns");
  // net
  const double msgs = count_of(traced, "net.messages_sent");
  m.set("net.msgs_per_pkt", ratio(msgs, pkts), "count");
  m.set("net.msgs_dropped", count_of(traced, "net.messages_dropped"), "count");
  m.set("net.backhaul_ns_per_msg", ratio(count_of(traced, "sim.profile.backhaul_ns"), msgs),
        "ns");
  // core
  m.timing("core.server_send_ns", self_samples(totals, "core.server_send"), "ns");
  m.set("core.fanout_copies_per_pkt", ratio(count_of(traced, "core.fanout_copies"), pkts),
        "count");
  m.set("core.csi_reports_per_pkt", ratio(count_of(traced, "core.csi_reports"), pkts), "count");
  m.set("core.dedup_hit_ratio",
        ratio(count_of(traced, "core.uplink_duplicates_dropped"),
              count_of(traced, "core.uplink_packets")),
        "fraction");
  m.set("core.switches", count_of(traced, "core.switches_completed"), "count");
  m.set("core.switch_completion_ratio",
        ratio(count_of(traced, "core.switches_completed"),
              count_of(traced, "core.switches_initiated")),
        "fraction");
  m.set("core.stop_retransmissions", count_of(traced, "core.stop_retransmissions"), "count");
  m.timing("core.switch_time_ms", traced.switch_ms, "ms");
  // ap
  m.set("ap.copy_use_ratio",
        ratio(count_of(traced, "ap.pump_enqueued"), count_of(traced, "ap.downlink_received")),
        "fraction");
  m.set("ap.cyclic_overwrites", count_of(traced, "ap.cyclic_overwrites"), "count");
  m.set("ap.stale_dropped", count_of(traced, "ap.stale_dropped"), "count");
  // transport
  m.timing("transport.tcp_ack_ns", self_samples(totals, "transport.tcp_ack"), "ns");
  m.timing("transport.rx_ns", self_samples(totals, "transport.rx"), "ns");
  m.set("transport.tcp_retransmissions", count_of(traced, "transport.tcp_retransmissions"),
        "count");
  m.set("transport.tcp_rtos", count_of(traced, "transport.tcp_rtos"), "count");
  // obs: the benchmark's own observers, and the ledger's integrity
  m.timing("obs.probe_ns", self_samples(totals, "obs.probe"), "ns");
  const double probe_share = ratio(total_ns(totals, "obs.probe"), traced_wall_ns);
  m.set("obs.probe_share", probe_share, "fraction");
  m.set("obs.trace_overhead", ratio(traced.run_wall_s, plain.run_wall_s) - 1.0, "fraction");
  m.set("obs.switch_accuracy", traced.accuracy, "fraction");
  double wall_ns = 0.0;
  double attributed_ns = 0.0;
  if (w.parallel) {
    // The call's wall time against its set-up (measured separately, with a
    // near-zero horizon) plus the engine's own wall time.
    wall_ns = traced.op_wall_s * 1e9;
    attributed_ns = (city_setup_s + traced.run_wall_s) * 1e9;
  } else {
    // The drive against set-up, wiring, the profiled simulation (every
    // event's wall time, charged by the profiler), collection and teardown.
    wall_ns = total_ns(totals, "scenario.drive");
    attributed_ns = profiled_ns;
    for (const char* s : {"scenario.construct", "scenario.add_clients", "scenario.start",
                          "scenario.wire", "scenario.collect", "scenario.teardown"}) {
      attributed_ns += total_ns(totals, s);
    }
  }
  const double coverage = ratio(attributed_ns, wall_ns);
  m.set("ledger.coverage", coverage, "fraction");
  // The ledger must account for the drive, and the probe must cost time
  // exactly on the workloads that run it.
  if (coverage < kMinCoverage) {
    std::printf("FAILED: ledger.coverage %.4f < %.2f\n", coverage, kMinCoverage);
    out.correct = false;
  }
  if (w.probe ? !(probe_share > 0.0) : probe_share != 0.0) {
    std::printf("FAILED: obs.probe_share %.6g on a workload %s the probe\n", probe_share,
                w.probe ? "with" : "without");
    out.correct = false;
  }
  // scenario
  m.set("scenario.construct_s", w.parallel ? city_setup_s : traced.construct_s, "s");
  m.set("scenario.add_clients_s", traced.add_clients_s, "s");
  m.set("scenario.start_s", traced.start_s, "s");
  // parallel
  m.set("parallel.rounds", count_of(traced, "parallel.rounds"), "count");
  m.set("parallel.messages", count_of(traced, "parallel.messages"), "count");
  m.set("parallel.speedup",
        w.parallel ? ratio(plain.run_wall_s, threaded.run_wall_s) : 0.0, "x");
  // Worker CPU time of the threaded run (the engine's barrier blocks, so
  // waiting costs none) over the workers' wall time; set-up runs on one
  // thread.
  m.set("parallel.busy_frac",
        w.parallel
            ? ratio(threaded.op_cpu_s - city_setup_s, threaded.workers * threaded.run_wall_s)
            : 0.0,
        "fraction");
  m.set("parallel.domain_imbalance", count_of(traced, "parallel.domain_imbalance"), "x");

  // Artifacts: the Chrome trace (Perfetto opens it) and the ledger.
  std::error_code ec;
  std::filesystem::create_directories(kOutDir, ec);
  const std::string stem =
      std::string(kOutDir) + "/" + w.name + "-seed" + std::to_string(a.seed);
  {
    std::ofstream tf(stem + ".trace.json");
    if (tf) write_chrome_trace(tf, spans, 20000);
  }
  write_ledger(stem + ".ledger.json", w, traced, totals, wall_ns, attributed_ns, m);
  std::printf("ledger: %s.ledger.json, trace: %s.trace.json\n", stem.c_str(), stem.c_str());
  for (const auto& s : totals) {
    if (s.count == 0) continue;
    std::printf("  span %-26s n=%-8zu total=%10.3f ms self=%10.3f ms\n", s.name.c_str(),
                s.count, static_cast<double>(s.total_ns) / 1e6,
                static_cast<double>(s.self_ns) / 1e6);
  }
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  const Args a = parse(argc, argv);
  const Workload* w = find_workload(a.workload);
  if (w == nullptr) usage(("unknown workload " + a.workload).c_str());

#if defined(__OPTIMIZE__) && defined(NDEBUG)
  const bool optimized = true;
#else
  const bool optimized = false;
#endif
#ifdef NDEBUG
  const char* ndebug = "yes";
#else
  const char* ndebug = "no";
#endif
  std::printf("build: type=%s ndebug=%s optimized=%s compiler=%s\n", PERFBENCH_BUILD_TYPE,
              ndebug, optimized ? "yes" : "no", PERFBENCH_COMPILER);
  if (!optimized) std::printf("WARNING: not an optimised build, not a performance result\n");
  std::fflush(stdout);

  Metrics m;
  Outcome out;
  if (a.trace == 0) {
    timed_run(*w, a, m, out);
  } else {
    traced_run(*w, a, m, out);
  }
  const bool correct = out.correct && out.failed == 0 && m.finite() && out.attempted > 0;
  std::printf("{\"correct\": %s, \"attempted\": %" PRIu64 ", \"failed\": %" PRIu64
              ", \"metrics\": %s}\n",
              correct ? "true" : "false", out.attempted, out.failed, m.json().c_str());
  return 0;
}
