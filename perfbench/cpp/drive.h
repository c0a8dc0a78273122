// The benchmark's four reference workloads, wired through the simulator's
// public API: scenario::WgttSystem (built with the same recipe as
// benchx::run_drive, but with setup, the accuracy probe and the transport
// callbacks in the benchmark's own hands), scenario::run_parallel_city, and
// the transport sources and sinks.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "bench/harness.h"
#include "ledger.h"
#include "scenario/parallel_city.h"
#include "sim/profiler.h"

namespace perfbench {

struct Workload {
  std::string name;
  /// false: one WgttSystem drive built from `drive`; true: the parallel
  /// city built from `city`.
  bool parallel = false;
  wgtt::benchx::DriveConfig drive;
  wgtt::scenario::ParallelCityConfig city;
  /// Run the switching-accuracy probe (WgttSystem::optimal_ap every
  /// drive.accuracy_probe) inside the timed run.
  bool probe = false;
  /// Drives every timed run makes whatever the time budget. goodput_mbps is
  /// their mean and peak_rss_mb the peak after them, so neither depends on
  /// how many more drives a faster host fits into the run.
  int min_drives = 1;
};

[[nodiscard]] const Workload* find_workload(std::string_view name);
[[nodiscard]] std::vector<std::string> workload_names();

/// Seed of the k-th drive of a run: consecutive per run, disjoint between
/// run seeds.
[[nodiscard]] std::uint64_t drive_seed(std::uint64_t run_seed, int k);

/// What a traced drive attaches. A drive run without one is the untraced
/// timed drive: one run_until to the horizon, nothing attached. With one,
/// the drive records spans, calls run_until in kTraceSlice slices (each the
/// parent span of the calls made inside it), attaches a registry to every
/// AP to read its queue counters (no events), and attaches the profiler.
/// The parallel city is never profiled: the profiler's chained clock would
/// charge each domain's wait at the round barrier to its next event.
struct Tracer {
  SpanRecorder spans;
  wgtt::sim::EventProfiler profiler;
};
inline constexpr wgtt::Time kTraceSlice = wgtt::Time::ms(100);

/// One simulated drive: what it cost, what it simulated, and the digest of
/// its simulated outputs.
struct DriveStats {
  std::uint64_t seed = 0;
  bool failed = false;
  std::string failure;

  double construct_s = 0.0;
  double add_clients_s = 0.0;
  double start_s = 0.0;
  double setup_s = 0.0;
  double run_wall_s = 0.0;  ///< the simulation loop only, setup excluded
  double op_wall_s = 0.0;   ///< the whole drive
  double op_cpu_s = 0.0;    ///< process CPU time of the whole drive (parallel city)
  double sim_s = 0.0;
  int workers = 1;

  std::uint64_t packets = 0;  ///< downlink packets handed to client transports
  std::uint64_t events = 0;
  std::uint64_t switches = 0;
  double goodput_mbps = 0.0;
  double accuracy = 0.0;
  std::size_t pending_peak = 0;
  std::vector<std::uint64_t> client_bytes;
  /// FNV-1a over the delivered bytes per client (per-client goodput bits
  /// for the parallel city), switches and events executed.
  std::uint64_t digest = 0;

  /// Counts read from the components' public accessors after the run.
  std::map<std::string, double> counts;
  std::vector<double> switch_ms;
};

/// Builds, runs and checks one drive of `w` with seed `seed`, traced when
/// `tracer` is not null.
[[nodiscard]] DriveStats run_drive_once(const Workload& w, std::uint64_t seed,
                                         Tracer* tracer, int workers);

/// Set-up cost of one drive, built and torn down without running: system
/// construction plus add_client plus start. For the parallel city it is a
/// call with a near-zero horizon, less the engine's own wall time.
[[nodiscard]] double setup_once(const Workload& w, std::uint64_t seed);

/// Isolated per-call timings (ns) of each layer's hot public function on
/// the workload's own inputs, taken on a second system built from the same
/// config and seed that never runs (calling link() on the measured system
/// would move lazy-link cost out of the measured run).
struct Isolated {
  std::vector<double> measure_ns;      ///< LinkChannel::measure
  std::vector<double> esnr_ns;         ///< effective_snr_db + esnr_metric_db
  std::vector<double> snr_for_ber_ns;  ///< phy::snr_for_ber
};
[[nodiscard]] Isolated isolated_timings(const Workload& w, std::uint64_t seed);

/// Wall ns per schedule_in + step pair on a fresh Scheduler holding `depth`
/// pending events (median of a few repeats).
[[nodiscard]] double sched_ns_per_op(std::size_t depth, std::uint64_t seed);

}  // namespace perfbench
