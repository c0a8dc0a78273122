// Event-kind profiler for the scheduler hot path (DESIGN.md §6.4).
//
// Every scheduled event carries a one-byte EventCategory chosen at the
// call site (channel sampling, MAC tx/rx, backhaul delivery, control
// handling, timer fires). The tag itself is free and always present; the
// *measurement* is opt-in: only when an EventProfiler is attached does
// Scheduler::step() read the profiler's clock once per event and attribute
// the time since the previous read to the event's category. With no profiler
// attached the scheduler pays a single pointer compare per event and
// seeded runs stay byte-identical — profiling never perturbs virtual time,
// only observes wall time.
//
// The profile answers where a run's wall time goes, event kind by event
// kind. bench_perf_engine prints the per-kind breakdown, run_drive exports
// it as `sim.profile.*` instruments in the metrics snapshot, and perfbench's
// traced runs turn it into the per-kind ledger (`sim.profile.*_ns_per_pkt`).
#pragma once

#include <array>
#include <chrono>
#include <cstdint>
#include <string_view>

#if defined(__x86_64__)
#include <x86intrin.h>
#endif

#include "obs/metrics.h"

namespace wgtt::sim {

/// Attribution label for one scheduled event. The named categories mirror
/// the simulator's layers; kOther is the default for call sites that carry
/// no tag (accuracy probes, scenario glue).
enum class EventCategory : std::uint8_t {
  kChannel,   // CSI sampling / probing / channel scan-and-follow
  kMacTx,     // AP-side transmission: contention, A-MPDU tx, pump, beacons
  kMacRx,     // medium delivery: airtime end, decode, on_heard fan-out
  kBackhaul,  // wired message delivery (controller <-> APs, server wire)
  kControl,   // switching protocol handling, liveness, fault scripts
  kTimer,     // transport timers: TCP RTO, UDP pacing, app ticks
  kOther,     // untagged (scenario glue, accuracy probes)
};

/// Total number of categories; values are contiguous from 0. Tests iterate
/// this to catch a new category left out of to_string.
inline constexpr int kNumEventCategories = 7;

[[nodiscard]] std::string_view to_string(EventCategory cat);

/// Wall-time accumulator per event category. Owned by whoever drives the
/// run (the bench harness); attached to a Scheduler via set_profiler().
///
/// Per-event durations land in fixed-layout histograms (microseconds,
/// 0-50 us in 0.25 us buckets — comfortably around the ~1 us mean event)
/// that flush_to() adds into a MetricsRegistry bucket for bucket. Times are
/// kept in fixed point (2^-16 ns), so recording an event is integer
/// arithmetic only.
class EventProfiler {
 public:
  /// Shared bucket layout of the per-category histograms and their
  /// registry counterparts (`sim.profile.<cat>_us`).
  static constexpr double kHistLoUs = 0.0;
  static constexpr double kHistHiUs = 50.0;
  static constexpr std::size_t kHistBuckets = 200;

  EventProfiler();

  /// The profiler's clock, in ticks: the CPU's time-stamp counter where it
  /// is invariant (x86-64 with constant_tsc/nonstop_tsc), which reads in
  /// about half the time of steady_clock; steady_clock nanoseconds
  /// elsewhere. Ticks convert to nanoseconds at a rate calibrated once per
  /// process against steady_clock.
  [[nodiscard]] std::uint64_t now() const {
#if defined(__x86_64__)
    if (tsc_) return __rdtsc();
#endif
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
  }

  /// Records one event of `cat` that took `ticks` of now(). What
  /// Scheduler::step() adds per profiled event is one now() and this call.
  void record_ticks(EventCategory cat, std::uint64_t ticks) {
    record_fixed(cat, ticks * fixed_per_tick_);
  }

  /// Records one event of `cat` that took `ns` wall nanoseconds.
  void record(EventCategory cat, std::uint64_t ns) {
    record_fixed(cat, ns << kFixedBits);
  }

  [[nodiscard]] std::uint64_t events(EventCategory cat) const;
  [[nodiscard]] std::uint64_t total_ns(EventCategory cat) const;
  [[nodiscard]] std::uint64_t total_events() const;
  [[nodiscard]] std::uint64_t total_ns() const;

  /// Folds another profiler's cells into this one. The parallel engine
  /// attaches one profiler per domain scheduler (each scheduler is stepped
  /// by exactly one worker at a time, so recording stays single-writer) and
  /// merges them in ascending domain order after the run — the merged
  /// totals keep bench_perf_engine's coverage and overhead gates meaningful
  /// when the run used several threads.
  void merge_from(const EventProfiler& other);

  /// Exports the profile into `registry`:
  ///   sim.profile.<cat>_us   histogram  per-event wall microseconds
  ///   sim.profile.<cat>_ns   counter    total wall nanoseconds
  ///   sim.profile.events     counter    events profiled across categories
  /// Wall-clock values vary host to host, so callers only flush when the
  /// profiler was explicitly enabled (the record_perf rule).
  void flush_to(obs::MetricsRegistry& registry) const;

 private:
  static constexpr int kFixedBits = 16;  // times in 2^-16 ns
  static constexpr std::uint64_t kFixedPerBucket = 250ull << kFixedBits;
  static_assert((kHistHiUs - kHistLoUs) * 1e3 / kHistBuckets == 250.0 &&
                kHistLoUs == 0.0);

  struct Cell {
    std::uint64_t events = 0;
    std::uint64_t fixed = 0;  // total
    std::uint64_t min = ~std::uint64_t{0};
    std::uint64_t max = 0;
    std::array<std::uint64_t, kHistBuckets + 1> buckets{};  // last: overflow
  };

  [[nodiscard]] static double fixed_to_ns(std::uint64_t fixed);

  // Single writer: the scheduler stepping this profiler's events.
  void record_fixed(EventCategory cat, std::uint64_t fixed) {
    Cell& c = cells_[static_cast<std::size_t>(cat)];
    ++c.events;
    c.fixed += fixed;
    c.min = fixed < c.min ? fixed : c.min;
    c.max = fixed > c.max ? fixed : c.max;
    const std::uint64_t bucket = fixed / kFixedPerBucket;
    ++c.buckets[bucket < kHistBuckets ? bucket : kHistBuckets];
  }

  bool tsc_;
  std::uint64_t fixed_per_tick_;
  std::array<Cell, kNumEventCategories> cells_{};
};

}  // namespace wgtt::sim
