#include "sim/profiler.h"

#include <cmath>

#if defined(__x86_64__)
#include <cpuid.h>
#endif

namespace wgtt::sim {

namespace {
constexpr double kLo = EventProfiler::kHistLoUs;
constexpr double kHi = EventProfiler::kHistHiUs;
constexpr std::size_t kN = EventProfiler::kHistBuckets;

struct ProfileClock {
  bool tsc = false;
  double ns_per_tick = 1.0;
};

// The time-stamp counter, if it ticks at a constant rate in every power
// state (CPUID 0x80000007 EDX bit 8), with its rate measured over 1 ms of
// steady_clock; else steady_clock itself.
ProfileClock detect_clock() {
#if defined(__x86_64__)
  unsigned a = 0, b = 0, c = 0, d = 0;
  if (__get_cpuid(0x80000007, &a, &b, &c, &d) != 0 && (d & (1u << 8)) != 0) {
    using std::chrono::steady_clock;
    const auto t0 = steady_clock::now();
    const std::uint64_t c0 = __rdtsc();
    auto t1 = t0;
    std::uint64_t c1 = c0;
    while (t1 - t0 < std::chrono::milliseconds(1)) {
      t1 = steady_clock::now();
      c1 = __rdtsc();
    }
    if (c1 > c0) {
      return {true, std::chrono::duration<double, std::nano>(t1 - t0).count() /
                        static_cast<double>(c1 - c0)};
    }
  }
#endif
  return {};
}

const ProfileClock& profile_clock() {
  static const ProfileClock clock = detect_clock();
  return clock;
}
}  // namespace

std::string_view to_string(EventCategory cat) {
  switch (cat) {
    case EventCategory::kChannel: return "channel";
    case EventCategory::kMacTx: return "mac_tx";
    case EventCategory::kMacRx: return "mac_rx";
    case EventCategory::kBackhaul: return "backhaul";
    case EventCategory::kControl: return "control";
    case EventCategory::kTimer: return "timer";
    case EventCategory::kOther: return "other";
  }
  return "?";
}

EventProfiler::EventProfiler()
    : tsc_(profile_clock().tsc),
      fixed_per_tick_(static_cast<std::uint64_t>(
          std::llround(profile_clock().ns_per_tick * (1 << kFixedBits)))) {}

double EventProfiler::fixed_to_ns(std::uint64_t fixed) {
  return std::ldexp(static_cast<double>(fixed), -kFixedBits);
}

std::uint64_t EventProfiler::events(EventCategory cat) const {
  return cells_[static_cast<std::size_t>(cat)].events;
}

std::uint64_t EventProfiler::total_ns(EventCategory cat) const {
  return static_cast<std::uint64_t>(
      std::llround(fixed_to_ns(cells_[static_cast<std::size_t>(cat)].fixed)));
}

std::uint64_t EventProfiler::total_events() const {
  std::uint64_t n = 0;
  for (const Cell& c : cells_) n += c.events;
  return n;
}

std::uint64_t EventProfiler::total_ns() const {
  std::uint64_t fixed = 0;
  for (const Cell& c : cells_) fixed += c.fixed;
  return static_cast<std::uint64_t>(std::llround(fixed_to_ns(fixed)));
}

void EventProfiler::merge_from(const EventProfiler& other) {
  for (std::size_t i = 0; i < cells_.size(); ++i) {
    Cell& c = cells_[i];
    const Cell& o = other.cells_[i];
    c.events += o.events;
    c.fixed += o.fixed;
    c.min = std::min(c.min, o.min);
    c.max = std::max(c.max, o.max);
    for (std::size_t b = 0; b < c.buckets.size(); ++b) c.buckets[b] += o.buckets[b];
  }
}

void EventProfiler::flush_to(obs::MetricsRegistry& registry) const {
  for (int i = 0; i < kNumEventCategories; ++i) {
    const auto cat = static_cast<EventCategory>(i);
    const Cell& c = cells_[static_cast<std::size_t>(i)];
    const std::string base = "sim.profile." + std::string(to_string(cat));
    registry.histogram(base + "_us", kLo, kHi, kN)
        .add_bucketed(std::span(c.buckets).first(kHistBuckets),
                      c.buckets[kHistBuckets], fixed_to_ns(c.fixed) / 1e3,
                      fixed_to_ns(c.min) / 1e3, fixed_to_ns(c.max) / 1e3);
    registry.counter(base + "_ns").inc(total_ns(cat));
  }
  registry.counter("sim.profile.events").inc(total_events());
}

}  // namespace wgtt::sim
