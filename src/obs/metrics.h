// Metrics layer: named counters, gauges, and fixed-bucket histograms.
//
// The paper's evaluation is built on tcpdump-grade visibility: switch
// timing (Table 1), spurious-retransmission counts (Table 3) and per-AP
// airtime shares are all *measured*. The MetricsRegistry is the in-process
// equivalent: it snapshots the whole system as JSON under stable
// `component.metric` names.
//
// Each fact is counted once (DESIGN.md §6.1). A component counts into its
// own `Stats` fields and binds each counter key to the field (or to a
// computed total) through CounterBindings; the registry reads the field
// whenever it is asked and keeps no copy. Histograms and gauges are
// written directly by their components, and Counter::inc() remains for
// keys no component owns (`parallel.*`, `sim.profile.*`).
//
// Naming scheme: `component.metric`, lower_snake_case, with the unit as a
// suffix where one applies (`controller.switch_time_ms`, `tcp.rtt_ms`).
// Registering the same name twice returns the same instrument, so several
// instances of a component (the eight APs, say) naturally aggregate.
#pragma once

#include <atomic>
#include <cstdint>
#include <iosfwd>
#include <map>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <string_view>
#include <vector>

namespace wgtt::obs {

class CounterBindings;

/// Monotonic event count: its own base value plus the growth of every
/// source bound to it (CounterBindings). inc() is a relaxed atomic, so
/// concurrent writers of an unbound key never tear. A bound source is a
/// plain field of its component, so a bound counter is read on the thread
/// that runs the component, or after that thread has joined.
class Counter {
 public:
  void inc(std::uint64_t n = 1) { v_.fetch_add(n, std::memory_order_relaxed); }
  [[nodiscard]] std::uint64_t value() const;

 private:
  friend class CounterBindings;
  friend class MetricsRegistry;
  /// One component-owned count: `*count` when `read` is null, else
  /// read(count).
  struct Source {
    const void* count;
    std::uint64_t (*read)(const void*);
    std::uint64_t at_bind;  // the count when bound: earlier counts are not ours
    CounterBindings* owner;
    [[nodiscard]] std::uint64_t current() const {
      return read != nullptr ? read(count)
                             : *static_cast<const std::uint64_t*>(count);
    }
  };
  std::atomic<std::uint64_t> v_{0};
  std::vector<Source> sources_;
};

/// Last-written instantaneous value (queue depth, table occupancy).
class Gauge {
 public:
  void set(double v) { v_.store(v, std::memory_order_relaxed); }
  [[nodiscard]] double value() const {
    return v_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<double> v_{0.0};
};

/// Fixed-bucket histogram over [lo, hi): `num_buckets` equal-width linear
/// buckets plus explicit underflow/overflow counts and exact min/max/sum.
/// Percentile queries interpolate linearly inside the bucket that crosses
/// the requested rank and clamp to the observed [min, max], so a
/// single-sample histogram answers every percentile exactly and estimates
/// are never off by more than one bucket width.
class Histogram {
 public:
  Histogram(double lo, double hi, std::size_t num_buckets);

  void observe(double x);
  /// Adds observations already sorted into this histogram's buckets
  /// (`bucket_counts` has num_buckets() entries), given their overflow
  /// count, sum and extrema: for a single-writer recorder that buckets
  /// integer samples itself (the event profiler).
  void add_bucketed(std::span<const std::uint64_t> bucket_counts,
                    std::uint64_t overflow, double sum, double min, double max);

  [[nodiscard]] std::uint64_t count() const {
    return count_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] double sum() const { return sum_.load(std::memory_order_relaxed); }
  /// Exact observed extrema (0 when empty).
  [[nodiscard]] double min() const;
  [[nodiscard]] double max() const;
  [[nodiscard]] double mean() const;

  /// q in [0, 1]; 0 when empty.
  [[nodiscard]] double percentile(double q) const;
  [[nodiscard]] double p50() const { return percentile(0.50); }
  [[nodiscard]] double p90() const { return percentile(0.90); }
  [[nodiscard]] double p99() const { return percentile(0.99); }

  [[nodiscard]] double lo() const { return lo_; }
  [[nodiscard]] double hi() const { return hi_; }
  [[nodiscard]] std::size_t num_buckets() const { return buckets_.size(); }
  [[nodiscard]] std::uint64_t bucket_count(std::size_t i) const {
    return buckets_[i].load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t underflow() const {
    return underflow_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t overflow() const {
    return overflow_.load(std::memory_order_relaxed);
  }

  /// Folds `other` into this histogram: bucket-wise counts add, sum adds,
  /// and the extrema widen. Both histograms must have been registered with
  /// the same [lo, hi) range and bucket count — merging different layouts
  /// would silently misattribute counts, so that case is ignored (merge is
  /// a no-op and the caller's layout wins, mirroring the first-registration
  /// rule in MetricsRegistry::histogram).
  void merge_from(const Histogram& other);

 private:
  std::atomic<std::uint64_t>& bucket_for(double x);

  double lo_;
  double hi_;
  double width_;
  std::vector<std::atomic<std::uint64_t>> buckets_;
  std::atomic<std::uint64_t> underflow_{0};
  std::atomic<std::uint64_t> overflow_{0};
  std::atomic<std::uint64_t> count_{0};
  std::atomic<double> sum_{0.0};
  std::atomic<double> min_{0.0};
  std::atomic<double> max_{0.0};
};

/// Owns every instrument, keyed by name. Registration and binding take a
/// mutex (cold path: components bind or resolve pointers once in
/// set_metrics); observations go straight to the instrument. std::map keeps
/// snapshots sorted, so the JSON output is byte-for-byte deterministic for
/// a deterministic run.
class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;
  /// Releases the sources still bound here, without folding: the
  /// components may outlive the registry, and they stop counting into it.
  ~MetricsRegistry();

  Counter& counter(std::string_view name);
  Gauge& gauge(std::string_view name);
  /// Returns the existing histogram if `name` was registered before (the
  /// bucket layout of the first registration wins).
  Histogram& histogram(std::string_view name, double lo, double hi,
                       std::size_t num_buckets);

  [[nodiscard]] const Counter* find_counter(std::string_view name) const;
  [[nodiscard]] const Gauge* find_gauge(std::string_view name) const;
  [[nodiscard]] const Histogram* find_histogram(std::string_view name) const;

  /// JSON snapshot (schema documented in DESIGN.md §Observability).
  void write_json(std::ostream& out) const;
  [[nodiscard]] std::string to_json() const;

  /// Folds another registry into this one: counters add (bound sources at
  /// their current values), histograms merge
  /// bucket-wise (layouts must match — see Histogram::merge_from), and
  /// gauges take `other`'s value (last-write-wins, in merge order).
  /// Instruments missing on this side are created. The bench TrialPool
  /// uses this to combine per-trial registries into one aggregate snapshot
  /// in trial-index order, so the merged JSON is independent of how many
  /// worker threads ran the trials.
  void merge_from(const MetricsRegistry& other);

 private:
  friend class CounterBindings;
  Counter& counter_locked(std::string_view name);  // mu_ held

  mutable std::mutex mu_;
  std::map<std::string, std::unique_ptr<Counter>, std::less<>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>, std::less<>> gauges_;
  std::map<std::string, std::unique_ptr<Histogram>, std::less<>> histograms_;
};

/// A component's counter keys, each bound to a count the component already
/// keeps (DESIGN.md §6.1). The registry reads the source when asked: a
/// counter's value is its base plus each bound source's growth since the
/// bind. release() — and so set_metrics(nullptr), binding into another
/// registry, or destroying the component — folds that growth into the
/// counter's base, so the registry keeps the count after the component is
/// gone, and later counts are not seen. Destroying the registry first
/// releases the bindings without folding. Two owners that bind one key add
/// up.
class CounterBindings {
 public:
  CounterBindings() = default;
  CounterBindings(const CounterBindings&) = delete;
  CounterBindings& operator=(const CounterBindings&) = delete;
  ~CounterBindings() { release(); }

  /// Binds `key` in `registry` to a field that outlives the binding.
  void bind(MetricsRegistry& registry, std::string_view key,
            const std::uint64_t& source);
  /// Binds `key` in `registry` to read(owner), a count computed when asked
  /// (a sum over peers, say); `owner` outlives the binding.
  void bind(MetricsRegistry& registry, std::string_view key, const void* owner,
            std::uint64_t (*read)(const void*));
  /// The same, for a counter already looked up in `registry` (a system
  /// binding many components to one key resolves it once).
  void bind(MetricsRegistry& registry, Counter& counter,
            const std::uint64_t& source);
  void bind(MetricsRegistry& registry, Counter& counter, const void* owner,
            std::uint64_t (*read)(const void*));
  /// Folds every bound source's growth into its counter and unbinds it.
  void release();

 private:
  friend class MetricsRegistry;
  MetricsRegistry* registry_ = nullptr;  // null when nothing is bound
  std::vector<Counter*> counters_;       // one entry per bind
};

}  // namespace wgtt::obs
