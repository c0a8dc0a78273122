// The benchmark's own tracing: spans recorded around its calls into the
// simulator's layers, the self-time arithmetic that turns them into a
// per-layer ledger, the percentile rule every timing is reported with, and
// the Chrome trace_event writer (the format wgtt-trace emits, which
// Perfetto opens).
//
// Spans stay in memory while the traced run executes and are written once
// at the end. Recording is single-threaded: one recorder per simulated
// drive, driven from the thread that runs the drive.
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

/// A timing reported by the percentile rule: the median and the highest
/// percentile of the ladder 90, 99, 99.9, ... that still has at least ten
/// samples ranked above it, with the sample count. Fewer than 20 samples
/// leave no eligible tail; the tail then repeats the median (tail_q 0.5).
struct TailStat {
  double p50 = 0.0;
  double tail = 0.0;
  double tail_q = 0.0;  ///< quantile the tail reports, e.g. 0.99
  std::size_t n = 0;
};

/// Applies the percentile rule to `samples` (any order; empty gives zeros).
/// Quantiles are nearest-rank: the sample at rank ceil(q * n), 1-based.
[[nodiscard]] TailStat summarize(std::vector<double> samples);

/// One recorded interval. `parent` is the index of the span that was open
/// when this one began (-1 for a root); `drive` groups the spans of one
/// simulated drive; `uid` is the packet uid of a per-packet span (0 if none).
struct Span {
  std::uint32_t name = 0;
  std::int32_t parent = -1;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::uint64_t drive = 0;
  std::uint64_t uid = 0;
};

/// Self time of every span: its duration minus the part of its interval
/// that its direct children cover (overlapping children are counted once,
/// and a child's part outside its parent is ignored). Indexed like `spans`.
[[nodiscard]] std::vector<std::int64_t> self_times(const std::vector<Span>& spans);

class SpanRecorder {
 public:
  SpanRecorder();
  SpanRecorder(const SpanRecorder&) = delete;
  SpanRecorder& operator=(const SpanRecorder&) = delete;

  /// Returns the id of `name`, adding it on first use.
  std::uint32_t intern(std::string_view name);
  [[nodiscard]] const std::vector<std::string>& names() const { return names_; }

  /// Opens a span under the innermost open one; returns its index.
  std::size_t begin(std::uint32_t name, std::uint64_t uid = 0);
  /// Closes span `index`. Spans must close innermost first; a span closed
  /// out of order also closes the spans opened inside it, and clears ok().
  void end(std::size_t index);
  /// False once a span was closed out of order.
  [[nodiscard]] bool ok() const { return ok_; }

  void set_drive(std::uint64_t drive) { drive_ = drive; }
  [[nodiscard]] std::int64_t now_ns() const;
  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }

 private:
  std::chrono::steady_clock::time_point epoch_;
  std::vector<std::string> names_;
  std::vector<Span> spans_;
  std::vector<std::int32_t> open_;
  std::uint64_t drive_ = 0;
  bool ok_ = true;
};

/// RAII span; a null recorder makes it a no-op, so untraced runs execute
/// the same callbacks with nothing recorded.
class ScopedSpan {
 public:
  ScopedSpan(SpanRecorder* rec, std::uint32_t name, std::uint64_t uid = 0)
      : rec_(rec), index_(rec != nullptr ? rec->begin(name, uid) : 0) {}
  ~ScopedSpan() {
    if (rec_ != nullptr) rec_->end(index_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanRecorder* rec_;
  std::size_t index_;
};

/// Per-name totals over a recorder's spans. `self_samples_ns` holds each
/// span's self time, so a per-call timing of a span that can have children
/// (a receive that sends an ACK uplink) excludes the children's cost.
struct SpanTotals {
  std::string name;
  std::size_t count = 0;
  std::int64_t total_ns = 0;
  std::int64_t self_ns = 0;
  std::vector<double> self_samples_ns;
};
[[nodiscard]] std::vector<SpanTotals> totals_by_name(const SpanRecorder& rec);

/// Writes the spans as Chrome trace_event JSON ("X" complete events, times
/// in microseconds). At most `per_name_cap` spans of each name are written,
/// so per-packet spans cannot blow the file up; the metadata records how
/// many were kept and dropped.
void write_chrome_trace(std::ostream& out, const SpanRecorder& rec,
                        std::size_t per_name_cap);

}  // namespace perfbench
