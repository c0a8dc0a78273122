#include "ledger.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdio>
#include <ostream>

namespace perfbench {

namespace {

/// 1-based nearest rank of quantile q among n samples, in [1, n]. The
/// epsilon keeps products like 0.9 * 100 from rounding up a rank.
std::size_t rank_of(double q, std::size_t n) {
  const auto r = static_cast<std::size_t>(std::ceil(q * static_cast<double>(n) - 1e-9));
  return std::clamp<std::size_t>(r, 1, n);
}

}  // namespace

TailStat summarize(std::vector<double> samples) {
  TailStat s;
  s.n = samples.size();
  if (samples.empty()) return s;
  std::sort(samples.begin(), samples.end());
  s.p50 = samples[rank_of(0.5, s.n) - 1];
  s.tail = s.p50;
  s.tail_q = 0.5;
  static constexpr std::array<double, 6> kLadder = {0.9,    0.99,    0.999,
                                                    0.9999, 0.99999, 0.999999};
  for (const double q : kLadder) {
    const std::size_t rank = rank_of(q, s.n);
    if (s.n < rank + 10) break;  // fewer than ten samples ranked above it
    s.tail = samples[rank - 1];
    s.tail_q = q;
  }
  return s;
}

std::vector<std::int64_t> self_times(const std::vector<Span>& spans) {
  std::vector<std::vector<std::size_t>> children(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const std::int32_t p = spans[i].parent;
    if (p >= 0 && static_cast<std::size_t>(p) < spans.size()) {
      children[static_cast<std::size_t>(p)].push_back(i);
    }
  }
  std::vector<std::int64_t> self(spans.size(), 0);
  std::vector<std::pair<std::int64_t, std::int64_t>> cover;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    cover.clear();
    for (const std::size_t c : children[i]) {
      const std::int64_t a = std::max(spans[c].start_ns, s.start_ns);
      const std::int64_t b = std::min(spans[c].end_ns, s.end_ns);
      if (b > a) cover.emplace_back(a, b);
    }
    std::sort(cover.begin(), cover.end());
    std::int64_t covered = 0;
    std::int64_t run_a = 0;
    std::int64_t run_b = 0;
    bool open = false;
    for (const auto& [a, b] : cover) {
      if (open && a <= run_b) {
        run_b = std::max(run_b, b);
        continue;
      }
      if (open) covered += run_b - run_a;
      run_a = a;
      run_b = b;
      open = true;
    }
    if (open) covered += run_b - run_a;
    self[i] = (s.end_ns - s.start_ns) - covered;
  }
  return self;
}

SpanRecorder::SpanRecorder() : epoch_(std::chrono::steady_clock::now()) {}

std::uint32_t SpanRecorder::intern(std::string_view name) {
  for (std::size_t i = 0; i < names_.size(); ++i) {
    if (names_[i] == name) return static_cast<std::uint32_t>(i);
  }
  names_.emplace_back(name);
  return static_cast<std::uint32_t>(names_.size() - 1);
}

std::int64_t SpanRecorder::now_ns() const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now() - epoch_)
      .count();
}

std::size_t SpanRecorder::begin(std::uint32_t name, std::uint64_t uid) {
  Span s;
  s.name = name;
  s.parent = open_.empty() ? -1 : open_.back();
  s.drive = drive_;
  s.uid = uid;
  s.start_ns = now_ns();
  spans_.push_back(s);
  open_.push_back(static_cast<std::int32_t>(spans_.size() - 1));
  return spans_.size() - 1;
}

void SpanRecorder::end(std::size_t index) {
  const std::int64_t t = now_ns();
  while (!open_.empty()) {
    const auto top = static_cast<std::size_t>(open_.back());
    open_.pop_back();
    spans_[top].end_ns = t;
    if (top == index) return;
    ok_ = false;
  }
  ok_ = false;
}

std::vector<SpanTotals> totals_by_name(const SpanRecorder& rec) {
  std::vector<SpanTotals> out(rec.names().size());
  for (std::size_t i = 0; i < out.size(); ++i) out[i].name = rec.names()[i];
  const std::vector<std::int64_t> self = self_times(rec.spans());
  for (std::size_t i = 0; i < rec.spans().size(); ++i) {
    const Span& s = rec.spans()[i];
    SpanTotals& t = out[s.name];
    ++t.count;
    t.total_ns += s.end_ns - s.start_ns;
    t.self_ns += self[i];
    t.self_samples_ns.push_back(static_cast<double>(self[i]));
  }
  return out;
}

namespace {

void json_string(std::ostream& out, std::string_view s) {
  out << '"';
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out << '\\' << c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out << buf;
    } else {
      out << c;
    }
  }
  out << '"';
}

}  // namespace

void write_chrome_trace(std::ostream& out, const SpanRecorder& rec,
                        std::size_t per_name_cap) {
  const std::vector<std::int64_t> self = self_times(rec.spans());
  std::vector<std::size_t> written(rec.names().size(), 0);
  std::vector<std::size_t> dropped(rec.names().size(), 0);
  out << "{\"traceEvents\":[\n";
  out << "{\"ph\":\"M\",\"pid\":1,\"name\":\"process_name\",\"args\":{\"name\":"
         "\"perfbench\"}},\n";
  out << "{\"ph\":\"M\",\"pid\":1,\"tid\":1,\"name\":\"thread_name\","
         "\"args\":{\"name\":\"drive\"}}";
  char buf[64];
  for (std::size_t i = 0; i < rec.spans().size(); ++i) {
    const Span& s = rec.spans()[i];
    if (written[s.name] >= per_name_cap) {
      ++dropped[s.name];
      continue;
    }
    ++written[s.name];
    out << ",\n{\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":";
    std::snprintf(buf, sizeof(buf), "%.3f", static_cast<double>(s.start_ns) / 1e3);
    out << buf << ",\"dur\":";
    std::snprintf(buf, sizeof(buf), "%.3f",
                  static_cast<double>(s.end_ns - s.start_ns) / 1e3);
    out << buf << ",\"name\":";
    json_string(out, rec.names()[s.name]);
    out << ",\"args\":{\"id\":" << i << ",\"parent\":" << s.parent
        << ",\"drive\":" << s.drive << ",\"uid\":" << s.uid
        << ",\"self_ns\":" << self[i] << "}}";
  }
  out << "\n],\"otherData\":{\"per_name_cap\":" << per_name_cap
      << ",\"spans_total\":" << rec.spans().size() << ",\"dropped\":{";
  bool first = true;
  for (std::size_t n = 0; n < rec.names().size(); ++n) {
    if (dropped[n] == 0) continue;
    if (!first) out << ',';
    first = false;
    json_string(out, rec.names()[n]);
    out << ':' << dropped[n];
  }
  out << "}}}\n";
}

}  // namespace perfbench
