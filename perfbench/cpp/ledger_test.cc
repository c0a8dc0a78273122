// Unit tests for the benchmark's percentile rule and span self-time
// arithmetic. Build with the perfbench project and run `perfbench_test`
// (run.py --selftest does both).
#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "ledger.h"

namespace perfbench {
namespace {

std::vector<double> one_to(int n) {
  std::vector<double> v;
  for (int i = n; i >= 1; --i) v.push_back(i);  // unsorted on purpose
  return v;
}

TEST(PercentileRule, EmptyGivesZeros) {
  const TailStat s = summarize({});
  EXPECT_EQ(s.n, 0u);
  EXPECT_EQ(s.p50, 0.0);
  EXPECT_EQ(s.tail, 0.0);
}

TEST(PercentileRule, NearestRankMedian) {
  EXPECT_EQ(summarize(one_to(9)).p50, 5.0);
  EXPECT_EQ(summarize(one_to(10)).p50, 5.0);
  EXPECT_EQ(summarize({7.0}).p50, 7.0);
}

TEST(PercentileRule, TooFewSamplesForAnyTail) {
  // p90 of 19 samples is rank 18: one sample above it, not ten.
  const TailStat s = summarize(one_to(19));
  EXPECT_EQ(s.tail_q, 0.5);
  EXPECT_EQ(s.tail, s.p50);
}

TEST(PercentileRule, TailNeedsTenSamplesAboveIt) {
  // 100 samples: p90 is rank 90 with ten above; p99 (rank 99) has one.
  TailStat s = summarize(one_to(100));
  EXPECT_EQ(s.tail_q, 0.9);
  EXPECT_EQ(s.tail, 90.0);
  // 1009 samples: p99 is rank ceil(998.91) = 999, with ten above it.
  s = summarize(one_to(1009));
  EXPECT_EQ(s.tail_q, 0.99);
  EXPECT_EQ(s.tail, 999.0);
  // 1008 samples: p99 is rank 998 with ten above; 1000 samples: rank 990.
  EXPECT_EQ(summarize(one_to(1008)).tail_q, 0.99);
  EXPECT_EQ(summarize(one_to(1000)).tail_q, 0.99);
  // 10009 samples reach p99.9 (rank 9999, ten above).
  s = summarize(one_to(10009));
  EXPECT_EQ(s.tail_q, 0.999);
  EXPECT_EQ(s.tail, 9999.0);
  EXPECT_EQ(s.n, 10009u);
}

TEST(PercentileRule, BoundaryJustBelowTenAbove) {
  // 109 samples: p99 is rank ceil(107.91) = 108, only one above -> p90.
  EXPECT_EQ(summarize(one_to(109)).tail_q, 0.9);
  // 20 samples: p90 is rank 18, two above -> no tail.
  EXPECT_EQ(summarize(one_to(20)).tail_q, 0.5);
}

Span make(std::uint32_t name, std::int32_t parent, std::int64_t a,
          std::int64_t b) {
  Span s;
  s.name = name;
  s.parent = parent;
  s.start_ns = a;
  s.end_ns = b;
  return s;
}

TEST(SelfTime, LeafIsItsDuration) {
  const auto self = self_times({make(0, -1, 10, 25)});
  ASSERT_EQ(self.size(), 1u);
  EXPECT_EQ(self[0], 15);
}

TEST(SelfTime, SubtractsDisjointChildren) {
  // parent [0,100), children [10,20) and [50,80): self = 100 - 10 - 30.
  const auto self = self_times(
      {make(0, -1, 0, 100), make(1, 0, 10, 20), make(1, 0, 50, 80)});
  EXPECT_EQ(self[0], 60);
  EXPECT_EQ(self[1], 10);
  EXPECT_EQ(self[2], 30);
}

TEST(SelfTime, OverlappingChildrenCountOnce) {
  // children [10,40) and [30,60) cover [10,60) = 50.
  const auto self = self_times(
      {make(0, -1, 0, 100), make(1, 0, 10, 40), make(1, 0, 30, 60)});
  EXPECT_EQ(self[0], 50);
}

TEST(SelfTime, ChildOutsideParentIsClipped) {
  // child [90,130) only covers [90,100) of the parent.
  const auto self = self_times({make(0, -1, 0, 100), make(1, 0, 90, 130)});
  EXPECT_EQ(self[0], 90);
}

TEST(SelfTime, OnlyDirectChildrenCount) {
  // grandchild time is already inside the child's interval.
  const auto self = self_times({make(0, -1, 0, 100), make(1, 0, 10, 60),
                                make(2, 1, 20, 30)});
  EXPECT_EQ(self[0], 50);
  EXPECT_EQ(self[1], 40);
  EXPECT_EQ(self[2], 10);
}

TEST(SpanRecorder, NestsAndTotals) {
  SpanRecorder rec;
  const auto outer = rec.intern("outer");
  const auto inner = rec.intern("inner");
  EXPECT_EQ(rec.intern("outer"), outer);
  {
    ScopedSpan a(&rec, outer);
    { ScopedSpan b(&rec, inner, 42); }
    { ScopedSpan c(&rec, inner, 43); }
  }
  ASSERT_EQ(rec.spans().size(), 3u);
  EXPECT_EQ(rec.spans()[0].parent, -1);
  EXPECT_EQ(rec.spans()[1].parent, 0);
  EXPECT_EQ(rec.spans()[2].parent, 0);
  EXPECT_EQ(rec.spans()[2].uid, 43u);
  const auto totals = totals_by_name(rec);
  EXPECT_EQ(totals[inner].count, 2u);
  EXPECT_EQ(totals[outer].count, 1u);
  EXPECT_EQ(totals[outer].self_ns + totals[inner].total_ns,
            totals[outer].total_ns);
}

TEST(SelfTime, ReceiveThatSendsAnAckExcludesTheUplink) {
  // transport.rx [0,100) calls mac.send_uplink [30,90) synchronously (a TCP
  // receiver's ACK), which calls core.server_send [40,50) (the sender
  // reacting to the ACK). Each per-call sample is the layer's own time.
  const std::vector<Span> spans = {make(0, -1, 0, 100), make(1, 0, 30, 90),
                                   make(2, 1, 40, 50)};
  const auto self = self_times(spans);
  EXPECT_EQ(self[0], 40);
  EXPECT_EQ(self[1], 50);
  EXPECT_EQ(self[2], 10);
  EXPECT_EQ(self[0] + self[1] + self[2], spans[0].end_ns - spans[0].start_ns);
}

TEST(SpanRecorder, SelfSamplesExcludeNestedCalls) {
  SpanRecorder rec;
  const auto rx = rec.intern("transport.rx");
  const auto uplink = rec.intern("mac.send_uplink");
  for (int i = 0; i < 3; ++i) {
    ScopedSpan a(&rec, rx, static_cast<std::uint64_t>(i));
    ScopedSpan b(&rec, uplink, static_cast<std::uint64_t>(i));
  }
  const auto totals = totals_by_name(rec);
  ASSERT_EQ(totals[rx].self_samples_ns.size(), 3u);
  ASSERT_EQ(totals[uplink].self_samples_ns.size(), 3u);
  double rx_self = 0.0;
  double uplink_self = 0.0;
  for (std::size_t k = 0; k < 3; ++k) {
    const Span& outer = rec.spans()[2 * k];
    const Span& inner = rec.spans()[2 * k + 1];
    // A leaf's sample is its duration; the parent's excludes the leaf.
    EXPECT_EQ(totals[uplink].self_samples_ns[k],
              static_cast<double>(inner.end_ns - inner.start_ns));
    EXPECT_EQ(totals[rx].self_samples_ns[k],
              static_cast<double>((outer.end_ns - outer.start_ns) -
                                  (inner.end_ns - inner.start_ns)));
    rx_self += totals[rx].self_samples_ns[k];
    uplink_self += totals[uplink].self_samples_ns[k];
  }
  EXPECT_EQ(rx_self, static_cast<double>(totals[rx].self_ns));
  EXPECT_EQ(rx_self + uplink_self, static_cast<double>(totals[rx].total_ns));
}

TEST(SpanRecorder, NullRecorderIsNoOp) {
  ScopedSpan s(nullptr, 0);
  SUCCEED();
}

TEST(ChromeTrace, CapsPerNameAndReportsDrops) {
  SpanRecorder rec;
  const auto pkt = rec.intern("pkt");
  for (int i = 0; i < 5; ++i) ScopedSpan s(&rec, pkt, static_cast<std::uint64_t>(i));
  std::ostringstream out;
  write_chrome_trace(out, rec, 3);
  const std::string json = out.str();
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"dropped\":{\"pkt\":2}"), std::string::npos);
  std::size_t events = 0;
  for (std::size_t p = json.find("\"ph\":\"X\""); p != std::string::npos;
       p = json.find("\"ph\":\"X\"", p + 1)) {
    ++events;
  }
  EXPECT_EQ(events, 3u);
}

}  // namespace
}  // namespace perfbench
