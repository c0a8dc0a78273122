// Unit tests for sequence arithmetic, block-ACK bitmaps, and the receive
// duplicate filter — the state WGTT shares across APs.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <vector>

#include "mac/block_ack.h"
#include "util/rng.h"

namespace wgtt::mac {
namespace {

TEST(SeqMathTest, BasicOrdering) {
  EXPECT_TRUE(seq_less(1, 2));
  EXPECT_FALSE(seq_less(2, 1));
  EXPECT_FALSE(seq_less(5, 5));
}

TEST(SeqMathTest, WrapAround) {
  EXPECT_TRUE(seq_less(4090, 5));     // wraps forward
  EXPECT_FALSE(seq_less(5, 4090));
  EXPECT_EQ(seq_sub(5, 4090), 11);
  EXPECT_EQ(seq_add(4090, 11), 5);
  EXPECT_EQ(seq_add(4095, 1), 0);
}

TEST(SeqMathTest, HalfSpaceBoundary) {
  // Differences of exactly half the space are "not less" by convention.
  EXPECT_FALSE(seq_less(0, 2048));
  EXPECT_TRUE(seq_less(0, 2047));
}

TEST(SeqCounterTest, IncrementsAndWraps) {
  SeqCounter c(4094);
  EXPECT_EQ(c.next(), 4094);
  EXPECT_EQ(c.next(), 4095);
  EXPECT_EQ(c.next(), 0);
  EXPECT_EQ(c.peek(), 1);
}

TEST(BaBitmapTest, FromDecoded) {
  std::vector<std::uint16_t> decoded{10, 12, 13};
  const BaBitmap ba = BaBitmap::from_decoded(10, decoded);
  EXPECT_TRUE(ba.acks(10));
  EXPECT_FALSE(ba.acks(11));
  EXPECT_TRUE(ba.acks(12));
  EXPECT_TRUE(ba.acks(13));
  EXPECT_FALSE(ba.acks(14));
  EXPECT_EQ(ba.count(), 3);
}

TEST(BaBitmapTest, WindowBoundary) {
  BaBitmap ba;
  ba.start_seq = 100;
  ba.set(100);
  ba.set(163);      // last in the 64-window
  ba.set(164);      // outside: ignored
  EXPECT_TRUE(ba.acks(100));
  EXPECT_TRUE(ba.acks(163));
  EXPECT_FALSE(ba.acks(164));
  EXPECT_FALSE(ba.acks(99));
  EXPECT_EQ(ba.count(), 2);
}

TEST(BaBitmapTest, WrapsAroundSeqSpace) {
  BaBitmap ba;
  ba.start_seq = 4090;
  ba.set(4095);
  ba.set(3);  // 4090 + 9
  EXPECT_TRUE(ba.acks(4095));
  EXPECT_TRUE(ba.acks(3));
  EXPECT_FALSE(ba.acks(4090));
}

TEST(RxDupFilterTest, FirstIsNew) {
  RxDupFilter f;
  EXPECT_TRUE(f.accept(100));
  EXPECT_FALSE(f.accept(100));
}

TEST(RxDupFilterTest, InOrderStream) {
  RxDupFilter f;
  for (std::uint16_t s = 0; s < 1000; ++s) {
    EXPECT_TRUE(f.accept(s & 0x0fff));
  }
  // Replays within the window are duplicates.
  EXPECT_FALSE(f.accept(999));
  EXPECT_FALSE(f.accept(900));
}

TEST(RxDupFilterTest, OutOfOrderAccepted) {
  RxDupFilter f;
  EXPECT_TRUE(f.accept(10));
  EXPECT_TRUE(f.accept(12));
  EXPECT_TRUE(f.accept(11));   // late but new
  EXPECT_FALSE(f.accept(11));  // now a duplicate
}

TEST(RxDupFilterTest, FarBehindIsStale) {
  RxDupFilter f;
  EXPECT_TRUE(f.accept(1000));
  // 500 behind the newest is outside the 256 window: treated as stale.
  EXPECT_FALSE(f.accept(500));
}

TEST(RxDupFilterTest, LargeJumpClearsHistory) {
  RxDupFilter f;
  EXPECT_TRUE(f.accept(10));
  EXPECT_TRUE(f.accept(10 + 300));  // advance beyond window
  EXPECT_TRUE(f.accept(10 + 299));  // behind newest, inside window, unseen
}

TEST(RxDupFilterTest, WrapsThroughSeqSpace) {
  RxDupFilter f;
  for (int lap = 0; lap < 3; ++lap) {
    for (int s = 0; s < 4096; s += 16) {
      EXPECT_TRUE(f.accept(static_cast<std::uint16_t>(s))) << "lap " << lap;
    }
  }
}

TEST(RxDupFilterTest, Reset) {
  RxDupFilter f;
  EXPECT_TRUE(f.accept(5));
  f.reset();
  EXPECT_TRUE(f.accept(5));
}

// Property test: against a reference model (set of recently seen seqs), the
// filter never delivers a duplicate within the window and always accepts
// genuinely new in-window sequence numbers.
class DupFilterProperty : public ::testing::TestWithParam<int> {};

TEST_P(DupFilterProperty, MatchesReferenceModel) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 31 + 7);
  RxDupFilter f;
  std::set<int> delivered;  // absolute sequence numbers accepted
  int base = 0;             // absolute position of the stream head
  for (int step = 0; step < 3000; ++step) {
    // Move forward a little, sometimes retransmit an older one.
    int abs_seq;
    if (rng.chance(0.3) && base > 0) {
      abs_seq = base - static_cast<int>(rng.uniform_int(40));  // retransmit
    } else {
      base += static_cast<int>(rng.uniform_int(3));
      abs_seq = base;
    }
    if (abs_seq < 0) abs_seq = 0;
    const bool accepted = f.accept(static_cast<std::uint16_t>(abs_seq & 0x0fff));
    const bool was_new = !delivered.contains(abs_seq);
    if (accepted) {
      // Never deliver something already delivered.
      EXPECT_TRUE(was_new) << "duplicate delivered at step " << step;
      delivered.insert(abs_seq);
    }
    // Note: the filter may *drop* a new-but-stale seq (outside its window);
    // that is allowed — correctness is "no duplicates", completeness is
    // best-effort within the window.
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, DupFilterProperty, ::testing::Range(0, 20));

// The filter as it was before its window became a ring: a 256-entry history
// shifted one element per advanced position. Kept here only as the oracle
// the ring must match decision for decision.
class ShiftingDupFilter {
 public:
  bool accept(std::uint16_t seq) {
    seq &= kSeqSpace - 1;
    if (!started_) {
      started_ = true;
      newest_ = seq;
      std::fill(seen_.begin(), seen_.end(), false);
      seen_[0] = true;
      return true;
    }
    if (seq == newest_) return false;
    if (seq_less(newest_, seq)) {
      const std::uint16_t adv = seq_sub(seq, newest_);
      if (adv >= kWindow) {
        std::fill(seen_.begin(), seen_.end(), false);
      } else {
        for (int i = kWindow - 1; i >= 0; --i) {
          seen_[static_cast<std::size_t>(i)] =
              i >= adv ? seen_[static_cast<std::size_t>(i - adv)] : false;
        }
      }
      newest_ = seq;
      seen_[0] = true;
      return true;
    }
    const std::uint16_t back = seq_sub(newest_, seq);
    if (back >= kWindow) return false;
    if (seen_[back]) return false;
    seen_[back] = true;
    return true;
  }
  void reset() {
    started_ = false;
    newest_ = 0;
    std::fill(seen_.begin(), seen_.end(), false);
  }

 private:
  static constexpr int kWindow = 256;
  bool started_ = false;
  std::uint16_t newest_ = 0;
  std::vector<bool> seen_ = std::vector<bool>(kWindow, false);
};

TEST(RxDupFilterTest, RingMatchesShiftingFilterOnRandomStreams) {
  // 100k random streams of 32 decisions each, mixing small steps, advances
  // of a window or more, replays inside and beyond the window, 12-bit
  // wraps and mid-stream resets. Every decision must match the oracle.
  Rng rng(0x5eedf11e);
  constexpr int kStreams = 100'000;
  constexpr int kSteps = 32;
  int wraps = 0;
  int big_advances = 0;
  int far_backs = 0;
  int resets = 0;
  for (int stream = 0; stream < kStreams; ++stream) {
    RxDupFilter ring;
    ShiftingDupFilter oracle;
    auto newest = static_cast<std::uint16_t>(rng.uniform_int(kSeqSpace));
    for (int step = 0; step < kSteps; ++step) {
      const double u = rng.uniform();
      std::uint16_t next;
      if (u < 0.45) {  // small advance
        next = seq_add(newest, static_cast<std::uint16_t>(rng.uniform_int(8)));
      } else if (u < 0.55) {  // advance of about a window or more
        next = seq_add(newest,
                       static_cast<std::uint16_t>(200 + rng.uniform_int(400)));
      } else if (u < 0.85) {  // replay inside the window
        next = seq_add(newest, static_cast<std::uint16_t>(
                                   kSeqSpace - rng.uniform_int(256)));
      } else if (u < 0.97) {  // replay about a window back or further
        next = seq_add(newest, static_cast<std::uint16_t>(
                                   kSeqSpace - 200 - rng.uniform_int(1600)));
      } else {
        ring.reset();
        oracle.reset();
        ++resets;
        next = static_cast<std::uint16_t>(rng.uniform_int(kSeqSpace));
      }
      if (seq_less(newest, next)) {
        if (next < newest) ++wraps;
        if (seq_sub(next, newest) >= 256) ++big_advances;
      } else if (seq_sub(newest, next) >= 256) {
        ++far_backs;
      }
      ASSERT_EQ(ring.accept(next), oracle.accept(next))
          << "stream " << stream << " step " << step << " seq " << next;
      if (step == 0 || seq_less(newest, next) || u >= 0.97) newest = next;
    }
  }
  EXPECT_GT(wraps, 1000);
  EXPECT_GT(big_advances, 1000);
  EXPECT_GT(far_backs, 1000);
  EXPECT_GT(resets, 1000);
}

}  // namespace
}  // namespace wgtt::mac
