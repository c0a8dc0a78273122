// 802.11 sequence-number and block-acknowledgement machinery.
//
// Sequence numbers live in a 12-bit space; comparisons are modular. The
// compressed block ACK covers a 64-frame window from a start sequence. WGTT
// shares this state across APs: the controller-assigned per-client index is
// used directly as the 802.11 sequence number, so when the serving AP
// changes mid-flow the client's receive window continues seamlessly
// (paper §3.2.1).
#pragma once

#include <array>
#include <cstdint>
#include <optional>
#include <span>
#include <vector>

namespace wgtt::mac {

inline constexpr std::uint16_t kSeqSpace = 1u << 12;  // 12-bit (m = 12)
inline constexpr int kBaWindow = 64;

/// a < b in the modular sequence space (within half the space).
[[nodiscard]] constexpr bool seq_less(std::uint16_t a, std::uint16_t b) {
  return static_cast<std::uint16_t>((b - a) & (kSeqSpace - 1)) != 0 &&
         static_cast<std::uint16_t>((b - a) & (kSeqSpace - 1)) < kSeqSpace / 2;
}

/// Modular distance b - a.
[[nodiscard]] constexpr std::uint16_t seq_sub(std::uint16_t b, std::uint16_t a) {
  return static_cast<std::uint16_t>((b - a) & (kSeqSpace - 1));
}

[[nodiscard]] constexpr std::uint16_t seq_add(std::uint16_t a, std::uint16_t d) {
  return static_cast<std::uint16_t>((a + d) & (kSeqSpace - 1));
}

/// Monotone 12-bit sequence counter.
class SeqCounter {
 public:
  SeqCounter() = default;
  explicit SeqCounter(std::uint16_t start) : next_(start & (kSeqSpace - 1)) {}
  std::uint16_t next() {
    const std::uint16_t v = next_;
    next_ = seq_add(next_, 1);
    return v;
  }
  [[nodiscard]] std::uint16_t peek() const { return next_; }

 private:
  std::uint16_t next_ = 0;
};

/// Compressed BA bitmap helper.
struct BaBitmap {
  std::uint16_t start_seq = 0;
  std::uint64_t bits = 0;

  /// Builds from the sequence numbers decoded out of one A-MPDU. `base` is
  /// the A-MPDU's first sequence number (BA start even if that MPDU itself
  /// was lost).
  [[nodiscard]] static BaBitmap from_decoded(std::uint16_t base,
                                             std::span<const std::uint16_t> decoded);

  [[nodiscard]] bool acks(std::uint16_t seq) const;
  void set(std::uint16_t seq);
  [[nodiscard]] int count() const;
};

/// Receiver-side duplicate filter over a sliding sequence window. Returns
/// whether a sequence number is new (deliver) or already seen / stale
/// (drop). Handles the retransmit-after-lost-BA case where the data arrived
/// but the transmitter does not know it.
class RxDupFilter {
 public:
  RxDupFilter() = default;

  /// Marks `seq` seen; returns true if it was new.
  bool accept(std::uint16_t seq);

  void reset();

 private:
  static constexpr std::uint16_t kWindow = 256;  // > 2 BA windows of slack
  static_assert(kSeqSpace % kWindow == 0,
                "ring positions must survive the 12-bit wrap");

  [[nodiscard]] bool seen(std::uint16_t seq) const {
    return (seen_[(seq % kWindow) / 64] >> (seq % 64)) & 1u;
  }
  void mark(std::uint16_t seq, bool value);

  bool started_ = false;
  std::uint16_t newest_ = 0;
  // Ring over the window newest_ - kWindow + 1 .. newest_: bit (seq mod
  // kWindow) says whether seq was seen, so an advance clears only the
  // positions the newly covered sequence numbers take over.
  std::array<std::uint64_t, kWindow / 64> seen_{};
};

}  // namespace wgtt::mac
