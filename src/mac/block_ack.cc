#include "mac/block_ack.h"

#include <bit>

namespace wgtt::mac {

BaBitmap BaBitmap::from_decoded(std::uint16_t base,
                                std::span<const std::uint16_t> decoded) {
  BaBitmap ba;
  ba.start_seq = base & (kSeqSpace - 1);
  for (std::uint16_t s : decoded) ba.set(s);
  return ba;
}

bool BaBitmap::acks(std::uint16_t seq) const {
  const std::uint16_t off = seq_sub(seq, start_seq);
  if (off >= kBaWindow) return false;
  return (bits >> off) & 1ULL;
}

void BaBitmap::set(std::uint16_t seq) {
  const std::uint16_t off = seq_sub(seq, start_seq);
  if (off < kBaWindow) bits |= 1ULL << off;
}

int BaBitmap::count() const { return std::popcount(bits); }

void RxDupFilter::mark(std::uint16_t seq, bool value) {
  const std::uint64_t bit = std::uint64_t{1} << (seq % 64);
  std::uint64_t& word = seen_[(seq % kWindow) / 64];
  word = value ? (word | bit) : (word & ~bit);
}

bool RxDupFilter::accept(std::uint16_t seq) {
  seq &= kSeqSpace - 1;
  if (!started_) {
    started_ = true;
    newest_ = seq;
    seen_.fill(0);
    mark(seq, true);
    return true;
  }
  if (seq == newest_) return false;
  if (seq_less(newest_, seq)) {
    // Advance the window: the sequence numbers it newly covers take over
    // the ring positions of those that fell out of it, so clear exactly
    // those positions (O(advance)).
    const std::uint16_t adv = seq_sub(seq, newest_);
    if (adv >= kWindow) {
      seen_.fill(0);
    } else {
      for (std::uint16_t d = 1; d < adv; ++d) mark(seq_add(newest_, d), false);
    }
    newest_ = seq;
    mark(seq, true);
    return true;
  }
  // Behind the newest: inside the window -> dedup; far behind -> treat as
  // stale duplicate and drop (matches hardware behaviour after reordering).
  if (seq_sub(newest_, seq) >= kWindow) return false;
  if (seen(seq)) return false;
  mark(seq, true);
  return true;
}

void RxDupFilter::reset() {
  started_ = false;
  newest_ = 0;
  seen_.fill(0);
}

}  // namespace wgtt::mac
