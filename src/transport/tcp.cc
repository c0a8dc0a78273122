#include "transport/tcp.h"

#include <algorithm>

namespace wgtt::transport {

TcpSender::TcpSender(sim::Scheduler& sched, SendFn send, Config config)
    : sched_(sched),
      send_(std::move(send)),
      config_(config),
      cwnd_(config.initial_cwnd_segments * static_cast<double>(config.mss)),
      ssthresh_(config.max_cwnd_segments * static_cast<double>(config.mss)),
      rto_(Time::sec(1)) {
  rto_timer_ = std::make_unique<sim::Timer>(sched_, [this] { on_rto(); },
                                            sim::EventCategory::kTimer);
}

void TcpSender::register_metrics(obs::MetricsRegistry& registry) {
  registry.counter("tcp.segments_sent");
  registry.counter("tcp.retransmissions");
  registry.counter("tcp.fast_retransmits");
  registry.counter("tcp.rtos");
  registry.gauge("tcp.cwnd_segments");
  registry.histogram("tcp.rtt_ms", 0.0, 500.0, 250);
}

void TcpSender::set_metrics(obs::MetricsRegistry* registry) {
  counters_.release();
  metrics_.reset();
  if (registry == nullptr) return;
  obs::MetricsRegistry& r = *registry;
  counters_.bind(r, "tcp.segments_sent", stats_.segments_sent);
  counters_.bind(r, "tcp.retransmissions", stats_.retransmissions);
  counters_.bind(r, "tcp.fast_retransmits", stats_.fast_retransmits);
  counters_.bind(r, "tcp.rtos", stats_.rtos);
  Metrics m;
  m.cwnd_segments = &r.gauge("tcp.cwnd_segments");
  m.rtt_ms = &r.histogram("tcp.rtt_ms", 0.0, 500.0, 250);
  metrics_ = m;
}

std::uint64_t TcpSender::available() const {
  if (unlimited_) return ~0ULL >> 1;
  return app_limit_ > snd_nxt_ ? app_limit_ - snd_nxt_ : 0;
}

void TcpSender::send_bytes(std::uint64_t n) {
  app_limit_ += n;
  if (alive_) try_send();
}

void TcpSender::set_unlimited(bool v) {
  unlimited_ = v;
  if (alive_) try_send();
}

double TcpSender::cwnd_segments() const {
  return cwnd_ / static_cast<double>(config_.mss);
}

void TcpSender::send_segment(std::uint64_t seq, bool is_retransmission) {
  const std::uint64_t app_end = unlimited_ ? ~0ULL >> 1 : app_limit_;
  const std::size_t len = static_cast<std::size_t>(
      std::min<std::uint64_t>(config_.mss, app_end - seq));
  if (len == 0) return;

  net::Packet p = net::make_packet();
  p.client = config_.client;
  p.downlink = config_.downlink;
  p.proto = net::Proto::kTcp;
  p.src_port = config_.src_port;
  p.dst_port = config_.dst_port;
  p.ip_id = next_ip_id_++;
  p.payload_bytes = len;
  p.created = sched_.now();
  net::TcpFields tcp;
  tcp.seq = seq;
  p.tcp = tcp;

  ++stats_.segments_sent;
  if (is_retransmission) ++stats_.retransmissions;
  send_(std::move(p));
}

void TcpSender::try_send() {
  while (flight() + config_.mss <= static_cast<std::uint64_t>(cwnd_) &&
         available() > 0) {
    send_segment(snd_nxt_, false);
    snd_nxt_ += std::min<std::uint64_t>(config_.mss, available());
    if (!rto_timer_->armed()) arm_rto();
  }
}

void TcpSender::arm_rto() { rto_timer_->start(rto_); }

void TcpSender::on_ack_packet(const net::Packet& p) {
  if (!alive_ || !p.tcp || !p.tcp->is_ack) return;
  const std::uint64_t ack = p.tcp->ack;
  // RFC 9293: an ack for data not yet sent is ignored.
  if (ack > snd_nxt_) return;

  if (ack > snd_una_) {
    // New data acked.
    const std::uint64_t newly = ack - snd_una_;
    snd_una_ = ack;
    stats_.bytes_acked = snd_una_;
    consecutive_rtos_ = 0;
    dupacks_ = 0;

    // RTT sample from the echoed timestamp.
    const double sample = (sched_.now() - p.tcp->ts_echo).to_seconds();
    if (sample > 0.0) {
      if (!have_rtt_) {
        srtt_s_ = sample;
        rttvar_s_ = sample / 2.0;
        have_rtt_ = true;
      } else {
        rttvar_s_ = 0.75 * rttvar_s_ + 0.25 * std::abs(srtt_s_ - sample);
        srtt_s_ = 0.875 * srtt_s_ + 0.125 * sample;
      }
      stats_.last_srtt_ms = srtt_s_ * 1e3;
      const double rto_s = srtt_s_ + std::max(4.0 * rttvar_s_, 0.010);
      rto_ = std::clamp(Time::seconds(rto_s), config_.min_rto, config_.max_rto);
      if (metrics_) metrics_->rtt_ms->observe(sample * 1e3);
    }

    const double mss = static_cast<double>(config_.mss);
    if (in_recovery_) {
      if (ack > recover_) {
        // Full ack: leave recovery.
        in_recovery_ = false;
        cwnd_ = ssthresh_;
      } else {
        // Partial ack (NewReno): retransmit the next lost segment, deflate.
        send_segment(snd_una_, true);
        cwnd_ = std::max(mss, cwnd_ - static_cast<double>(newly) + mss);
        arm_rto();
      }
    } else if (cwnd_ < ssthresh_) {
      cwnd_ += mss;  // slow start
    } else {
      cwnd_ += mss * mss / cwnd_;  // congestion avoidance
    }
    cwnd_ = std::min(cwnd_, config_.max_cwnd_segments * mss);
    if (metrics_) metrics_->cwnd_segments->set(cwnd_ / mss);

    if (on_progress) on_progress(snd_una_);
    if (snd_una_ >= snd_nxt_) {
      rto_timer_->cancel();  // everything acked
    } else {
      arm_rto();
    }
    try_send();
    return;
  }

  if (ack == snd_una_ && flight() > 0) {
    ++dupacks_;
    if (!in_recovery_ && dupacks_ == 3) {
      enter_fast_recovery();
    } else if (in_recovery_) {
      // Inflate: each dupack signals a departed segment.
      cwnd_ += static_cast<double>(config_.mss);
      try_send();
    }
  }
}

void TcpSender::enter_fast_recovery() {
  const double mss = static_cast<double>(config_.mss);
  ssthresh_ = std::max(static_cast<double>(flight()) / 2.0, 2.0 * mss);
  cwnd_ = ssthresh_ + 3.0 * mss;
  in_recovery_ = true;
  recover_ = snd_nxt_;
  ++stats_.fast_retransmits;
  send_segment(snd_una_, true);
  arm_rto();
}

void TcpSender::on_rto() {
  if (!alive_) return;
  if (snd_una_ >= snd_nxt_) return;  // nothing outstanding
  ++stats_.rtos;
  ++consecutive_rtos_;
  if (consecutive_rtos_ > config_.max_consecutive_rtos) {
    alive_ = false;
    rto_timer_->cancel();
    if (on_dead) on_dead();
    return;
  }
  const double mss = static_cast<double>(config_.mss);
  ssthresh_ = std::max(static_cast<double>(flight()) / 2.0, 2.0 * mss);
  cwnd_ = mss;
  in_recovery_ = false;
  dupacks_ = 0;
  send_segment(snd_una_, true);
  rto_ = std::min(rto_ * 2, config_.max_rto);
  arm_rto();
}

TcpReceiver::TcpReceiver(sim::Scheduler& sched, SendFn send_ack, Config config)
    : sched_(sched), send_(std::move(send_ack)), config_(config) {}

void TcpReceiver::on_data_packet(const net::Packet& p) {
  if (!p.tcp || p.tcp->is_ack) return;
  const std::uint64_t start = p.tcp->seq;
  const std::uint64_t end = start + p.payload_bytes;

  if (end > rcv_nxt_) {
    // Insert [max(start, rcv_nxt_), end) into the out-of-order store.
    const std::uint64_t s = std::max(start, rcv_nxt_);
    auto it = ooo_.insert({s, end}).first;
    // Merge with neighbours.
    if (it != ooo_.begin()) {
      auto prev = std::prev(it);
      if (prev->second >= it->first) {
        prev->second = std::max(prev->second, it->second);
        ooo_.erase(it);
        it = prev;
      }
    }
    auto next = std::next(it);
    while (next != ooo_.end() && next->first <= it->second) {
      it->second = std::max(it->second, next->second);
      next = ooo_.erase(next);
    }
    // Advance rcv_nxt_ through contiguous data.
    const std::uint64_t before = rcv_nxt_;
    auto front = ooo_.begin();
    if (front != ooo_.end() && front->first <= rcv_nxt_) {
      rcv_nxt_ = std::max(rcv_nxt_, front->second);
      ooo_.erase(front);
    }
    if (rcv_nxt_ > before) {
      goodput_.add(sched_.now(), rcv_nxt_ - before);
      if (on_delivered) on_delivered(rcv_nxt_ - before, sched_.now());
    }
  }
  send_ack(p.created);
}

void TcpReceiver::send_ack(Time ts_echo) {
  net::Packet a = net::make_packet();
  a.client = config_.client;
  a.downlink = config_.acks_downlink;
  a.proto = net::Proto::kTcp;
  a.src_port = config_.src_port;
  a.dst_port = config_.dst_port;
  a.ip_id = next_ip_id_++;
  a.payload_bytes = 0;
  a.created = sched_.now();
  net::TcpFields tcp;
  tcp.ack = rcv_nxt_;
  tcp.is_ack = true;
  tcp.ts_echo = ts_echo;
  a.tcp = tcp;
  send_(std::move(a));
}

}  // namespace wgtt::transport
