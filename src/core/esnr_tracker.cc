#include "core/esnr_tracker.h"

#include <algorithm>
#include <cmath>

namespace wgtt::core {

EsnrTracker::EsnrTracker(Time window) : window_(window) {}

EsnrTracker::Link* EsnrTracker::find_link(PerClient& pc, net::ApId ap) {
  for (Link& l : pc.links) {
    if (l.ap == ap) return &l;
  }
  return nullptr;
}

const EsnrTracker::Link* EsnrTracker::find_link(const PerClient& pc,
                                                net::ApId ap) const {
  for (const Link& l : pc.links) {
    if (l.ap == ap) return &l;
  }
  return nullptr;
}

bool EsnrTracker::in_reach(const PerClient& pc, net::ApId ap) const {
  if (spatial_ == nullptr || spatial_->empty() || pc.anchor < 0) return true;
  const auto idx = static_cast<int>(net::index_of(ap));
  if (idx >= spatial_->num_aps()) return true;
  return std::abs(spatial_->ap_x(idx) - spatial_->ap_x(pc.anchor)) <=
         radius_m_;
}

void EsnrTracker::set_spatial(const SpatialIndex* index, double radius_m) {
  spatial_ = index;
  radius_m_ = radius_m;
}

int EsnrTracker::anchor_ap(net::ClientId client) const {
  auto it = clients_.find(client);
  return it == clients_.end() ? -1 : it->second.anchor;
}

void EsnrTracker::add(net::ClientId client, net::ApId ap, Time now,
                      double esnr_db) {
  PerClient& pc = clients_[client];
  Link* link = find_link(pc, ap);
  if (link == nullptr) {
    pc.links.emplace_back(ap, window_);
    link = &pc.links.back();
  }
  link->samples.add(now, esnr_db);
  link->last_heard = now;
  link->last_value = esnr_db;
  pc.anchor = static_cast<int>(net::index_of(ap));
  // Long-silent links are deliberately NOT erased: removing a link and later
  // re-hearing that AP would re-append it at the back of `links`, losing the
  // first-heard iteration order that best_ap tie-breaks and fresh_aps output
  // depend on — and with it byte-identity against the unindexed run. Memory
  // stays bounded anyway: StreamingMedian evicts out-of-window samples on
  // every query/add, so a silent link costs only the empty Link slot, and the
  // link count is capped by the APs ever audible from the client's span.
}

std::optional<double> EsnrTracker::median(net::ClientId client, net::ApId ap,
                                          Time now) {
  auto it = clients_.find(client);
  if (it == clients_.end()) return std::nullopt;
  Link* link = find_link(it->second, ap);
  if (link == nullptr) return std::nullopt;
  return link->samples.lower_median(now);
}

std::optional<net::ApId> EsnrTracker::best_ap(net::ClientId client, Time now,
                                              const std::vector<bool>* evicted) {
  auto it = clients_.find(client);
  if (it == clients_.end()) return std::nullopt;
  PerClient& pc = it->second;
  std::optional<net::ApId> best;
  double best_median = 0.0;
  for (Link& l : pc.links) {
    if (evicted != nullptr) {
      const auto idx = static_cast<std::size_t>(net::index_of(l.ap));
      if (idx < evicted->size() && (*evicted)[idx]) continue;
    }
    if (!in_reach(pc, l.ap)) continue;
    const auto m = l.samples.lower_median(now);
    if (!m) continue;
    if (!best || *m > best_median) {
      best = l.ap;
      best_median = *m;
    }
  }
  return best;
}

std::optional<Time> EsnrTracker::last_heard(net::ClientId client,
                                            net::ApId ap) const {
  auto it = clients_.find(client);
  if (it == clients_.end()) return std::nullopt;
  const Link* link = find_link(it->second, ap);
  if (link == nullptr) return std::nullopt;
  return link->last_heard;
}

std::optional<double> EsnrTracker::last_value(net::ClientId client,
                                              net::ApId ap) const {
  auto it = clients_.find(client);
  if (it == clients_.end()) return std::nullopt;
  const Link* link = find_link(it->second, ap);
  if (link == nullptr) return std::nullopt;
  return link->last_value;
}

std::vector<net::ApId> EsnrTracker::fresh_aps(net::ClientId client, Time now,
                                              Time freshness) {
  std::vector<net::ApId> out;
  fresh_aps(client, now, freshness, out);
  return out;
}

void EsnrTracker::fresh_aps(net::ClientId client, Time now, Time freshness,
                            std::vector<net::ApId>& out) {
  out.clear();
  auto it = clients_.find(client);
  if (it == clients_.end()) return;
  const PerClient& pc = it->second;
  for (const Link& l : pc.links) {
    if (!in_reach(pc, l.ap)) continue;
    if (now - l.last_heard <= freshness) out.push_back(l.ap);
  }
}

}  // namespace wgtt::core
