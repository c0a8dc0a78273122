// Sliding-window ESNR state per (client, AP) link and the paper's AP
// selection rule (§3.1.1):
//
//   E(a) = sorted ESNR readings from AP a in the last W milliseconds
//   a*   = argmax_a  e_{floor(L_a / 2)}(a)      (the window median)
//
// W trades agility against noise: the paper's Figure 21 sweep finds 10 ms
// optimal at all vehicle speeds, which bench_fig21_window_size reproduces.
//
// The window median itself is maintained incrementally by a
// core::StreamingMedian per link (amortized O(log W) per CSI sample and
// allocation-free in steady state) instead of re-sorting the window on
// every report; the two are bit-identical, which core_test asserts.
//
// Links are stored contiguously per client (first-heard order, preserving
// the argmax tie-break of the original per-client AP list), and when a
// SpatialIndex is wired via set_spatial the per-client scans are bounded to
// APs within the neighbor radius of the client's anchor AP — the last AP to
// report CSI. Any AP with an in-window sample or fresh last_heard is within
// 2 * sense_range of the anchor (both had to hear the client within the
// freshness horizon, during which the client moves metres, not hundreds of
// metres), so a radius of 2 * sense_range plus slack makes the bounded scan
// return byte-identical results to the full scan; spatial_test proves this
// over a seeded sweep.
#pragma once

#include <optional>
#include <unordered_map>
#include <vector>

#include "core/spatial_index.h"
#include "core/streaming_median.h"
#include "net/ids.h"
#include "util/units.h"

namespace wgtt::core {

class EsnrTracker {
 public:
  explicit EsnrTracker(Time window);

  void add(net::ClientId client, net::ApId ap, Time now, double esnr_db);

  /// Window median for one link, if any sample is in-window.
  [[nodiscard]] std::optional<double> median(net::ClientId client,
                                             net::ApId ap, Time now);

  /// The selection rule: AP with maximal window-median ESNR. `evicted`,
  /// when non-null, is indexed by AP and masks APs out of the argmax — the
  /// controller passes its liveness eviction set so a Dead AP can never win
  /// selection no matter how good its (stale) CSI looks.
  [[nodiscard]] std::optional<net::ApId> best_ap(
      net::ClientId client, Time now,
      const std::vector<bool>* evicted = nullptr);

  /// APs that have heard the client within `freshness` — the controller's
  /// downlink fan-out set (paper §3.1.2 footnote 1).
  [[nodiscard]] std::vector<net::ApId> fresh_aps(net::ClientId client, Time now,
                                                 Time freshness);
  /// The same set, written into `out` (cleared first) so a per-packet
  /// caller reuses one buffer.
  void fresh_aps(net::ClientId client, Time now, Time freshness,
                 std::vector<net::ApId>& out);

  /// When this link last produced CSI (any age), if ever.
  [[nodiscard]] std::optional<Time> last_heard(net::ClientId client,
                                               net::ApId ap) const;

  /// Most recent metric sample on this link, regardless of window age.
  /// Used to judge challengers while the serving AP is briefly silent.
  [[nodiscard]] std::optional<double> last_value(net::ClientId client,
                                                 net::ApId ap) const;

  [[nodiscard]] Time window() const { return window_; }

  /// Bounds per-client scans to APs within `radius_m` (along the road) of
  /// the client's anchor AP. Links are never deleted — only skipped by the
  /// reach filter — so iteration order (and with it every tie-break) stays
  /// identical to the unbounded tracker. `index` must outlive the tracker;
  /// nullptr restores the unbounded behaviour.
  void set_spatial(const SpatialIndex* index, double radius_m);

  /// AP index of the last AP to report CSI for this client, or -1.
  [[nodiscard]] int anchor_ap(net::ClientId client) const;

 private:
  struct Link {
    net::ApId ap;
    StreamingMedian samples;
    Time last_heard = Time::zero();
    double last_value = 0.0;
    Link(net::ApId a, Time w) : ap(a), samples(w) {}
  };
  struct PerClient {
    std::vector<Link> links;  // first-heard order
    int anchor = -1;          // AP index of the last reporter
  };

  [[nodiscard]] Link* find_link(PerClient& pc, net::ApId ap);
  [[nodiscard]] const Link* find_link(const PerClient& pc, net::ApId ap) const;
  [[nodiscard]] bool in_reach(const PerClient& pc, net::ApId ap) const;

  Time window_;
  const SpatialIndex* spatial_ = nullptr;
  double radius_m_ = 0.0;
  std::unordered_map<net::ClientId, PerClient> clients_;
};

}  // namespace wgtt::core
