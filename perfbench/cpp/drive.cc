#include "drive.h"

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstring>
#include <functional>
#include <memory>
#include <optional>
#include <span>
#include <stdexcept>
#include <variant>

#include "mac/frame.h"
#include "mobility/trajectory.h"
#include "net/packet.h"
#include "obs/metrics.h"
#include "phy/esnr.h"
#include "phy/mcs.h"
#include "scenario/wgtt_system.h"
#include "sim/scheduler.h"
#include "transport/tcp.h"
#include "transport/udp.h"

namespace perfbench {

using wgtt::Time;
using wgtt::benchx::DriveConfig;
using wgtt::benchx::Pattern;
using Clock = std::chrono::steady_clock;

namespace {

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// User plus system CPU seconds of the whole process (every thread).
double process_cpu_s() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  const auto secs = [](const timeval& t) {
    return static_cast<double>(t.tv_sec) + static_cast<double>(t.tv_usec) * 1e-6;
  };
  return secs(ru.ru_utime) + secs(ru.ru_stime);
}

std::uint64_t fnv1a(const std::vector<std::uint64_t>& words) {
  std::uint64_t h = 14695981039346656037ull;
  for (const std::uint64_t w : words) {
    for (int b = 0; b < 8; ++b) {
      h ^= (w >> (8 * b)) & 0xffu;
      h *= 1099511628211ull;
    }
  }
  return h;
}

std::vector<Workload> make_workloads() {
  std::vector<Workload> out;
  {
    // Dense convoy: every overhearing AP samples CSI and decodes each frame.
    Workload w;
    w.name = "drive-8x32";
    w.drive.mph = 15.0;
    w.drive.udp_rate_mbps = 20.0;
    w.drive.num_clients = 8;  // Pattern::kSingle convoy, 10 m apart
    wgtt::scenario::GeometryConfig geo;
    geo.num_aps = 32;
    w.drive.geometry = geo;
    w.probe = true;
    w.min_drives = 2;
    out.push_back(std::move(w));
  }
  {
    // The Figure 13/14 drive: bulk TCP at 25 mph past the 8-AP testbed.
    Workload w;
    w.name = "tcp-25mph";
    w.drive.workload = wgtt::benchx::Workload::kTcpDown;
    w.drive.mph = 25.0;
    w.probe = true;
    w.min_drives = 32;
    out.push_back(std::move(w));
  }
  {
    // The 256x64 city of bench_ext_city_scale with a shortened drive span.
    Workload w;
    w.name = "city-256x64";
    w.drive.mph = 15.0;
    w.drive.udp_rate_mbps = 4.0;
    w.drive.num_clients = 64;
    w.drive.pattern = Pattern::kDistributed;
    w.drive.drive_span_m = 8.0;
    w.drive.bounded_fallback = true;
    wgtt::scenario::GeometryConfig geo;
    geo.num_aps = 256;
    geo.lazy_links = true;
    w.drive.geometry = geo;
    w.min_drives = 4;
    out.push_back(std::move(w));
  }
  {
    // The 256-AP parallel city of bench_perf_parallel at one worker: the
    // engine's inline path runs the same lockstep windows and mailboxes
    // without threads. At two workers the lockstep barrier amplifies a
    // neighbour's load on the shared host: sim_s_per_wall_s spread 30% and
    // 37% (IQR/median) over two sets of ten seeds, against 17% over five
    // seeds at one worker in the same hour. The traced run still times two
    // workers.
    Workload w;
    w.name = "parallel-city-1w";
    w.parallel = true;
    w.city.corridors = 16;
    w.city.aps_per_corridor = 16;
    w.city.clients_per_corridor = 1;
    w.city.drive_span_m = 20.0;
    w.city.udp_rate_mbps = 4.0;
    w.city.workers = 1;
    w.min_drives = 3;
    // The snapshot supplies the delivered-packet count; it is on in every
    // run so the timed and traced runs simulate the same event sequence.
    w.city.collect_metrics = true;
    out.push_back(std::move(w));
  }
  return out;
}

const std::vector<Workload>& workloads() {
  static const std::vector<Workload> kAll = make_workloads();
  return kAll;
}

/// Span names, interned once per recorder.
struct SpanNames {
  std::uint32_t drive, construct, add_clients, start, slice, server_send,
      send_uplink, rx, tcp_ack, probe, collect, wire, teardown, city_call;
  explicit SpanNames(SpanRecorder& r)
      : drive(r.intern("scenario.drive")),
        construct(r.intern("scenario.construct")),
        add_clients(r.intern("scenario.add_clients")),
        start(r.intern("scenario.start")),
        slice(r.intern("sim.run_until_slice")),
        server_send(r.intern("core.server_send")),
        send_uplink(r.intern("mac.send_uplink")),
        rx(r.intern("transport.rx")),
        tcp_ack(r.intern("transport.tcp_ack")),
        probe(r.intern("obs.probe")),
        collect(r.intern("scenario.collect")),
        wire(r.intern("scenario.wire")),
        teardown(r.intern("scenario.teardown")),
        city_call(r.intern("parallel.run_parallel_city")) {}
};

struct Flow {
  std::unique_ptr<wgtt::transport::UdpSource> udp_src;
  wgtt::transport::UdpSink udp_sink;
  std::unique_ptr<wgtt::transport::TcpSender> tcp_tx;
  std::unique_ptr<wgtt::transport::TcpReceiver> tcp_rx;
};

/// One WgttSystem drive, configured exactly as benchx::run_drive configures
/// it for the same DriveConfig.
class SingleDrive {
 public:
  SingleDrive(const Workload& w, std::uint64_t seed, SpanRecorder* spans)
      : w_(w), cfg_(w.drive), spans_(spans) {
    cfg_.seed = seed;
    if (spans_ != nullptr) names_.emplace(*spans_);
    wgtt::net::reset_packet_uids();

    auto t0 = Clock::now();
    {
      ScopedSpan s(spans_, names_ ? names_->construct : 0);
      build_trajectories();
      system_ = std::make_unique<wgtt::scenario::WgttSystem>(system_config());
    }
    construct_s_ = seconds_since(t0);
    t0 = Clock::now();
    {
      ScopedSpan s(spans_, names_ ? names_->add_clients : 0);
      for (const auto& t : trajectories_) system_->add_client(t.get());
    }
    add_clients_s_ = seconds_since(t0);
    t0 = Clock::now();
    {
      ScopedSpan s(spans_, names_ ? names_->start : 0);
      system_->start();
    }
    start_s_ = seconds_since(t0);
  }

  [[nodiscard]] wgtt::scenario::WgttSystem& system() { return *system_; }
  [[nodiscard]] Time horizon() const { return horizon_; }
  [[nodiscard]] int num_clients() const {
    return static_cast<int>(trajectories_.size());
  }

  void fill_setup(DriveStats& rec) const {
    rec.construct_s = construct_s_;
    rec.add_clients_s = add_clients_s_;
    rec.start_s = start_s_;
    rec.setup_s = construct_s_ + add_clients_s_ + start_s_;
  }

  void run(Tracer* tracer, DriveStats& rec) {
    {
      ScopedSpan s(spans_, names_ ? names_->wire : 0);
      wire_bitrate_hooks();
      wire_traffic();
      if (w_.probe) wire_probe();
      if (tracer != nullptr) {
        for (int a = 0; a < system_->num_aps(); ++a) system_->ap(a).set_metrics(&ap_registry_);
      }
    }
    wgtt::sim::Scheduler& sched = system_->sched();
    if (tracer != nullptr) sched.set_profiler(&tracer->profiler);

    const auto t0 = Clock::now();
    if (tracer != nullptr) {
      for (Time t = kTraceSlice; t < horizon_; t += kTraceSlice) {
        {
          ScopedSpan s(spans_, names_ ? names_->slice : 0);
          system_->run_until(t);
        }
        rec.pending_peak = std::max(rec.pending_peak, sched.pending());
      }
      ScopedSpan s(spans_, names_ ? names_->slice : 0);
      system_->run_until(horizon_);
    } else {
      system_->run_until(horizon_);
    }
    rec.run_wall_s = seconds_since(t0);
    if (tracer != nullptr) sched.set_profiler(nullptr);

    ScopedSpan s(spans_, names_ ? names_->collect : 0);
    collect(rec);
    if (tracer == nullptr) return;
    for (int c = 0; c < wgtt::sim::kNumEventCategories; ++c) {
      const auto cat = static_cast<wgtt::sim::EventCategory>(c);
      rec.counts["sim.profile." + std::string(wgtt::sim::to_string(cat)) + "_ns"] =
          static_cast<double>(tracer->profiler.total_ns(cat));
    }
    for (int a = 0; a < system_->num_aps(); ++a) system_->ap(a).set_metrics(nullptr);
    for (const char* key : {"ap.pump_enqueued", "ap.cyclic_overwrites"}) {
      const wgtt::obs::Counter* c = ap_registry_.find_counter(key);
      rec.counts[key] = c != nullptr ? static_cast<double>(c->value()) : 0.0;
    }
  }

 private:
  void build_trajectories() {
    wgtt::scenario::GeometryConfig geo =
        cfg_.geometry.value_or(wgtt::scenario::GeometryConfig{});
    last_ap_x_ = (geo.num_aps - 1) * geo.ap_spacing_m;
    const double v = wgtt::mph_to_mps(cfg_.mph);
    const double span = cfg_.pattern == Pattern::kDistributed
                            ? cfg_.drive_span_m
                            : cfg_.lead_in_m + last_ap_x_ + cfg_.lead_in_m;
    horizon_ = Time::seconds(span / v);
    const int n = cfg_.num_clients;
    for (int i = 0; i < n; ++i) {
      if (cfg_.pattern == Pattern::kDistributed) {
        const double usable = std::max(0.0, last_ap_x_ - cfg_.drive_span_m);
        const double frac = n > 1 ? static_cast<double>(i) / (n - 1) : 0.0;
        trajectories_.push_back(
            std::make_unique<wgtt::mobility::LineDrive>(usable * frac, 0.0, v));
        windows_.emplace_back(std::min(Time::ms(500), horizon_), horizon_);
      } else {
        // run_drive's Pattern::kSingle: a convoy 10 m apart.
        auto drive = std::make_unique<wgtt::mobility::LineDrive>(
            -cfg_.lead_in_m - 10.0 * i, 0.0, v);
        const Time a = drive->time_at_x(0.0);
        const Time b = drive->time_at_x(last_ap_x_);
        windows_.emplace_back(std::min(a, b), std::max(a, b));
        trajectories_.push_back(std::move(drive));
      }
    }
  }

  [[nodiscard]] wgtt::scenario::WgttSystemConfig system_config() const {
    wgtt::scenario::WgttSystemConfig scfg;
    scfg.geometry = cfg_.geometry.value_or(wgtt::scenario::GeometryConfig{});
    scfg.geometry.seed = cfg_.seed;
    scfg.controller.metric = cfg_.metric;
    scfg.ap.start_from_newest = cfg_.start_from_newest;
    if (cfg_.use_spatial_index) scfg.spatial.use_index = *cfg_.use_spatial_index;
    scfg.controller.bounded_fallback = cfg_.bounded_fallback;
    scfg.use_fanout_pool = cfg_.fanout_pool;
    scfg.backhaul.batching = cfg_.backhaul_batching;
    scfg.num_domains = cfg_.num_domains;
    return scfg;
  }

  // run_drive's Figure 16 hook: the PHY rate of every data frame a client
  // decodes. It is not pure observation: a client MAC with an on_heard
  // handler also samples and decode-draws frames addressed to other
  // clients, which moves its RNG stream in multi-client drives. It is kept
  // so that the simulated outputs match run_drive's.
  void wire_bitrate_hooks() {
    for (int i = 0; i < num_clients(); ++i) {
      wgtt::mac::WifiMac& m = system_->client(i).mac();
      m.on_heard = [this, prev = std::move(m.on_heard)](
                       const wgtt::mac::Frame& f, bool decoded,
                       const wgtt::channel::CsiMeasurement& csi) {
        if (prev) prev(f, decoded, csi);
        if (!decoded) return;
        if (const auto* df = std::get_if<wgtt::mac::DataFrame>(&f.body)) {
          bitrate_mbps_.push_back(wgtt::phy::mcs_info(df->mcs).data_rate_mbps);
        }
      };
    }
  }

  void wire_traffic() {
    auto& sys = *system_;
    auto& sched = sys.sched();
    const int n = num_clients();
    flows_.resize(static_cast<std::size_t>(n));
    for (int i = 0; i < n; ++i) {
      Flow& f = flows_[static_cast<std::size_t>(i)];
      const wgtt::net::ClientId cid{static_cast<std::uint32_t>(i)};
      auto server_send = [this, cid](wgtt::net::Packet p) {
        p.client = cid;
        ScopedSpan s(spans_, names_ ? names_->server_send : 0, p.uid);
        system_->server_send(std::move(p));
      };
      auto client_send = [this, i](wgtt::net::Packet p) {
        ScopedSpan s(spans_, names_ ? names_->send_uplink : 0, p.uid);
        system_->client(i).send_uplink(std::move(p));
      };
      if (cfg_.workload == wgtt::benchx::Workload::kTcpDown) {
        wgtt::transport::TcpSender::Config tcfg;
        tcfg.client = cid;
        f.tcp_tx = std::make_unique<wgtt::transport::TcpSender>(sched, server_send, tcfg);
        wgtt::transport::TcpReceiver::Config rcfg;
        rcfg.client = cid;
        f.tcp_rx = std::make_unique<wgtt::transport::TcpReceiver>(sched, client_send, rcfg);
        sys.client(i).on_downlink = [this, &f](const wgtt::net::Packet& p) {
          ++packets_;
          ScopedSpan s(spans_, names_ ? names_->rx : 0, p.uid);
          f.tcp_rx->on_data_packet(p);
        };
        f.tcp_tx->set_unlimited(true);
      } else {
        f.udp_src = std::make_unique<wgtt::transport::UdpSource>(
            sched, server_send,
            wgtt::transport::UdpSource::Config{.rate_mbps = cfg_.udp_rate_mbps,
                                               .client = cid});
        sys.client(i).on_downlink = [this, &f, &sched](const wgtt::net::Packet& p) {
          ++packets_;
          ScopedSpan s(spans_, names_ ? names_->rx : 0, p.uid);
          f.udp_sink.on_packet(sched.now(), p);
        };
        f.udp_src->start();
      }
    }
    if (cfg_.workload == wgtt::benchx::Workload::kTcpDown) {
      sys.on_server_uplink = [this](const wgtt::net::Packet& p) {
        const auto i = static_cast<std::size_t>(wgtt::net::index_of(p.client));
        if (i >= flows_.size() || !flows_[i].tcp_tx) return;
        ScopedSpan s(spans_, names_ ? names_->tcp_ack : 0, p.uid);
        flows_[i].tcp_tx->on_ack_packet(p);
      };
    }
  }

  // run_drive's accuracy probe: every accuracy_probe, each client inside its
  // measurement window is checked against WgttSystem::optimal_ap.
  void wire_probe() {
    const int n = num_clients();
    probe_match_.assign(static_cast<std::size_t>(n), 0);
    probe_total_.assign(static_cast<std::size_t>(n), 0);
    probe_ = [this, n] {
      auto& sched = system_->sched();
      for (int i = 0; i < n; ++i) {
        const auto [t0, t1] = windows_[static_cast<std::size_t>(i)];
        const Time now = sched.now();
        if (now < t0 || now >= t1) continue;
        const int serving = system_->serving_ap(i);
        int optimal = 0;
        {
          ScopedSpan s(spans_, names_ ? names_->probe : 0);
          optimal = system_->optimal_ap(i, now);
        }
        ++probe_total_[static_cast<std::size_t>(i)];
        if (serving == optimal) ++probe_match_[static_cast<std::size_t>(i)];
      }
      sched.schedule_in(cfg_.accuracy_probe, probe_);
    };
    system_->sched().schedule_in(cfg_.accuracy_probe, probe_);
  }

  void collect(DriveStats& rec) {
    auto& sys = *system_;
    const int n = num_clients();
    rec.sim_s = horizon_.to_seconds();
    rec.packets = packets_;
    rec.events = sys.sched().events_executed();
    double mbps_sum = 0.0;
    double acc_sum = 0.0;
    std::vector<std::uint64_t> words;
    for (int i = 0; i < n; ++i) {
      const Flow& f = flows_[static_cast<std::size_t>(i)];
      const auto [t0, t1] = windows_[static_cast<std::size_t>(i)];
      const wgtt::transport::ThroughputRecorder& tr =
          f.tcp_rx ? f.tcp_rx->goodput() : f.udp_sink.throughput();
      const double mbps = tr.average_mbps(t0, t1);
      rec.client_bytes.push_back(tr.total_bytes());
      words.push_back(tr.total_bytes());
      mbps_sum += mbps;
      if (w_.probe && probe_total_[static_cast<std::size_t>(i)] > 0) {
        acc_sum += static_cast<double>(probe_match_[static_cast<std::size_t>(i)]) /
                   probe_total_[static_cast<std::size_t>(i)];
      }
    }
    rec.goodput_mbps = n > 0 ? mbps_sum / n : 0.0;
    rec.accuracy = n > 0 ? acc_sum / n : 0.0;

    auto& c = rec.counts;
    for (int d = 0; d < sys.num_domains(); ++d) {
      const auto& st = sys.controller(d).stats();
      rec.switches += st.switches_completed;
      c["core.downlink_packets"] += static_cast<double>(st.downlink_packets);
      c["core.fanout_copies"] += static_cast<double>(st.downlink_fanout_copies);
      c["core.csi_reports"] += static_cast<double>(st.csi_reports);
      c["core.uplink_packets"] += static_cast<double>(st.uplink_packets);
      c["core.uplink_duplicates_dropped"] +=
          static_cast<double>(st.uplink_duplicates_dropped);
      c["core.switches_initiated"] += static_cast<double>(st.switches_initiated);
      c["core.switches_completed"] += static_cast<double>(st.switches_completed);
      c["core.stop_retransmissions"] += static_cast<double>(st.stop_retransmissions);
      for (const auto& sw : sys.controller(d).switch_log()) {
        rec.switch_ms.push_back((sw.completed - sw.initiated).to_millis());
      }
    }
    words.push_back(rec.switches);
    words.push_back(rec.events);
    rec.digest = fnv1a(words);

    c["mac.frames_sent"] = static_cast<double>(sys.medium().frames_sent());
    c["mac.collisions"] = static_cast<double>(sys.medium().collisions_observed());
    for (int a = 0; a < sys.num_aps(); ++a) {
      const auto s = sys.ap(a).mac().total_stats();
      c["mac.mpdus_delivered"] += static_cast<double>(s.mpdus_delivered);
      c["mac.retransmissions"] += static_cast<double>(s.retransmissions);
      c["mac.ba_timeouts"] += static_cast<double>(s.ba_timeouts);
      const auto& st = sys.ap(a).stats();
      c["ap.downlink_received"] += static_cast<double>(st.downlink_received);
      c["ap.stale_dropped"] += static_cast<double>(st.stale_dropped);
    }
    for (int i = 0; i < n; ++i) {
      c["mac.ba_timeouts"] +=
          static_cast<double>(sys.client(i).mac().total_stats().ba_timeouts);
    }
    c["net.messages_sent"] = static_cast<double>(sys.backhaul().messages_sent());
    c["net.messages_dropped"] = static_cast<double>(sys.backhaul().messages_dropped());
    for (const Flow& f : flows_) {
      if (!f.tcp_tx) continue;
      c["transport.tcp_retransmissions"] +=
          static_cast<double>(f.tcp_tx->stats().retransmissions);
      c["transport.tcp_rtos"] += static_cast<double>(f.tcp_tx->stats().rtos);
    }

    const wgtt::scenario::InvariantReport inv = sys.check_invariants();
    if (!inv.ok()) {
      rec.failed = true;
      rec.failure = "check_invariants: " + inv.violations.front();
    } else if (packets_ == 0) {
      rec.failed = true;
      rec.failure = "no downlink packet reached a client";
    }
  }

  const Workload& w_;
  DriveConfig cfg_;
  SpanRecorder* spans_;
  std::optional<SpanNames> names_;
  double construct_s_ = 0.0;
  double add_clients_s_ = 0.0;
  double start_s_ = 0.0;
  double last_ap_x_ = 0.0;
  Time horizon_;
  std::vector<std::unique_ptr<wgtt::mobility::Trajectory>> trajectories_;
  std::vector<std::pair<Time, Time>> windows_;
  // Declared before the system so the APs never outlive the registry they
  // count into.
  wgtt::obs::MetricsRegistry ap_registry_;
  std::unique_ptr<wgtt::scenario::WgttSystem> system_;
  std::vector<Flow> flows_;
  std::uint64_t packets_ = 0;
  std::vector<double> bitrate_mbps_;
  std::vector<int> probe_match_;
  std::vector<int> probe_total_;
  std::function<void()> probe_;
};

double counter_of(const wgtt::obs::MetricsRegistry& m, const std::string& key) {
  const wgtt::obs::Counter* c = m.find_counter(key);
  return c != nullptr ? static_cast<double>(c->value()) : 0.0;
}

DriveStats run_city(const Workload& w, std::uint64_t seed, Tracer* tracer, int workers) {
  DriveStats rec;
  rec.seed = seed;
  wgtt::scenario::ParallelCityConfig cfg = w.city;
  cfg.seed = seed;
  cfg.workers = workers;
  SpanRecorder* spans = tracer != nullptr ? &tracer->spans : nullptr;
  std::optional<SpanNames> names;
  if (spans != nullptr) names.emplace(*spans);

  const auto t0 = Clock::now();
  const double cpu0 = process_cpu_s();
  wgtt::scenario::ParallelCityResult r;
  {
    ScopedSpan s(spans, names ? names->city_call : 0);
    r = wgtt::scenario::run_parallel_city(cfg);
  }
  rec.op_cpu_s = process_cpu_s() - cpu0;
  rec.op_wall_s = seconds_since(t0);
  rec.run_wall_s = r.wall_s;
  rec.setup_s = rec.op_wall_s - r.wall_s;
  rec.workers = r.workers_used;
  rec.sim_s = cfg.horizon > Time::zero()
                  ? cfg.horizon.to_seconds()
                  : cfg.drive_span_m / wgtt::mph_to_mps(cfg.mph);
  rec.events = r.events_executed;
  rec.switches = r.switches;
  rec.goodput_mbps = r.mean_mbps;

  std::vector<std::uint64_t> words;
  for (const double mbps : r.client_mbps) {
    std::uint64_t bits = 0;
    static_assert(sizeof(bits) == sizeof(mbps));
    std::memcpy(&bits, &mbps, sizeof(bits));
    words.push_back(bits);
  }
  words.push_back(rec.switches);
  words.push_back(rec.events);
  rec.digest = fnv1a(words);

  auto& c = rec.counts;
  if (r.metrics) {
    const auto& m = *r.metrics;
    rec.packets = static_cast<std::uint64_t>(counter_of(m, "mac.mpdus_delivered"));
    c["mac.mpdus_delivered"] = counter_of(m, "mac.mpdus_delivered");
    c["mac.retransmissions"] = counter_of(m, "mac.retransmissions");
    c["mac.ba_timeouts"] =
        counter_of(m, "mac.ba_timeouts") + counter_of(m, "client_mac.ba_timeouts");
    c["core.downlink_packets"] = counter_of(m, "controller.downlink_packets");
    c["core.fanout_copies"] = counter_of(m, "controller.fanout_copies");
    c["core.csi_reports"] = counter_of(m, "controller.csi_reports");
    c["core.uplink_packets"] = counter_of(m, "controller.uplink_packets");
    c["core.uplink_duplicates_dropped"] = counter_of(m, "controller.dedup_hits");
    c["core.switches_initiated"] = counter_of(m, "controller.switches_initiated");
    c["core.switches_completed"] = counter_of(m, "controller.switches_completed");
    c["core.stop_retransmissions"] = counter_of(m, "controller.stop_retransmissions");
    c["ap.downlink_received"] = counter_of(m, "ap.downlink_received");
    c["ap.stale_dropped"] = counter_of(m, "ap.stale_dropped");
    c["ap.pump_enqueued"] = counter_of(m, "ap.pump_enqueued");
    c["ap.cyclic_overwrites"] = counter_of(m, "ap.cyclic_overwrites");
    c["parallel.rounds"] = counter_of(m, "parallel.rounds");
    c["parallel.messages"] = counter_of(m, "parallel.messages");
    double max_events = 0.0;
    double sum_events = 0.0;
    for (int d = 0; d < r.domains; ++d) {
      const double e = counter_of(m, "parallel.domain" + std::to_string(d) + ".events");
      max_events = std::max(max_events, e);
      sum_events += e;
    }
    c["parallel.domain_imbalance"] =
        sum_events > 0.0 ? max_events / (sum_events / r.domains) : 0.0;
  }

  if (r.invariant_violations != 0) {
    rec.failed = true;
    rec.failure = "check_invariants reported " + std::to_string(r.invariant_violations);
  } else if (r.lookahead_violations != 0) {
    rec.failed = true;
    rec.failure = "lookahead_violations " + std::to_string(r.lookahead_violations);
  } else if (rec.packets == 0) {
    rec.failed = true;
    rec.failure = "no downlink packet reached a client";
  }
  return rec;
}

}  // namespace

const Workload* find_workload(std::string_view name) {
  for (const Workload& w : workloads()) {
    if (w.name == name) return &w;
  }
  return nullptr;
}

std::vector<std::string> workload_names() {
  std::vector<std::string> out;
  for (const Workload& w : workloads()) out.push_back(w.name);
  return out;
}

std::uint64_t drive_seed(std::uint64_t run_seed, int k) {
  return run_seed * 1000 + static_cast<std::uint64_t>(k) + 1;
}

DriveStats run_drive_once(const Workload& w, std::uint64_t seed, Tracer* tracer,
                           int workers) {
  if (w.parallel) return run_city(w, seed, tracer, workers);
  DriveStats rec;
  rec.seed = seed;
  SpanRecorder* spans = tracer != nullptr ? &tracer->spans : nullptr;
  std::optional<SpanNames> names;
  if (spans != nullptr) {
    spans->set_drive(seed);
    names.emplace(*spans);
  }
  const auto t0 = Clock::now();
  {
    ScopedSpan root(spans, names ? names->drive : 0);
    auto d = std::make_unique<SingleDrive>(w, seed, spans);
    d->fill_setup(rec);
    d->run(tracer, rec);
    ScopedSpan s(spans, names ? names->teardown : 0);
    d.reset();
  }
  rec.op_wall_s = seconds_since(t0);
  return rec;
}

double setup_once(const Workload& w, std::uint64_t seed) {
  if (w.parallel) {
    wgtt::scenario::ParallelCityConfig cfg = w.city;
    cfg.seed = seed;
    cfg.horizon = Time::ms(1);
    const auto t0 = Clock::now();
    const wgtt::scenario::ParallelCityResult r = wgtt::scenario::run_parallel_city(cfg);
    return seconds_since(t0) - r.wall_s;
  }
  SingleDrive d(w, seed, nullptr);
  DriveStats rec;
  d.fill_setup(rec);
  return rec.setup_s;
}

Isolated isolated_timings(const Workload& w, std::uint64_t seed) {
  Isolated out;
  if (w.parallel) return out;  // run_parallel_city keeps its systems private
  SingleDrive d(w, seed, nullptr);
  wgtt::scenario::TestbedGeometry& geo = d.system().geometry();

  // Back-to-back clock reads, subtracted from every per-call sample.
  std::vector<double> empty;
  for (int i = 0; i < 2001; ++i) {
    const auto a = Clock::now();
    const auto b = Clock::now();
    empty.push_back(static_cast<double>((b - a).count()));
  }
  std::nth_element(empty.begin(), empty.begin() + 1000, empty.end());
  const double clock_ns = empty[1000];
  const auto elapsed_ns = [clock_ns](Clock::time_point a, Clock::time_point b) {
    return std::max(0.0, static_cast<double>((b - a).count()) - clock_ns);
  };

  // The workload's own AP-client geometry: at evenly spaced instants of the
  // drive, each client against its nearest APs.
  constexpr int kNearest = 4;
  constexpr std::size_t kTarget = 4000;
  const int clients = d.num_clients();
  const int aps = geo.num_aps();
  const int near = std::min(kNearest, aps);
  const int instants = std::max<int>(
      8, static_cast<int>(kTarget / static_cast<std::size_t>(clients * near)) + 1);
  double sink = 0.0;
  std::vector<wgtt::channel::CsiMeasurement> csis;
  std::vector<int> order(static_cast<std::size_t>(aps));
  for (int k = 0; k < instants; ++k) {
    const Time t = Time::seconds(d.horizon().to_seconds() * (k + 0.5) / instants);
    for (int c = 0; c < clients; ++c) {
      const wgtt::channel::Vec2 pos = geo.client_position(c, t);
      for (int a = 0; a < aps; ++a) order[static_cast<std::size_t>(a)] = a;
      std::partial_sort(order.begin(), order.begin() + near, order.end(),
                        [&](int x, int y) {
                          return std::abs(geo.ap_position(x).x - pos.x) <
                                 std::abs(geo.ap_position(y).x - pos.x);
                        });
      for (int j = 0; j < near; ++j) {
        const wgtt::channel::LinkChannel& link = geo.link(order[static_cast<std::size_t>(j)], c);
        const auto a = Clock::now();
        const wgtt::channel::CsiMeasurement m = link.measure(pos, t);
        const auto b = Clock::now();
        out.measure_ns.push_back(elapsed_ns(a, b));
        sink += m.rssi_dbm;
        csis.push_back(m);
      }
    }
  }
  for (const auto& m : csis) {
    const std::span<const double> snr(m.subcarrier_snr_db);
    const wgtt::phy::Modulation mod =
        wgtt::phy::mcs_info(wgtt::phy::highest_mcs_for_esnr(wgtt::phy::esnr_metric_db(snr)))
            .modulation;
    auto a = Clock::now();
    const double eff = wgtt::phy::effective_snr_db(snr, mod) + wgtt::phy::esnr_metric_db(snr);
    auto b = Clock::now();
    out.esnr_ns.push_back(elapsed_ns(a, b));
    const double ber = std::clamp(
        wgtt::phy::bit_error_rate(mod, std::pow(10.0, wgtt::phy::effective_snr_db(snr, mod) / 10.0)),
        1e-12, 0.5);
    a = Clock::now();
    const double snr_lin = wgtt::phy::snr_for_ber(mod, ber);
    b = Clock::now();
    out.snr_for_ber_ns.push_back(elapsed_ns(a, b));
    sink += eff + snr_lin;
  }
  if (std::isnan(sink)) throw std::runtime_error("isolated timings: NaN channel sample");
  return out;
}

double sched_ns_per_op(std::size_t depth, std::uint64_t seed) {
  if (depth == 0) return 0.0;
  constexpr int kOps = 200000;
  std::uint64_t state = seed * 0x9e3779b97f4a7c15ull + 1;
  auto next_delay = [&state] {
    state ^= state << 13;
    state ^= state >> 7;
    state ^= state << 17;
    return Time::ns(static_cast<std::int64_t>(state % 10'000'000));  // < 10 ms
  };
  std::vector<double> reps;
  for (int r = 0; r < 5; ++r) {
    wgtt::sim::Scheduler s;
    for (std::size_t i = 0; i < depth; ++i) s.schedule_in(next_delay(), [] {});
    const auto t0 = Clock::now();
    for (int i = 0; i < kOps; ++i) {
      s.step();
      s.schedule_in(next_delay(), [] {});
    }
    reps.push_back(seconds_since(t0) * 1e9 / kOps);
  }
  std::sort(reps.begin(), reps.end());
  return reps[reps.size() / 2];
}

}  // namespace perfbench
