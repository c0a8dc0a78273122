// wgtt-trace: converts simulator trace artifacts into Chrome trace_event
// JSON loadable in Perfetto / chrome://tracing.
//
// Inputs (both optional, at least one required):
//   --csv FILE        Tracer CSV export (the flight-recorder ring):
//                     when_s,kind,client,node,aux,value. '#' comment lines
//                     (the post-mortem tail header) are skipped.
//   --timeline FILE   TimelineRecorder JSONL (one sample object per line).
//
// Output (--out FILE, default stdout): {"traceEvents":[...]} with
//   - one process (pid) per client, named via "M" metadata events;
//   - "X" complete slices on the per-client "switching" track for every
//     kSwitchInitiated → kSwitchCompleted pair (the stop→start→ack span,
//     the same interval the WgttAp SpanTrackers decompose), with
//     from/to/protocol_ms in args;
//   - "C" counter tracks: serving AP (from switch completions), and from
//     the timeline goodput_mbps, top-candidate ESNR, cwnd/srtt.
//
// --require-spans exits nonzero when no switch span was produced — the CI
// smoke chain uses it to assert the fig17 run actually switched.
//
// Exit codes: 0 ok; 1 usage; 2 unreadable/malformed input.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

namespace {

struct CsvEvent {
  double when_s = 0.0;
  std::string kind;
  int client = -1;
  int node = -1;
  int aux = -1;
  double value = 0.0;
};

struct TimelinePoint {
  double t_s = 0.0;
  int client = -1;
  int serving = -1;
  double goodput_mbps = 0.0;
  std::optional<double> esnr_db;  // best candidate
  std::optional<double> cwnd_segments;
  std::optional<double> srtt_ms;
};

struct Span {
  double start_s = 0.0;
  double end_s = 0.0;
  int client = -1;
  int from = -1;
  int to = -1;
  double protocol_ms = 0.0;
};

bool parse_csv(std::istream& in, std::vector<CsvEvent>& out,
               std::string& error) {
  std::string line;
  bool saw_header = false;
  std::size_t lineno = 0;
  while (std::getline(in, line)) {
    ++lineno;
    if (line.empty() || line[0] == '#') continue;
    if (!saw_header) {
      if (line != "when_s,kind,client,node,aux,value") {
        error = "line " + std::to_string(lineno) +
                ": expected Tracer CSV header, got \"" + line + "\"";
        return false;
      }
      saw_header = true;
      continue;
    }
    CsvEvent e;
    std::istringstream row(line);
    std::string field;
    const bool ok = std::getline(row, field, ',') &&
                    (e.when_s = std::atof(field.c_str()), true) &&
                    std::getline(row, e.kind, ',') &&
                    std::getline(row, field, ',') &&
                    (e.client = std::atoi(field.c_str()), true) &&
                    std::getline(row, field, ',') &&
                    (e.node = std::atoi(field.c_str()), true) &&
                    std::getline(row, field, ',') &&
                    (e.aux = std::atoi(field.c_str()), true) &&
                    std::getline(row, field) &&
                    (e.value = std::atof(field.c_str()), true);
    if (!ok || e.kind.empty()) {
      error = "line " + std::to_string(lineno) + ": malformed row \"" + line +
              "\"";
      return false;
    }
    out.push_back(std::move(e));
  }
  if (!saw_header) {
    error = "no Tracer CSV header found";
    return false;
  }
  return true;
}

/// Value of `"key":<number>` in a JSONL line; nullopt when absent.
std::optional<double> find_number(const std::string& line,
                                  const std::string& key) {
  const std::string needle = "\"" + key + "\":";
  const auto pos = line.find(needle);
  if (pos == std::string::npos) return std::nullopt;
  return std::atof(line.c_str() + pos + needle.size());
}

bool parse_timeline(std::istream& in, std::vector<TimelinePoint>& out,
                    std::string& error) {
  std::string line;
  std::size_t lineno = 0;
  while (std::getline(in, line)) {
    ++lineno;
    if (line.empty()) continue;
    TimelinePoint p;
    const auto t = find_number(line, "t_s");
    const auto client = find_number(line, "client");
    if (!t || !client || line.front() != '{') {
      error = "timeline line " + std::to_string(lineno) +
              ": not a sample object";
      return false;
    }
    p.t_s = *t;
    p.client = static_cast<int>(*client);
    p.serving = static_cast<int>(find_number(line, "serving").value_or(-1.0));
    p.goodput_mbps = find_number(line, "goodput_mbps").value_or(0.0);
    // First esnr entry is the best candidate (the writer sorts best-first).
    const auto esnr_at = line.find("\"esnr\":[{");
    if (esnr_at != std::string::npos) {
      const auto db = find_number(line.substr(esnr_at), "db");
      if (db) p.esnr_db = *db;
    }
    if (const auto v = find_number(line, "cwnd_segments")) p.cwnd_segments = *v;
    if (const auto v = find_number(line, "srtt_ms")) p.srtt_ms = *v;
    out.push_back(p);
  }
  return true;
}

void emit_json_string(std::ostream& out, const std::string& s) {
  out << '"';
  for (char c : s) {
    if (c == '"' || c == '\\') out << '\\';
    out << c;
  }
  out << '"';
}

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s [--csv trace.csv] [--timeline timeline.jsonl]\n"
               "          [--out trace.json] [--require-spans]\n"
               "Converts Tracer CSV and/or TimelineRecorder JSONL into Chrome\n"
               "trace_event JSON (Perfetto / chrome://tracing).\n",
               argv0);
  return 1;
}

}  // namespace

int main(int argc, char** argv) {
  std::string csv_path;
  std::string timeline_path;
  std::string out_path;
  bool require_spans = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&](const char* flag) -> std::optional<std::string> {
      if (arg == flag && i + 1 < argc) return std::string(argv[++i]);
      const std::string pre = std::string(flag) + "=";
      if (arg.rfind(pre, 0) == 0) return arg.substr(pre.size());
      return std::nullopt;
    };
    if (arg == "--help" || arg == "-h") {
      usage(argv[0]);
      return 0;
    } else if (arg == "--require-spans") {
      require_spans = true;
    } else if (auto csv = value("--csv")) {
      csv_path = *csv;
    } else if (auto timeline = value("--timeline")) {
      timeline_path = *timeline;
    } else if (auto out = value("--out")) {
      out_path = *out;
    } else {
      std::fprintf(stderr, "unknown argument: %s\n", arg.c_str());
      return usage(argv[0]);
    }
  }
  if (csv_path.empty() && timeline_path.empty()) return usage(argv[0]);

  std::vector<CsvEvent> events;
  std::vector<TimelinePoint> points;
  std::string error;
  if (!csv_path.empty()) {
    std::ifstream in(csv_path);
    if (!in) {
      std::fprintf(stderr, "cannot open %s\n", csv_path.c_str());
      return 2;
    }
    if (!parse_csv(in, events, error)) {
      std::fprintf(stderr, "%s: %s\n", csv_path.c_str(), error.c_str());
      return 2;
    }
  }
  if (!timeline_path.empty()) {
    std::ifstream in(timeline_path);
    if (!in) {
      std::fprintf(stderr, "cannot open %s\n", timeline_path.c_str());
      return 2;
    }
    if (!parse_timeline(in, points, error)) {
      std::fprintf(stderr, "%s: %s\n", timeline_path.c_str(), error.c_str());
      return 2;
    }
  }

  // Pair switch initiations with their completions, per client. An
  // initiation superseded by a newer one before completing (failover,
  // re-bootstrap) is closed at the superseding initiation so no span leaks
  // to infinity.
  std::vector<Span> spans;
  std::vector<std::optional<std::size_t>> open;  // client -> index into spans
  int max_client = -1;
  for (const auto& e : events) max_client = std::max(max_client, e.client);
  for (const auto& p : points) max_client = std::max(max_client, p.client);
  open.assign(static_cast<std::size_t>(max_client + 1), std::nullopt);
  for (const auto& e : events) {
    if (e.client < 0 || e.client > max_client) continue;
    const auto c = static_cast<std::size_t>(e.client);
    if (e.kind == "switch_initiated") {
      if (open[c]) spans[*open[c]].end_s = e.when_s;
      open[c] = spans.size();
      spans.push_back({e.when_s, e.when_s, e.client, e.node, e.aux, 0.0});
    } else if (e.kind == "switch_completed") {
      if (!open[c]) continue;  // completion whose initiation fell off the ring
      Span& s = spans[*open[c]];
      s.end_s = e.when_s;
      s.protocol_ms = e.value;
      open[c] = std::nullopt;
    }
  }

  std::ofstream file;
  if (!out_path.empty()) {
    file.open(out_path);
    if (!file) {
      std::fprintf(stderr, "cannot open %s for writing\n", out_path.c_str());
      return 2;
    }
  }
  std::ostream& out = out_path.empty() ? std::cout : file;

  out << "{\"traceEvents\":[\n";
  bool first = true;
  auto sep = [&] {
    if (!first) out << ",\n";
    first = false;
  };

  for (int c = 0; c <= max_client; ++c) {
    sep();
    out << "{\"ph\":\"M\",\"pid\":" << c
        << ",\"name\":\"process_name\",\"args\":{\"name\":\"client " << c
        << "\"}}";
    sep();
    out << "{\"ph\":\"M\",\"pid\":" << c
        << ",\"tid\":1,\"name\":\"thread_name\",\"args\":{\"name\":"
           "\"switching\"}}";
  }

  char buf[64];
  for (const auto& s : spans) {
    sep();
    out << "{\"ph\":\"X\",\"pid\":" << s.client << ",\"tid\":1,\"ts\":";
    std::snprintf(buf, sizeof(buf), "%.3f", s.start_s * 1e6);
    out << buf << ",\"dur\":";
    std::snprintf(buf, sizeof(buf), "%.3f", (s.end_s - s.start_s) * 1e6);
    out << buf << ",\"name\":";
    std::string name = "switch ";
    name += (s.from >= 0 ? "ap" + std::to_string(s.from) : "(none)");
    name += "→ap" + std::to_string(s.to);
    emit_json_string(out, name);
    out << ",\"args\":{\"from\":" << s.from << ",\"to\":" << s.to
        << ",\"protocol_ms\":" << s.protocol_ms << "}}";
  }

  for (const auto& e : events) {
    if (e.kind != "switch_completed" || e.client < 0) continue;
    sep();
    std::snprintf(buf, sizeof(buf), "%.3f", e.when_s * 1e6);
    out << "{\"ph\":\"C\",\"pid\":" << e.client << ",\"ts\":" << buf
        << ",\"name\":\"serving_ap\",\"args\":{\"ap\":" << e.node << "}}";
  }

  for (const auto& p : points) {
    sep();
    std::snprintf(buf, sizeof(buf), "%.3f", p.t_s * 1e6);
    out << "{\"ph\":\"C\",\"pid\":" << p.client << ",\"ts\":" << buf
        << ",\"name\":\"goodput_mbps\",\"args\":{\"mbps\":" << p.goodput_mbps
        << "}}";
    if (p.esnr_db) {
      sep();
      out << "{\"ph\":\"C\",\"pid\":" << p.client << ",\"ts\":" << buf
          << ",\"name\":\"best_esnr_db\",\"args\":{\"db\":" << *p.esnr_db
          << "}}";
    }
    if (p.cwnd_segments) {
      sep();
      out << "{\"ph\":\"C\",\"pid\":" << p.client << ",\"ts\":" << buf
          << ",\"name\":\"tcp\",\"args\":{\"cwnd_segments\":"
          << *p.cwnd_segments << ",\"srtt_ms\":" << p.srtt_ms.value_or(0.0)
          << "}}";
    }
  }

  out << "\n]}\n";
  out.flush();

  std::fprintf(stderr, "wgtt-trace: %zu csv events, %zu timeline samples, %zu switch spans\n",
               events.size(), points.size(), spans.size());
  if (require_spans && spans.empty()) {
    std::fprintf(stderr, "wgtt-trace: --require-spans: no switch spans found\n");
    return 2;
  }
  return 0;
}
