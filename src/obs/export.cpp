#include "obs/export.hpp"

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <ostream>
#include <string>

#include "common/json.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace neurfill::obs {

namespace {

/// Prints a double with enough digits to round-trip, without iostream
/// locale/precision state leaking in.
std::string json_double(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.9g", v);
  return buf;
}

}  // namespace

void write_chrome_trace(std::ostream& os) {
  std::vector<ThreadTrace> threads = trace_snapshot();
  os << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  bool first = true;
  char buf[256];
  for (const ThreadTrace& t : threads) {
    if (!first) os << ',';
    first = false;
    os << "\n{\"ph\":\"M\",\"pid\":1,\"tid\":" << t.tid
       << ",\"name\":\"thread_name\",\"args\":{\"name\":\""
       << json_escape(t.thread_name) << "\"}}";
    // Sort by begin time: viewers tolerate unsorted events, but sorted
    // output diffs cleanly and streams better into Perfetto.
    std::vector<TraceEvent> events = t.events;
    std::sort(events.begin(), events.end(),
              [](const TraceEvent& a, const TraceEvent& b) {
                return a.begin_ns != b.begin_ns ? a.begin_ns < b.begin_ns
                                                : a.end_ns > b.end_ns;
              });
    for (const TraceEvent& e : events) {
      // Timestamps in microseconds with nanosecond resolution kept in the
      // fraction, as chrome://tracing expects.
      std::snprintf(buf, sizeof(buf),
                    ",\n{\"ph\":\"X\",\"pid\":1,\"tid\":%d,\"name\":\"%s\","
                    "\"ts\":%" PRIu64 ".%03u,\"dur\":%" PRIu64 ".%03u}",
                    t.tid, json_escape(e.name).c_str(), e.begin_ns / 1000,
                    static_cast<unsigned>(e.begin_ns % 1000),
                    (e.end_ns - e.begin_ns) / 1000,
                    static_cast<unsigned>((e.end_ns - e.begin_ns) % 1000));
      os << buf;
    }
    if (t.dropped > 0) {
      os << ",\n{\"ph\":\"M\",\"pid\":1,\"tid\":" << t.tid
         << ",\"name\":\"process_labels\",\"args\":{\"labels\":\"dropped "
         << t.dropped << " events\"}}";
    }
  }
  os << "\n]}\n";
}

void write_metrics_text(std::ostream& os) {
  const MetricsSnapshot snap = metrics_snapshot();
  char buf[256];
  os << "== metrics ==\n";
  if (!snap.counters.empty()) {
    os << "counters:\n";
    for (const auto& c : snap.counters) {
      std::snprintf(buf, sizeof(buf), "  %-36s %20lld\n", c.name.c_str(),
                    static_cast<long long>(c.value));
      os << buf;
    }
  }
  if (!snap.gauges.empty()) {
    os << "gauges:\n";
    for (const auto& g : snap.gauges) {
      std::snprintf(buf, sizeof(buf), "  %-36s %20.6g\n", g.name.c_str(),
                    g.value);
      os << buf;
    }
  }
  if (!snap.spans.empty()) {
    os << "spans:                                    count      total       "
          "mean\n";
    for (const auto& s : snap.spans) {
      const double mean =
          s.count > 0 ? s.total_s / static_cast<double>(s.count) : 0.0;
      std::snprintf(buf, sizeof(buf), "  %-36s %9lld %9.3fs %9.6fs\n",
                    s.name.c_str(), static_cast<long long>(s.count),
                    s.total_s, mean);
      os << buf;
    }
  }
}

void write_metrics_json(std::ostream& os) {
  const MetricsSnapshot snap = metrics_snapshot();
  os << "{\"counters\":{";
  for (std::size_t i = 0; i < snap.counters.size(); ++i) {
    if (i > 0) os << ',';
    os << '"' << json_escape(snap.counters[i].name)
       << "\":" << snap.counters[i].value;
  }
  os << "},\"gauges\":{";
  for (std::size_t i = 0; i < snap.gauges.size(); ++i) {
    if (i > 0) os << ',';
    os << '"' << json_escape(snap.gauges[i].name)
       << "\":" << json_double(snap.gauges[i].value);
  }
  os << "},\"spans\":{";
  for (std::size_t i = 0; i < snap.spans.size(); ++i) {
    if (i > 0) os << ',';
    os << '"' << json_escape(snap.spans[i].name) << "\":{\"count\":"
       << snap.spans[i].count << ",\"total_s\":"
       << json_double(snap.spans[i].total_s) << '}';
  }
  os << "}}\n";
}

}  // namespace neurfill::obs
