// Tests for the observability subsystem: span recording across thread-pool
// workers, counter aggregation, exporter validity, and the disabled path.

#include <gtest/gtest.h>

#include <atomic>
#include <cstddef>
#include <sstream>
#include <string>
#include <vector>

#include "common/json.hpp"
#include "obs/export.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "runtime/parallel.hpp"

namespace neurfill {
namespace {

// With -DNEURFILL_ENABLE_TRACING=OFF the NF_* macros evaluate nothing, so
// tests that assert on recorded data skip themselves (the exporters and
// SpanTimer still work and stay tested).
#if defined(NEURFILL_DISABLE_TRACING)
#define NF_TEST_NEEDS_MACROS() GTEST_SKIP() << "tracing macros compiled out"
#else
#define NF_TEST_NEEDS_MACROS() static_cast<void>(0)
#endif

/// Enables both obs gates for the test body and restores the disabled
/// default (with empty stores) afterwards, so tests are order-independent.
class ObsTest : public ::testing::Test {
 protected:
  void SetUp() override {
    obs::reset_trace();
    obs::reset_metrics();
    obs::set_tracing_enabled(true);
    obs::set_metrics_enabled(true);
  }
  void TearDown() override {
    obs::set_tracing_enabled(false);
    obs::set_metrics_enabled(false);
    obs::reset_trace();
    obs::reset_metrics();
    runtime::set_thread_count(0);
  }

  static std::size_t total_events_named(const std::string& name) {
    std::size_t n = 0;
    for (const obs::ThreadTrace& t : obs::trace_snapshot())
      for (const obs::TraceEvent& e : t.events)
        if (name == e.name) ++n;
    return n;
  }
};

TEST_F(ObsTest, CounterAggregatesAcrossPoolThreads) {
  NF_TEST_NEEDS_MACROS();
  for (const int threads : {1, 4}) {
    runtime::set_thread_count(threads);
    obs::reset_metrics();
    runtime::parallel_for(1, 64, [](std::size_t b0, std::size_t b1) {
      for (std::size_t b = b0; b < b1; ++b) NF_COUNTER_ADD("test.units", 1);
    });
    EXPECT_EQ(obs::counter("test.units").value(), 64) << threads;
  }
}

TEST_F(ObsTest, SpansNestAcrossPoolTasks) {
  NF_TEST_NEEDS_MACROS();
  for (const int threads : {1, 4}) {
    runtime::set_thread_count(threads);
    obs::reset_trace();
    {
      NF_TRACE_SPAN("test.outer");
      runtime::parallel_for(4, 32, [](std::size_t b0, std::size_t b1) {
        for (std::size_t b = b0; b < b1; ++b) {
          NF_TRACE_SPAN("test.inner");
        }
      });
    }
    // Every item produced one inner span somewhere (main participates and
    // workers steal; the distribution is not fixed, the total is).
    EXPECT_EQ(total_events_named("test.inner"), 32u) << threads;
    EXPECT_EQ(total_events_named("test.outer"), 1u) << threads;

    // Proper nesting per track: spans on one thread never partially
    // overlap — for any two events one contains the other or they are
    // disjoint.  This is what lets chrome://tracing infer the hierarchy.
    for (const obs::ThreadTrace& t : obs::trace_snapshot()) {
      for (std::size_t i = 0; i < t.events.size(); ++i) {
        for (std::size_t j = i + 1; j < t.events.size(); ++j) {
          const obs::TraceEvent& a = t.events[i];
          const obs::TraceEvent& b = t.events[j];
          const bool disjoint =
              a.end_ns <= b.begin_ns || b.end_ns <= a.begin_ns;
          const bool a_in_b = b.begin_ns <= a.begin_ns && a.end_ns <= b.end_ns;
          const bool b_in_a = a.begin_ns <= b.begin_ns && b.end_ns <= a.end_ns;
          EXPECT_TRUE(disjoint || a_in_b || b_in_a)
              << t.thread_name << ": " << a.name << " vs " << b.name;
        }
      }
    }

    // The outer span contains every inner span recorded on the main track.
    for (const obs::ThreadTrace& t : obs::trace_snapshot()) {
      const obs::TraceEvent* outer = nullptr;
      for (const obs::TraceEvent& e : t.events)
        if (std::string("test.outer") == e.name) outer = &e;
      if (outer == nullptr) continue;
      for (const obs::TraceEvent& e : t.events)
        if (std::string("test.inner") == e.name) {
          EXPECT_GE(e.begin_ns, outer->begin_ns);
          EXPECT_LE(e.end_ns, outer->end_ns);
        }
    }
  }
}

TEST_F(ObsTest, WorkerTracksAreNamed) {
  NF_TEST_NEEDS_MACROS();
  runtime::set_thread_count(3);
  obs::reset_trace();
  runtime::parallel_for(1, 256, [](std::size_t b0, std::size_t b1) {
    for (std::size_t b = b0; b < b1; ++b) {
      NF_TRACE_SPAN("test.block");
    }
  });
  bool saw_main = false;
  for (const obs::ThreadTrace& t : obs::trace_snapshot()) {
    if (t.thread_name == "main") saw_main = true;
    EXPECT_TRUE(t.thread_name == "main" ||
                t.thread_name.rfind("pool-worker-", 0) == 0)
        << t.thread_name;
  }
  EXPECT_TRUE(saw_main);
}

TEST_F(ObsTest, GaugeKeepsLastValue) {
  NF_TEST_NEEDS_MACROS();
  NF_GAUGE_SET("test.level", 1.5);
  NF_GAUGE_SET("test.level", 2.5);
  EXPECT_EQ(obs::gauge("test.level").value(), 2.5);
}

TEST_F(ObsTest, SpanStatsAggregateDurations) {
  NF_TEST_NEEDS_MACROS();
  for (int i = 0; i < 5; ++i) {
    NF_TRACE_SPAN("test.work");
  }
  const obs::MetricsSnapshot snap = obs::metrics_snapshot();
  bool found = false;
  for (const auto& s : snap.spans)
    if (s.name == "test.work") {
      found = true;
      EXPECT_EQ(s.count, 5);
    }
  EXPECT_TRUE(found);
}

// Exporter output must load in chrome://tracing, so the tests parse it
// strictly (common/json.hpp) and assert on the parsed values.
TEST_F(ObsTest, ChromeTraceExportIsValidJson) {
  const std::string quoted = "test.inner_with_\"quotes\"_and_\\slashes";
  {
    NF_TRACE_SPAN("test.outer");
    NF_TRACE_SPAN("test.inner_with_\"quotes\"_and_\\slashes");
  }
  std::ostringstream os;
  obs::write_chrome_trace(os);
  const std::string text = os.str();
  const Expected<JsonValue> doc = json_parse(text);
  ASSERT_TRUE(doc.ok()) << doc.error().to_string() << "\n" << text;
  EXPECT_EQ(doc->get_string("displayTimeUnit"), "ms");
  ASSERT_TRUE(doc->has("traceEvents")) << text;
  const JsonValue& events = doc->object.at("traceEvents");
  ASSERT_EQ(events.kind, JsonValue::Kind::kArray);
#if !defined(NEURFILL_DISABLE_TRACING)
  int outer = 0, inner = 0;
  for (const JsonValue& e : events.array) {
    if (e.get_string("ph") != "X") continue;
    EXPECT_GE(e.get_number("dur", -1.0), 0.0);
    outer += e.get_string("name") == "test.outer" ? 1 : 0;
    inner += e.get_string("name") == quoted ? 1 : 0;
  }
  EXPECT_EQ(outer, 1) << text;
  EXPECT_EQ(inner, 1) << text;  // escaping round-trips
#endif
}

TEST_F(ObsTest, MetricsJsonExportIsValidJson) {
  NF_COUNTER_ADD("test.count", 7);
  NF_GAUGE_SET("test.gauge", 0.25);
  {
    NF_TRACE_SPAN("test.span");
  }
  std::ostringstream os;
  obs::write_metrics_json(os);
  const std::string text = os.str();
  const Expected<JsonValue> doc = json_parse(text);
  ASSERT_TRUE(doc.ok()) << doc.error().to_string() << "\n" << text;
  for (const char* key : {"counters", "gauges", "spans"}) {
    ASSERT_TRUE(doc->has(key)) << key << ": " << text;
    EXPECT_EQ(doc->object.at(key).kind, JsonValue::Kind::kObject) << key;
  }
#if !defined(NEURFILL_DISABLE_TRACING)
  EXPECT_EQ(doc->object.at("counters").get_number("test.count"), 7.0) << text;
  EXPECT_EQ(doc->object.at("gauges").get_number("test.gauge"), 0.25) << text;
  const JsonValue& spans = doc->object.at("spans");
  ASSERT_TRUE(spans.has("test.span")) << text;
  EXPECT_EQ(spans.object.at("test.span").get_number("count"), 1.0);
  EXPECT_GE(spans.object.at("test.span").get_number("total_s", -1.0), 0.0);
#endif
}

TEST_F(ObsTest, SpanTimerMatchesTraceEvent) {
  obs::SpanTimer timer("test.timed");
  const double s1 = timer.stop_seconds();
  const double s2 = timer.stop_seconds();  // idempotent
  EXPECT_GE(s1, 0.0);
  EXPECT_EQ(s1, s2);
  // The recorded event spans exactly the reported duration.
  for (const obs::ThreadTrace& t : obs::trace_snapshot())
    for (const obs::TraceEvent& e : t.events)
      if (std::string("test.timed") == e.name) {
        EXPECT_DOUBLE_EQ(static_cast<double>(e.end_ns - e.begin_ns) * 1e-9,
                         s1);
      }
  EXPECT_EQ(total_events_named("test.timed"), 1u);
}

TEST_F(ObsTest, ResetClearsStores) {
  NF_COUNTER_ADD("test.count", 3);
  {
    NF_TRACE_SPAN("test.span");
  }
  obs::reset_metrics();
  obs::reset_trace();
  EXPECT_EQ(obs::counter("test.count").value(), 0);
  EXPECT_EQ(total_events_named("test.span"), 0u);
}

TEST(ObsDisabled, DisabledPathRecordsNothing) {
  obs::set_tracing_enabled(false);
  obs::set_metrics_enabled(false);
  obs::reset_trace();
  obs::reset_metrics();
  {
    NF_TRACE_SPAN("test.off_span");
    NF_COUNTER_ADD("test.off_count", 5);
    NF_GAUGE_SET("test.off_gauge", 1.0);
  }
  obs::SpanTimer timer("test.off_timer");
  EXPECT_GE(timer.stop_seconds(), 0.0);  // still a stopwatch when disabled

  std::size_t events = 0;
  for (const obs::ThreadTrace& t : obs::trace_snapshot())
    events += t.events.size();
  EXPECT_EQ(events, 0u);
  EXPECT_EQ(obs::counter("test.off_count").value(), 0);
  EXPECT_EQ(obs::gauge("test.off_gauge").value(), 0.0);
  const obs::MetricsSnapshot snap = obs::metrics_snapshot();
  for (const auto& s : snap.spans) EXPECT_EQ(s.count, 0) << s.name;
}

}  // namespace
}  // namespace neurfill
