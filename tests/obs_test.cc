// Observability subsystem: interned metrics, log2 histograms, the
// lock-free ring buffer under contention, sink formats, and the strict
// JSONL reader.
#include <gtest/gtest.h>

#include <cstdio>
#include <map>
#include <thread>
#include <vector>

#include "obs/metrics.h"
#include "obs/ring_buffer.h"
#include "obs/sink.h"
#include "obs/trace.h"
#include "obs/trace_reader.h"

namespace pbse::obs {
namespace {

TEST(Metrics, InterningIsIdempotentAndFindable) {
  const MetricId a = intern_metric("obs_test.counter_a");
  const MetricId b = intern_metric("obs_test.counter_b");
  EXPECT_NE(a, b);
  EXPECT_EQ(intern_metric("obs_test.counter_a"), a);
  EXPECT_EQ(find_metric("obs_test.counter_a"), a);
  EXPECT_EQ(find_metric("obs_test.never_interned"), kInvalidMetric);
  EXPECT_EQ(metric_name(a), "obs_test.counter_a");
}

TEST(Metrics, StoreCountersAndMerge) {
  const MetricId a = intern_metric("obs_test.merge_a");
  const MetricId b = intern_metric("obs_test.merge_b");
  MetricStore x, y;
  x.add(a, 3);
  y.add(a, 4);
  y.add(b);
  x.merge(y);
  EXPECT_EQ(x.counter(a), 7u);
  EXPECT_EQ(x.counter(b), 1u);
  EXPECT_EQ(x.counter(kInvalidMetric - 1), 0u);  // never touched
}

TEST(Metrics, StoreDeepCopy) {
  const MetricId h = intern_metric("obs_test.copy_hist");
  MetricStore x;
  x.observe(h, 5);
  MetricStore y = x;
  y.observe(h, 7);
  EXPECT_EQ(x.histogram(h)->count(), 1u);
  EXPECT_EQ(y.histogram(h)->count(), 2u);
}

TEST(Histogram, Log2Buckets) {
  EXPECT_EQ(Histogram::bucket_of(0), 0u);
  EXPECT_EQ(Histogram::bucket_of(1), 1u);
  EXPECT_EQ(Histogram::bucket_of(2), 2u);
  EXPECT_EQ(Histogram::bucket_of(3), 2u);
  EXPECT_EQ(Histogram::bucket_of(4), 3u);
  EXPECT_EQ(Histogram::bucket_of(~std::uint64_t{0}), 64u);
  EXPECT_EQ(Histogram::bucket_upper(0), 0u);
  EXPECT_EQ(Histogram::bucket_upper(3), 7u);

  Histogram hist;
  for (std::uint64_t v : {0u, 1u, 2u, 3u, 100u}) hist.observe(v);
  EXPECT_EQ(hist.count(), 5u);
  EXPECT_EQ(hist.sum(), 106u);
  EXPECT_EQ(hist.min(), 0u);
  EXPECT_EQ(hist.max(), 100u);
  EXPECT_EQ(hist.bucket(2), 2u);  // values 2 and 3
  // The median (3rd of 5) lands in bucket 2 -> upper bound 3.
  EXPECT_EQ(hist.percentile(0.5), 3u);
  EXPECT_GE(hist.percentile(1.0), 100u);
}

TEST(EventRing, PushPopInOrder) {
  EventRing ring(8);
  TraceEvent e;
  for (std::uint64_t i = 0; i < 8; ++i) {
    e.ticks = i;
    EXPECT_TRUE(ring.try_push(e));
  }
  e.ticks = 99;
  EXPECT_FALSE(ring.try_push(e));  // full
  std::vector<TraceEvent> out;
  ring.pop_all(out);
  ASSERT_EQ(out.size(), 8u);
  for (std::uint64_t i = 0; i < 8; ++i) EXPECT_EQ(out[i].ticks, i);
  EXPECT_TRUE(ring.try_push(e));  // drained: space again
}

// Satellite (d): N producers hammer the tracer concurrently; the sink must
// see every event exactly once, in per-thread emit order. The per-thread
// rings hold 4096 events, so kEvents > 4096 forces the producer-side
// overflow drain path too.
TEST(Tracer, ContendedProducersExactlyOnceInOrder) {
  constexpr unsigned kThreads = 8;
  constexpr std::uint64_t kEvents = 10000;
  const MetricId name = intern_metric("obs_test.contended");

  Tracer::instance().start(std::make_unique<MemorySink>());
  std::vector<std::thread> threads;
  for (unsigned t = 0; t < kThreads; ++t) {
    threads.emplace_back([t, name] {
      CampaignScope scope(t);
      for (std::uint64_t i = 0; i < kEvents; ++i)
        trace_instant(Category::kOther, name, /*ticks=*/i, /*a0=*/i);
    });
  }
  for (auto& th : threads) th.join();
  auto sink = Tracer::instance().stop();
  const auto& events = static_cast<MemorySink*>(sink.get())->events();

  ASSERT_EQ(events.size(), kThreads * kEvents);
  std::map<std::uint32_t, std::uint64_t> next;  // campaign -> expected seq
  for (const auto& e : events) {
    ASSERT_EQ(e.name, name);
    ASSERT_EQ(e.a0, next[e.campaign]) << "out of order in campaign "
                                      << e.campaign;
    ++next[e.campaign];
  }
  ASSERT_EQ(next.size(), kThreads);
  for (const auto& [campaign, count] : next) EXPECT_EQ(count, kEvents);
}

TEST(Tracer, DisabledEmitsNothingAndStartDiscardsStaleEvents) {
  const MetricId name = intern_metric("obs_test.stale");
  trace_instant(Category::kOther, name, 1);  // disabled: dropped
  Tracer::instance().start(std::make_unique<MemorySink>());
  trace_instant(Category::kOther, name, 2);
  auto sink = Tracer::instance().stop();
  const auto& events = static_cast<MemorySink*>(sink.get())->events();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].ticks, 2u);
}

TEST(Sinks, JsonlRoundTripsThroughReader) {
  const std::string path = ::testing::TempDir() + "obs_test_roundtrip.jsonl";
  const MetricId name = intern_metric("obs_test.roundtrip");
  const MetricId arg = intern_metric("value");
  Tracer::instance().start(std::make_unique<JsonlSink>(path));
  trace_begin(Category::kSolver, name, 10, 5, arg);
  trace_end(Category::kSolver, name, 20, 6, arg);
  trace_counter(Category::kVm, name, 30, 7, arg);
  Tracer::instance().stop();

  std::vector<ParsedEvent> events;
  std::string error;
  ASSERT_TRUE(read_trace_jsonl(path, events, error)) << error;
  ASSERT_EQ(events.size(), 3u);
  EXPECT_EQ(events[0].ph, 'B');
  EXPECT_EQ(events[0].cat, "solver");
  EXPECT_EQ(events[0].name, "obs_test.roundtrip");
  EXPECT_EQ(events[0].ts, 10u);
  EXPECT_EQ(events[0].arg("value"), 5u);
  EXPECT_EQ(events[1].ph, 'E');
  EXPECT_EQ(events[2].ph, 'C');
  EXPECT_EQ(events[2].cat, "vm");
  std::remove(path.c_str());
}

TEST(Sinks, FileSinkPicksFormatByExtension) {
  const std::string jsonl = ::testing::TempDir() + "obs_test_fmt.jsonl";
  const std::string chrome = ::testing::TempDir() + "obs_test_fmt.json";
  const MetricId name = intern_metric("obs_test.format");

  Tracer::instance().start(make_file_sink(jsonl));
  trace_instant(Category::kPhase, name, 5);
  Tracer::instance().stop();
  Tracer::instance().start(make_file_sink(chrome));
  trace_instant(Category::kPhase, name, 5);
  Tracer::instance().stop();

  std::vector<ParsedEvent> events;
  std::string error;
  EXPECT_TRUE(read_trace_jsonl(jsonl, events, error)) << error;

  // The Chrome file is one JSON object wrapping a traceEvents array — not
  // line-delimited, so the strict JSONL reader must reject it...
  std::vector<ParsedEvent> chrome_events;
  EXPECT_FALSE(read_trace_jsonl(chrome, chrome_events, error));
  // ...but it must contain the wrapper keys Perfetto expects.
  std::FILE* f = std::fopen(chrome.c_str(), "rb");
  ASSERT_NE(f, nullptr);
  std::string text(1 << 12, '\0');
  text.resize(std::fread(text.data(), 1, text.size(), f));
  std::fclose(f);
  EXPECT_NE(text.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(text.find("\"displayTimeUnit\""), std::string::npos);
  EXPECT_NE(text.find("\"ph\":\"i\""), std::string::npos);
  std::remove(jsonl.c_str());
  std::remove(chrome.c_str());
}

TEST(Reader, RejectsMalformedInputWithLineNumbers) {
  std::vector<ParsedEvent> events;
  std::string error;

  EXPECT_FALSE(parse_trace_jsonl("not json\n", events, error));
  EXPECT_NE(error.find("line 1"), std::string::npos) << error;

  const std::string good =
      "{\"ph\":\"I\",\"cat\":\"vm\",\"name\":\"x\",\"cid\":0,\"tid\":0,"
      "\"ts\":1}\n";
  EXPECT_TRUE(parse_trace_jsonl(good, events, error)) << error;

  EXPECT_FALSE(parse_trace_jsonl(good + "{\"ph\":\"I\"}\n", events, error));
  EXPECT_NE(error.find("line 2"), std::string::npos) << error;

  // Unknown keys are writer drift, not extension points.
  EXPECT_FALSE(parse_trace_jsonl(
      "{\"ph\":\"I\",\"cat\":\"vm\",\"name\":\"x\",\"ts\":1,\"bogus\":2}\n",
      events, error));

  // Truncated mid-object (a crashed writer).
  EXPECT_FALSE(parse_trace_jsonl("{\"ph\":\"I\",\"cat\":\"vm\"", events,
                                 error));

  // Timestamps the sink never writes: past u64, fractional, negative.
  for (const char* ts : {"184467440737095516170", "1.5", "-1"}) {
    EXPECT_FALSE(parse_trace_jsonl(
        "{\"ph\":\"I\",\"cat\":\"vm\",\"name\":\"x\",\"ts\":" +
            std::string(ts) + "}\n",
        events, error))
        << ts;
  }

  // A \u escape decodes to UTF-8.
  std::vector<ParsedEvent> escaped;
  ASSERT_TRUE(parse_trace_jsonl(
      "{\"ph\":\"I\",\"cat\":\"vm\",\"name\":\"\\u00e9\",\"ts\":1}\n",
      escaped, error))
      << error;
  ASSERT_EQ(escaped.size(), 1u);
  EXPECT_EQ(escaped[0].name, "\xc3\xa9");
}

}  // namespace
}  // namespace pbse::obs
