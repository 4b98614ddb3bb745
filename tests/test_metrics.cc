/**
 * @file
 * Metrics registry and flight-recorder tracing tests: snapshot-time
 * sources summing live instances into one series (and dropping a
 * removed one), monotone snapshots while a source's owner counts,
 * fatal kind clashes, le-inclusive histogram bucketing, stable
 * histogram handles, the histogram enable switch, the Prometheus
 * exposition golden (mangling, suffixes, label escaping), JSON export,
 * ring-buffer wraparound, span nesting, and whole spans under
 * concurrent record/collect.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <string>
#include <thread>
#include <vector>

#include "support/metrics.h"
#include "support/tracing.h"

namespace tessel {
namespace {

/** Force the global enable switch for a scope and restore it after
 *  (tests share one process-global flag). */
struct ScopedMetricsEnabled
{
    explicit ScopedMetricsEnabled(bool on)
        : previous(MetricsRegistry::enabled())
    {
        MetricsRegistry::setEnabled(on);
    }
    ~ScopedMetricsEnabled() { MetricsRegistry::setEnabled(previous); }
    const bool previous;
};

const MetricSample *
findSample(const MetricsSnapshot &snap, const std::string &name,
           const std::string &labelValue = "")
{
    for (const MetricSample &s : snap.samples)
        if (s.name == name && s.labelValue == labelValue)
            return &s;
    return nullptr;
}

/** A stand-in for a layer's stats struct and the source reading it. */
struct FakeLayer
{
    std::atomic<uint64_t> hits{0};
    std::atomic<int64_t> depth{0};

    MetricsRegistry::Source
    source()
    {
        return [this](std::vector<MetricSample> &out) {
            out.push_back(MetricSample::counter("test.hits", hits.load()));
            out.push_back(MetricSample::gauge("test.depth", depth.load()));
        };
    }
};

// ----------------------------------------------------------- Sources

TEST(Metrics, LiveSourcesSumIntoOneSeries)
{
    MetricsRegistry reg;
    FakeLayer a, b;
    a.hits = 5;
    a.depth = 2;
    b.hits = 7;
    b.depth = 3;
    const int ida = reg.addSource(a.source());
    const int idb = reg.addSource(b.source());
    const MetricsSnapshot snap = reg.snapshot();
    ASSERT_EQ(snap.samples.size(), 2u); // one sample per series, not per source
    EXPECT_EQ(findSample(snap, "test.hits")->counterValue, 12u);
    EXPECT_EQ(findSample(snap, "test.depth")->gaugeValue, 5);
    reg.removeSource(ida);
    reg.removeSource(idb);
}

TEST(Metrics, RemovedSourceDropsItsPart)
{
    MetricsRegistry reg;
    FakeLayer a, b;
    a.hits = 5;
    b.hits = 7;
    const int ida = reg.addSource(a.source());
    const int idb = reg.addSource(b.source());
    reg.removeSource(ida);
    MetricsSnapshot snap = reg.snapshot();
    EXPECT_EQ(findSample(snap, "test.hits")->counterValue, 7u);
    reg.removeSource(idb);
    snap = reg.snapshot();
    EXPECT_EQ(findSample(snap, "test.hits"), nullptr);
    EXPECT_TRUE(snap.samples.empty());
}

TEST(Metrics, SnapshotsStayMonotoneWhileSourceCounts)
{
    MetricsRegistry reg;
    FakeLayer layer;
    const int id = reg.addSource(layer.source());
    std::atomic<bool> stop{false};
    std::thread writer([&] {
        while (!stop.load(std::memory_order_relaxed))
            layer.hits.fetch_add(1, std::memory_order_relaxed);
    });
    uint64_t last = 0;
    for (int i = 0; i < 200; ++i) {
        const MetricsSnapshot snap = reg.snapshot();
        const MetricSample *s = findSample(snap, "test.hits");
        ASSERT_NE(s, nullptr);
        EXPECT_GE(s->counterValue, last);
        last = s->counterValue;
    }
    stop.store(true, std::memory_order_relaxed);
    writer.join();
    EXPECT_EQ(findSample(reg.snapshot(), "test.hits")->counterValue,
              layer.hits.load());
    reg.removeSource(id);
}

TEST(MetricsDeathTest, KindClashesAreFatal)
{
    EXPECT_DEATH(
        {
            MetricsRegistry reg;
            reg.addSource([](std::vector<MetricSample> &out) {
                out.push_back(MetricSample::counter("test.x", 1));
                out.push_back(MetricSample::gauge("test.x", 1));
            });
            reg.snapshot();
        },
        "test.x");
    EXPECT_DEATH(
        {
            MetricsRegistry reg;
            reg.histogram("test.y", {1.0});
            reg.addSource([](std::vector<MetricSample> &out) {
                out.push_back(MetricSample::counter("test.y", 1));
            });
            reg.snapshot();
        },
        "test.y");
}

// --------------------------------------------------------- Histogram

TEST(Metrics, HistogramBucketBoundariesAreLeInclusive)
{
    ScopedMetricsEnabled on(true);
    MetricsRegistry reg;
    Histogram *h = reg.histogram("test.hist", {1.0, 10.0, 100.0});
    h->observe(0.5);   // bucket 0 (<= 1)
    h->observe(1.0);   // bucket 0: le-buckets are inclusive
    h->observe(1.001); // bucket 1
    h->observe(10.0);  // bucket 1
    h->observe(100.0); // bucket 2
    h->observe(500.0); // overflow
    const MetricsSnapshot snap = reg.snapshot();
    const MetricSample *s = findSample(snap, "test.hist");
    ASSERT_NE(s, nullptr);
    ASSERT_EQ(s->counts.size(), 4u);
    EXPECT_EQ(s->counts[0], 2u);
    EXPECT_EQ(s->counts[1], 2u);
    EXPECT_EQ(s->counts[2], 1u);
    EXPECT_EQ(s->counts[3], 1u);
    EXPECT_EQ(s->count, 6u);
    EXPECT_NEAR(s->sum, 0.5 + 1.0 + 1.001 + 10.0 + 100.0 + 500.0, 1e-6);
}

TEST(Metrics, HistogramRegistrationReturnsStableHandles)
{
    MetricsRegistry reg;
    Histogram *a = reg.histogram("test.same", {1.0});
    EXPECT_EQ(a, reg.histogram("test.same", {1.0}));
    // Distinct label values are distinct series.
    Histogram *l1 = reg.histogram("test.labelled", "k", "v1", {1.0});
    Histogram *l2 = reg.histogram("test.labelled", "k", "v2", {1.0});
    EXPECT_NE(l1, l2);
    EXPECT_EQ(l1, reg.histogram("test.labelled", "k", "v1", {1.0}));
}

TEST(Metrics, DisabledHistogramObservationIsNoOp)
{
    MetricsRegistry reg;
    Histogram *h = reg.histogram("test.noop", {1.0});
    {
        ScopedMetricsEnabled off(false);
        h->observe(0.5);
    }
    EXPECT_EQ(findSample(reg.snapshot(), "test.noop")->count, 0u);
    {
        ScopedMetricsEnabled on(true);
        h->observe(0.5);
    }
    EXPECT_EQ(findSample(reg.snapshot(), "test.noop")->count, 1u);
}

// ----------------------------------------------------- Prometheus text

TEST(Metrics, PrometheusExpositionGolden)
{
    ScopedMetricsEnabled on(true);
    MetricsRegistry reg;
    const int id = reg.addSource([](std::vector<MetricSample> &out) {
        out.push_back(MetricSample::counter("store.memory_hits", 7));
        out.push_back(MetricSample::counter("loop.rejected", 2, "verdict",
                                            "queue-full"));
        out.push_back(MetricSample::gauge("loop.queue_depth", 3));
    });
    reg.histogram("svc.ms", {1.0, 5.0})->observe(1.0);
    reg.histogram("svc.ms", {1.0, 5.0})->observe(2.0);
    const std::string text = toPrometheus(reg.snapshot());
    const std::string expected =
        "# TYPE loop_queue_depth gauge\n"
        "loop_queue_depth 3\n"
        "# TYPE loop_rejected_total counter\n"
        "loop_rejected_total{verdict=\"queue-full\"} 2\n"
        "# TYPE store_memory_hits_total counter\n"
        "store_memory_hits_total 7\n"
        "# TYPE svc_ms histogram\n"
        "svc_ms_bucket{le=\"1\"} 1\n"
        "svc_ms_bucket{le=\"5\"} 2\n"
        "svc_ms_bucket{le=\"+Inf\"} 2\n"
        "svc_ms_sum 3\n"
        "svc_ms_count 2\n";
    EXPECT_EQ(text, expected);
    reg.removeSource(id);
}

TEST(Metrics, PrometheusEscapesLabelValues)
{
    ScopedMetricsEnabled on(true);
    MetricsRegistry reg;
    const int id = reg.addSource([](std::vector<MetricSample> &out) {
        out.push_back(
            MetricSample::counter("test.esc", 1, "tenant", "a\"b\\c\nd"));
    });
    const std::string text = toPrometheus(reg.snapshot());
    EXPECT_NE(text.find("tenant=\"a\\\"b\\\\c\\nd\""), std::string::npos)
        << text;
    reg.removeSource(id);
}

TEST(Metrics, JsonExposesDottedNamesAndHistograms)
{
    ScopedMetricsEnabled on(true);
    MetricsRegistry reg;
    const int id = reg.addSource([](std::vector<MetricSample> &out) {
        out.push_back(MetricSample::counter("store.misses", 4));
    });
    reg.histogram("svc.ms", {1.0})->observe(0.5);
    const std::string json = toJson(reg.snapshot());
    EXPECT_NE(json.find("\"name\": \"store.misses\""), std::string::npos)
        << json;
    EXPECT_NE(json.find("\"value\": 4"), std::string::npos);
    EXPECT_NE(json.find("\"type\": \"histogram\""), std::string::npos);
    EXPECT_NE(json.find("\"counts\": [1, 0]"), std::string::npos) << json;
    reg.removeSource(id);
}

// ------------------------------------------------------------ Tracing

TEST(Tracing, RingWraparoundKeepsMostRecent)
{
    TraceRecorder rec(/*capacity=*/8);
    rec.setEnabled(true);
    for (uint64_t i = 0; i < 20; ++i) {
        SpanRecord r;
        r.name = "wrap";
        r.tsMicros = i;
        r.durMicros = 1;
        rec.record(r);
    }
    EXPECT_EQ(rec.recorded(), 20u);
    const std::vector<SpanRecord> spans = rec.collect();
    ASSERT_EQ(spans.size(), 8u);
    // Oldest first, and only the most recent capacity spans survive.
    for (size_t i = 0; i < spans.size(); ++i)
        EXPECT_EQ(spans[i].tsMicros, 12 + i);
}

TEST(Tracing, SpanNestingRecordsBothLevels)
{
    TraceRecorder rec(/*capacity=*/16);
    rec.setEnabled(true);
    {
        TraceSpan outer("outer", rec);
        outer.setLabel("q1");
        outer.setArg("value_sweeps", 42);
        {
            TraceSpan inner("inner", rec);
            inner.setArg("sat_checks", 7);
        }
    }
    const std::vector<SpanRecord> spans = rec.collect();
    ASSERT_EQ(spans.size(), 2u);
    // collect() orders by start time; spans with the same microsecond
    // timestamp keep ring order, so look both up by name instead.
    const SpanRecord *outerRec = nullptr, *innerRec = nullptr;
    for (const SpanRecord &s : spans) {
        if (std::string(s.name) == "outer")
            outerRec = &s;
        else if (std::string(s.name) == "inner")
            innerRec = &s;
    }
    ASSERT_NE(outerRec, nullptr);
    ASSERT_NE(innerRec, nullptr);
    EXPECT_EQ(std::string(outerRec->label), "q1");
    ASSERT_EQ(outerRec->nargs, 1u);
    EXPECT_STREQ(outerRec->argKey[0], "value_sweeps");
    EXPECT_EQ(outerRec->argValue[0], 42u);
    ASSERT_EQ(innerRec->nargs, 1u);
    EXPECT_STREQ(innerRec->argKey[0], "sat_checks");
    EXPECT_EQ(innerRec->argValue[0], 7u);
    // The outer span brackets the inner one.
    EXPECT_LE(outerRec->tsMicros, innerRec->tsMicros);
    EXPECT_GE(outerRec->tsMicros + outerRec->durMicros,
              innerRec->tsMicros + innerRec->durMicros);
}

TEST(Tracing, DisabledSpansCostNothingAndRecordNothing)
{
    TraceRecorder rec(/*capacity=*/4);
    rec.setEnabled(false);
    {
        TraceSpan span("ghost", rec);
        EXPECT_FALSE(span.active());
        span.setArg("k", 1); // must be a safe no-op
    }
    EXPECT_EQ(rec.recorded(), 0u);
    EXPECT_TRUE(rec.collect().empty());
}

TEST(Tracing, ConcurrentRecordAndCollectSeeWholeSpans)
{
    TraceRecorder rec(/*capacity=*/32);
    rec.setEnabled(true);
    std::atomic<bool> stop{false};
    std::vector<std::thread> writers;
    for (uint64_t t = 0; t < 4; ++t)
        writers.emplace_back([&rec, &stop, t] {
            // Writers lap the small ring constantly, so two of them
            // often target one slot; every field of a span carries the
            // same stamp, so a record mixing two writes shows up.
            for (uint64_t i = 1; !stop.load(std::memory_order_relaxed);
                 ++i) {
                const uint64_t stamp = i * 4 + t;
                SpanRecord r;
                r.name = "load";
                r.tsMicros = stamp;
                r.durMicros = stamp;
                r.nargs = 1;
                r.argKey[0] = "stamp";
                r.argValue[0] = stamp;
                rec.record(r);
            }
        });
    for (int i = 0; i < 100; ++i) {
        const std::vector<SpanRecord> spans = rec.collect();
        EXPECT_LE(spans.size(), rec.capacity());
        for (const SpanRecord &s : spans) {
            ASSERT_NE(s.name, nullptr);
            EXPECT_STREQ(s.name, "load");
            EXPECT_EQ(s.durMicros, s.tsMicros);
            EXPECT_EQ(s.argValue[0], s.tsMicros);
        }
    }
    stop.store(true, std::memory_order_relaxed);
    for (std::thread &t : writers)
        t.join();
    EXPECT_EQ(rec.collect().size(),
              std::min<uint64_t>(rec.recorded(), rec.capacity()));
}

TEST(Tracing, ChromeTraceJsonShape)
{
    TraceRecorder rec(/*capacity=*/4);
    rec.setEnabled(true);
    {
        TraceSpan span("phase-solve", rec);
        span.setLabel("V/hetero");
        span.setArg("sat_checks", 3);
    }
    const std::string json = toChromeTrace(rec.collect());
    EXPECT_EQ(json.rfind("{\"traceEvents\": [", 0), 0u) << json;
    EXPECT_NE(json.find("\"ph\": \"X\""), std::string::npos);
    EXPECT_NE(json.find("\"name\": \"phase-solve\""), std::string::npos);
    EXPECT_NE(json.find("\"sat_checks\": 3"), std::string::npos);
    EXPECT_NE(json.find("V/hetero"), std::string::npos);
}

} // namespace
} // namespace tessel
