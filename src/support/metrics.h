/**
 * @file
 * Process-wide metrics registry: one point-in-time view over every
 * layer's counters and gauges, plus the fixed-bucket latency histograms
 * the registry owns itself. Series are addressed by dotted names plus
 * an optional single label (e.g. `store.memory_hits`,
 * `service.answer_ms{source=memory}`).
 *
 * One source per metric (see README "Observability"):
 *  - Counters and gauges live only in the stats struct of the layer
 *    that owns them (`StoreStats`, `LoopStats`, `ServiceStats`). Each
 *    owner registers a *source* (`addSource`) that appends its stats as
 *    absolute samples at snapshot time; samples sharing a series id
 *    across live sources are summed. The hot path therefore writes
 *    nothing but the layer's own stats.
 *  - The registry owns only histograms. An observation is two relaxed
 *    fetch_adds on a handle registered once (registration is the only
 *    locked histogram operation), so instrumenting the RCU plan-cache
 *    hit path cannot break the `lockContended == 0` read-only-trace
 *    invariant.
 *  - A process-global enabled flag (`MetricsRegistry::setEnabled`,
 *    initialised from the `TESSEL_METRICS` environment variable, where
 *    `off`/`0`/`false` disables) turns every histogram observation into
 *    a single relaxed load + branch, which is what `bench_service_load`
 *    measures the instrumented path against. Sources are read at
 *    snapshot time regardless of the flag.
 */

#ifndef TESSEL_SUPPORT_METRICS_H
#define TESSEL_SUPPORT_METRICS_H

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace tessel {

/**
 * Fixed-bucket histogram. Bucket upper bounds are set at registration
 * and never change; observations are two relaxed fetch_adds (bucket
 * cell + fixed-point sum). The sum is accumulated in micro-units
 * (value * 1e6, rounded) to stay a single atomic integer add instead of
 * a CAS loop on a double.
 */
class Histogram
{
  public:
    /** Record one observation. No-op while metrics are disabled. */
    void observe(double v);

    /** @return bucket upper bounds (exclusive of the implicit +Inf). */
    const std::vector<double> &bounds() const { return bounds_; }

  private:
    friend class MetricsRegistry;
    explicit Histogram(std::vector<double> bounds);

    std::vector<double> bounds_;
    std::unique_ptr<std::atomic<uint64_t>[]> counts_; // bounds_+1 cells
    std::atomic<uint64_t> count_{0};
    std::atomic<int64_t> sumMicro_{0};
};

/** Default latency bucket bounds in milliseconds (sub-ms to 30 s). */
const std::vector<double> &defaultLatencyBoundsMs();

/** One exported series in a point-in-time snapshot. */
struct MetricSample
{
    enum class Kind { Counter, Gauge, Histogram };

    std::string name;       ///< dotted name, e.g. "store.memory_hits"
    std::string labelKey;   ///< empty when unlabelled
    std::string labelValue; ///< empty when unlabelled
    Kind kind = Kind::Counter;

    uint64_t counterValue = 0; ///< Kind::Counter
    int64_t gaugeValue = 0;    ///< Kind::Gauge

    // Kind::Histogram: per-bucket (non-cumulative) counts; counts.size()
    // == bounds.size() + 1, the last cell being the +Inf overflow.
    std::vector<double> bounds;
    std::vector<uint64_t> counts;
    uint64_t count = 0;
    double sum = 0.0;

    /** A counter sample, as a source reports it (absolute value). */
    static MetricSample counter(std::string name, uint64_t value,
                                std::string labelKey = {},
                                std::string labelValue = {});
    /** An unlabelled gauge sample, as a source reports it. */
    static MetricSample gauge(std::string name, int64_t value);
};

/** Point-in-time snapshot, samples sorted by series id. */
struct MetricsSnapshot
{
    std::vector<MetricSample> samples;
};

/** The registry. One process-wide instance(); tests may construct their
 *  own isolated registries. */
class MetricsRegistry
{
  public:
    MetricsRegistry() = default;
    ~MetricsRegistry() = default;
    MetricsRegistry(const MetricsRegistry &) = delete;
    MetricsRegistry &operator=(const MetricsRegistry &) = delete;

    /** The process-wide registry. */
    static MetricsRegistry &instance();

    /**
     * Register (or look up) a histogram. Dotted @p name; the labelled
     * overload attaches one `key=value` label. Handles are stable and
     * owned by the registry. Re-registering a series id with different
     * bounds is fatal — series identity is process-global.
     */
    Histogram *histogram(const std::string &name,
                         const std::vector<double> &bounds =
                             defaultLatencyBoundsMs());
    Histogram *histogram(const std::string &name,
                         const std::string &labelKey,
                         const std::string &labelValue,
                         const std::vector<double> &bounds =
                             defaultLatencyBoundsMs());

    /** Appends one owner's counters and gauges as absolute samples. */
    using Source = std::function<void(std::vector<MetricSample> &)>;

    /**
     * Register a snapshot-time source. Every snapshot() runs each live
     * source and sums samples that share a series id, so several
     * instances of a layer add up to one series. A series reported as
     * both a counter and a gauge, or by a source and as a histogram, is
     * fatal. @return an id for removeSource().
     */
    int addSource(Source fn);

    /** Unregister a source; blocks until no snapshot is running it, so
     *  a source may capture `this` if its owner removes it in its
     *  destructor before the stats it reads are destroyed. */
    void removeSource(int id);

    /** Run the sources, then read every histogram (relaxed). */
    MetricsSnapshot snapshot();

    /** Process-global enable switch (initialised from TESSEL_METRICS;
     *  `off`/`0`/`false` disables). Gates histogram observations only —
     *  sources are read at every snapshot. */
    static void setEnabled(bool on);
    static bool enabled();

  private:
    struct Entry
    {
        std::string name, labelKey, labelValue;
        std::unique_ptr<Histogram> histogram;
    };

    std::mutex mu_;                       // histogram registration + read
    std::map<std::string, Entry> series_; // histograms, keyed by series id
    std::mutex sourceMu_;                 // source list + execution
    std::map<int, Source> sources_;
    int nextSourceId_ = 1;
};

/** Render a snapshot in the Prometheus text exposition format
 *  (dots mangled to underscores, `_total` on counters, cumulative
 *  `_bucket{le=...}` / `_sum` / `_count` on histograms). */
std::string toPrometheus(const MetricsSnapshot &snap);

/** Render a snapshot as a single JSON object (dotted names preserved;
 *  see README "Observability" for the schema). */
std::string toJson(const MetricsSnapshot &snap);

} // namespace tessel

#endif // TESSEL_SUPPORT_METRICS_H
