#include "support/metrics.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "support/io.h"
#include "support/logging.h"

namespace tessel {

namespace {

std::atomic<bool> g_metricsEnabled{[] {
    const char *env = std::getenv("TESSEL_METRICS");
    if (env == nullptr)
        return true;
    return !(std::strcmp(env, "off") == 0 || std::strcmp(env, "0") == 0 ||
             std::strcmp(env, "false") == 0);
}()};

std::string
seriesId(const std::string &name, const std::string &labelKey,
         const std::string &labelValue)
{
    if (labelKey.empty())
        return name;
    return name + '{' + labelKey + '=' + labelValue + '}';
}

const char *
kindName(MetricSample::Kind k)
{
    switch (k) {
    case MetricSample::Kind::Counter: return "counter";
    case MetricSample::Kind::Gauge: return "gauge";
    case MetricSample::Kind::Histogram: return "histogram";
    }
    return "?";
}

/** Prometheus metric-name mangling: dots (and anything else outside
 *  [a-zA-Z0-9_:]) become underscores. */
std::string
promName(const std::string &dotted)
{
    std::string out = dotted;
    for (char &c : out) {
        const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                        (c >= '0' && c <= '9') || c == '_' || c == ':';
        if (!ok)
            c = '_';
    }
    return out;
}

/** Prometheus label-value escaping: backslash, quote, newline. */
std::string
promLabelValue(const std::string &v)
{
    std::string out;
    out.reserve(v.size());
    for (char c : v) {
        switch (c) {
        case '\\': out += "\\\\"; break;
        case '"': out += "\\\""; break;
        case '\n': out += "\\n"; break;
        default: out.push_back(c);
        }
    }
    return out;
}

/** Format a double the way both exporters want it: integers without a
 *  trailing ".0", everything else with enough digits to round-trip the
 *  values we record (fixed-point micro-units). */
std::string
numberText(double v)
{
    char buf[64];
    if (std::isfinite(v) && v == static_cast<double>(
                                     static_cast<long long>(v)))
        std::snprintf(buf, sizeof buf, "%lld", static_cast<long long>(v));
    else
        std::snprintf(buf, sizeof buf, "%.9g", v);
    return buf;
}

} // namespace

// --------------------------------------------------------------------
// Samples and histograms
// --------------------------------------------------------------------

MetricSample
MetricSample::counter(std::string name, uint64_t value,
                      std::string labelKey, std::string labelValue)
{
    MetricSample s;
    s.name = std::move(name);
    s.labelKey = std::move(labelKey);
    s.labelValue = std::move(labelValue);
    s.kind = Kind::Counter;
    s.counterValue = value;
    return s;
}

MetricSample
MetricSample::gauge(std::string name, int64_t value)
{
    MetricSample s;
    s.name = std::move(name);
    s.kind = Kind::Gauge;
    s.gaugeValue = value;
    return s;
}

Histogram::Histogram(std::vector<double> bounds)
    : bounds_(std::move(bounds)),
      counts_(new std::atomic<uint64_t>[bounds_.size() + 1])
{
    for (size_t i = 0; i <= bounds_.size(); ++i)
        counts_[i].store(0, std::memory_order_relaxed);
}

void
Histogram::observe(double v)
{
    if (!g_metricsEnabled.load(std::memory_order_relaxed))
        return;
    // Buckets follow the Prometheus le-convention: bucket i holds
    // observations <= bounds_[i]; the final cell is the +Inf overflow.
    size_t i = std::upper_bound(bounds_.begin(), bounds_.end(), v) -
               bounds_.begin();
    if (i > 0 && v == bounds_[i - 1])
        --i; // upper_bound is strict; le-buckets are inclusive
    counts_[i].fetch_add(1, std::memory_order_relaxed);
    count_.fetch_add(1, std::memory_order_relaxed);
    sumMicro_.fetch_add(static_cast<int64_t>(std::llround(v * 1e6)),
                        std::memory_order_relaxed);
}

const std::vector<double> &
defaultLatencyBoundsMs()
{
    static const std::vector<double> bounds = {
        0.1, 0.25, 0.5, 1, 2.5, 5, 10, 25, 50, 100,
        250, 500, 1000, 2500, 5000, 10000, 30000};
    return bounds;
}

// --------------------------------------------------------------------
// Registry
// --------------------------------------------------------------------

MetricsRegistry &
MetricsRegistry::instance()
{
    static MetricsRegistry *reg = new MetricsRegistry; // never destroyed
    return *reg;
}

void
MetricsRegistry::setEnabled(bool on)
{
    g_metricsEnabled.store(on, std::memory_order_relaxed);
}

bool
MetricsRegistry::enabled()
{
    return g_metricsEnabled.load(std::memory_order_relaxed);
}

Histogram *
MetricsRegistry::histogram(const std::string &name,
                           const std::vector<double> &bounds)
{
    return histogram(name, "", "", bounds);
}

Histogram *
MetricsRegistry::histogram(const std::string &name,
                           const std::string &labelKey,
                           const std::string &labelValue,
                           const std::vector<double> &bounds)
{
    const std::string id = seriesId(name, labelKey, labelValue);
    std::lock_guard<std::mutex> lock(mu_);
    auto it = series_.find(id);
    if (it != series_.end()) {
        if (it->second.histogram->bounds() != bounds)
            panic("histogram \"", id,
                  "\" re-registered with different bounds");
        return it->second.histogram.get();
    }
    Entry e;
    e.name = name;
    e.labelKey = labelKey;
    e.labelValue = labelValue;
    e.histogram.reset(new Histogram(bounds));
    return series_.emplace(id, std::move(e)).first->second.histogram.get();
}

int
MetricsRegistry::addSource(Source fn)
{
    std::lock_guard<std::mutex> lock(sourceMu_);
    const int id = nextSourceId_++;
    sources_[id] = std::move(fn);
    return id;
}

void
MetricsRegistry::removeSource(int id)
{
    std::lock_guard<std::mutex> lock(sourceMu_);
    sources_.erase(id);
}

MetricsSnapshot
MetricsRegistry::snapshot()
{
    std::vector<MetricSample> reported;
    {
        // Holding sourceMu_ for the whole sweep makes removeSource()
        // (e.g. a PlanCache destructor) block until no source is
        // mid-flight. Sources take their owners' locks, never mu_.
        std::lock_guard<std::mutex> lock(sourceMu_);
        for (auto &kv : sources_)
            kv.second(reported);
    }
    std::map<std::string, MetricSample> merged; // sorted by series id
    for (MetricSample &s : reported) {
        const std::string id = seriesId(s.name, s.labelKey, s.labelValue);
        if (s.kind == MetricSample::Kind::Histogram)
            panic("source reported histogram \"", id, "\"");
        auto it = merged.find(id);
        if (it == merged.end()) {
            merged.emplace(id, std::move(s));
            continue;
        }
        MetricSample &sum = it->second;
        if (sum.kind != s.kind)
            panic("metric \"", id, "\" reported as ", kindName(s.kind),
                  " (was ", kindName(sum.kind), ")");
        sum.counterValue += s.counterValue;
        sum.gaugeValue += s.gaugeValue;
    }
    std::lock_guard<std::mutex> lock(mu_);
    for (const auto &kv : series_) {
        const Entry &e = kv.second;
        const Histogram &h = *e.histogram;
        MetricSample s;
        s.name = e.name;
        s.labelKey = e.labelKey;
        s.labelValue = e.labelValue;
        s.kind = MetricSample::Kind::Histogram;
        s.bounds = h.bounds_;
        s.counts.resize(h.bounds_.size() + 1);
        for (size_t i = 0; i <= h.bounds_.size(); ++i)
            s.counts[i] = h.counts_[i].load(std::memory_order_relaxed);
        s.count = h.count_.load(std::memory_order_relaxed);
        s.sum = static_cast<double>(
                    h.sumMicro_.load(std::memory_order_relaxed)) *
                1e-6;
        if (!merged.emplace(kv.first, std::move(s)).second)
            panic("metric \"", kv.first,
                  "\" reported by a source and registered as histogram");
    }
    MetricsSnapshot snap;
    snap.samples.reserve(merged.size());
    for (auto &kv : merged)
        snap.samples.push_back(std::move(kv.second));
    return snap;
}

// --------------------------------------------------------------------
// Exporters
// --------------------------------------------------------------------

std::string
toPrometheus(const MetricsSnapshot &snap)
{
    std::string out;
    std::string lastFamily;
    for (const MetricSample &s : snap.samples) {
        const std::string base = promName(s.name);
        const bool newFamily = base != lastFamily;
        lastFamily = base;
        std::string label;
        if (!s.labelKey.empty())
            label = promName(s.labelKey) + "=\"" +
                    promLabelValue(s.labelValue) + "\"";
        switch (s.kind) {
        case MetricSample::Kind::Counter: {
            if (newFamily)
                out += "# TYPE " + base + "_total counter\n";
            out += base + "_total";
            if (!label.empty())
                out += '{' + label + '}';
            out += ' ' + std::to_string(s.counterValue) + '\n';
            break;
        }
        case MetricSample::Kind::Gauge: {
            if (newFamily)
                out += "# TYPE " + base + " gauge\n";
            out += base;
            if (!label.empty())
                out += '{' + label + '}';
            out += ' ' + std::to_string(s.gaugeValue) + '\n';
            break;
        }
        case MetricSample::Kind::Histogram: {
            if (newFamily)
                out += "# TYPE " + base + " histogram\n";
            uint64_t cum = 0;
            for (size_t i = 0; i < s.counts.size(); ++i) {
                cum += s.counts[i];
                const std::string le =
                    i < s.bounds.size() ? numberText(s.bounds[i])
                                        : "+Inf";
                out += base + "_bucket{";
                if (!label.empty())
                    out += label + ',';
                out += "le=\"" + le + "\"} " + std::to_string(cum) +
                       '\n';
            }
            out += base + "_sum";
            if (!label.empty())
                out += '{' + label + '}';
            out += ' ' + numberText(s.sum) + '\n';
            out += base + "_count";
            if (!label.empty())
                out += '{' + label + '}';
            out += ' ' + std::to_string(s.count) + '\n';
            break;
        }
        }
    }
    return out;
}

std::string
toJson(const MetricsSnapshot &snap)
{
    std::string out = "{\"metrics\": [";
    bool first = true;
    for (const MetricSample &s : snap.samples) {
        if (!first)
            out += ", ";
        first = false;
        out += "{\"name\": \"" + jsonEscape(s.name) + "\"";
        if (!s.labelKey.empty())
            out += ", \"label\": {\"" + jsonEscape(s.labelKey) +
                   "\": \"" + jsonEscape(s.labelValue) + "\"}";
        switch (s.kind) {
        case MetricSample::Kind::Counter:
            out += ", \"type\": \"counter\", \"value\": " +
                   std::to_string(s.counterValue);
            break;
        case MetricSample::Kind::Gauge:
            out += ", \"type\": \"gauge\", \"value\": " +
                   std::to_string(s.gaugeValue);
            break;
        case MetricSample::Kind::Histogram: {
            out += ", \"type\": \"histogram\", \"bounds\": [";
            for (size_t i = 0; i < s.bounds.size(); ++i) {
                if (i)
                    out += ", ";
                out += numberText(s.bounds[i]);
            }
            out += "], \"counts\": [";
            for (size_t i = 0; i < s.counts.size(); ++i) {
                if (i)
                    out += ", ";
                out += std::to_string(s.counts[i]);
            }
            out += "], \"count\": " + std::to_string(s.count) +
                   ", \"sum\": " + numberText(s.sum);
            break;
        }
        }
        out += '}';
    }
    out += "]}";
    return out;
}

} // namespace tessel
