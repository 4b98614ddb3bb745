/**
 * @file
 * Bench-side span recorder for the end-to-end benchmark's traced pass.
 *
 * Spans are recorded only here, around the benchmark's own calls into
 * the planner's public functions; nothing inside the library is traced.
 * Each answered query opens one root span, and the calls the benchmark
 * makes on its behalf are child spans carrying the root's query id.
 *
 * Self time of a span is its duration minus the time its child spans
 * cover. A span may also *carve* named layers out of its self time:
 * the search's own per-layer seconds (SearchBreakdown) are attributed
 * that way in the per-layer table, but never written to the trace file
 * as fabricated spans — they ride on the span as args instead.
 *
 * All spans aggregate into the table; only the first `keep` of each
 * span name are held for the Chrome trace-event JSON, so a long hot
 * replay stays bounded and does not crowd out the other layers.
 */

#ifndef TESSEL_BENCH_E2E_SPANS_H
#define TESSEL_BENCH_E2E_SPANS_H

#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <ostream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

namespace e2e {

/** @p s escaped for use inside a JSON string literal. */
std::string jsonEscape(const std::string &s);

/** Numeric span arguments, in insertion order. */
using SpanArgs = std::vector<std::pair<std::string, double>>;

class SpanLog
{
  public:
    explicit SpanLog(size_t keep = 20000);

    /** Microseconds since the log was created (steady clock). */
    double nowUs() const;

    /** A fresh query id for a root span. */
    uint64_t newRoot();

    /**
     * Open a nested span on the calling thread's stack; close it with
     * close(). Nesting is per thread, so concurrent threads never
     * interleave stacks.
     */
    void open(const char *name, uint64_t root, const std::string &label);

    /**
     * Close the innermost open span of the calling thread. @p carve
     * lists (layer, microseconds) taken out of its self time and
     * credited to those layers in the table (scaled down together when
     * they exceed the self time).
     */
    void close(const SpanArgs &args = {}, const SpanArgs &carve = {});

    /** Record a completed span with no children (e.g. one timed across
     * threads, from submit to callback). */
    void complete(const char *name, uint64_t root, const std::string &label,
                  double startUs, double durUs, const SpanArgs &args = {});

    /** Write the kept spans as Chrome trace-event JSON (Perfetto). */
    bool writeChromeTrace(const std::string &path) const;

    /** Print the per-layer self-time table and the largest
     * (layer, label) contributors. */
    void printTable(std::ostream &os) const;

  private:
    struct Open
    {
        const char *name;
        uint64_t root;
        std::string label;
        double startUs;
        double childUs;
    };

    struct Event
    {
        const char *name;
        uint64_t root;
        std::string label;
        double startUs;
        double durUs;
        uint32_t tid;
        SpanArgs args;
    };

    struct Row
    {
        double selfUs = 0.0;
        uint64_t count = 0;
    };

    /** Dense id of the calling thread (caller holds mu_). */
    uint32_t tidLocked();

    /** Credit a finished span to the table and maybe keep it (caller
     * holds mu_). */
    void finishLocked(Event ev, double selfUs, const SpanArgs &carve);

    const std::chrono::steady_clock::time_point epoch_;
    const size_t keep_;

    mutable std::mutex mu_;
    uint64_t nextRoot_ = 1;
    std::map<std::thread::id, uint32_t> tids_;
    std::map<uint32_t, std::vector<Open>> stacks_;
    std::vector<Event> kept_;
    std::map<std::string, size_t> keptByName_;
    uint64_t dropped_ = 0;
    std::map<std::string, Row> table_;
    std::map<std::pair<std::string, std::string>, double> byLabel_;
};

/**
 * RAII child/root span that is a no-op when @p log is null, so the
 * traced and untraced passes run the same code.
 */
class Span
{
  public:
    Span(SpanLog *log, const char *name, uint64_t root,
         const std::string &label = {})
        : log_(log)
    {
        if (log_)
            log_->open(name, root, label);
    }

    ~Span()
    {
        if (log_)
            log_->close(args_, carve_);
    }

    Span(const Span &) = delete;
    Span &operator=(const Span &) = delete;

    void
    arg(const std::string &key, double value)
    {
        if (log_)
            args_.emplace_back(key, value);
    }

    void
    carve(const std::string &layer, double us)
    {
        if (log_)
            carve_.emplace_back(layer, us);
    }

  private:
    SpanLog *log_;
    SpanArgs args_;
    SpanArgs carve_;
};

} // namespace e2e

#endif // TESSEL_BENCH_E2E_SPANS_H
