/**
 * @file
 * Flight-recorder span tracing: a fixed-capacity ring buffer of
 * completed spans, recorded by RAII `TraceSpan` guards and exported as
 * Chrome trace-event JSON (loadable in Perfetto / chrome://tracing).
 *
 * The recorder is a *flight recorder*: it always holds the most recent
 * `capacity` spans and silently overwrites the oldest, so it can stay
 * on for the life of a daemon without growing. The ring is
 * mutex-guarded: record() copies one span into the next slot under the
 * lock and collect() copies the ring out under the same lock, so an
 * exporter running concurrently with writers only ever sees whole
 * spans. Spans are per query and per phase, never per solver step, so
 * the lock is uncontended in practice.
 *
 * Tracing is off by default (a single relaxed load per span site);
 * `tessel_service --trace-out FILE` switches it on. Span names and arg
 * keys must be string literals (the recorder stores the pointers).
 *
 * Span taxonomy (see README "Observability"):
 *   query  -> lower / seed-adapt / repetend-sweep / phase-solve /
 *             verify / serialize / disk-io
 *   replan -> retime / race
 */

#ifndef TESSEL_SUPPORT_TRACING_H
#define TESSEL_SUPPORT_TRACING_H

#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstring>
#include <mutex>
#include <string>
#include <vector>

namespace tessel {

/** One completed span (plain data, copied whole into and out of the ring). */
struct SpanRecord
{
    static constexpr int kMaxArgs = 4;
    static constexpr size_t kLabelCap = 48;

    const char *name = nullptr; ///< static string
    uint64_t tsMicros = 0;      ///< start, relative to recorder epoch
    uint64_t durMicros = 0;
    uint32_t tid = 0; ///< small dense thread id (registration order)
    uint32_t nargs = 0;
    const char *argKey[kMaxArgs] = {nullptr, nullptr, nullptr, nullptr};
    uint64_t argValue[kMaxArgs] = {0, 0, 0, 0};
    char label[kLabelCap] = {0}; ///< optional, e.g. the query label
};

/** Thread-safe ring buffer of completed spans. */
class TraceRecorder
{
  public:
    /** @param capacity slots in the ring (rounded up to at least 2). */
    explicit TraceRecorder(size_t capacity = 1 << 16);

    /** The process-wide recorder (64 Ki spans). */
    static TraceRecorder &instance();

    /** Turn recording on or off (off: span sites cost one relaxed
     *  load). Enabling does not clear previously recorded spans. */
    void setEnabled(bool on);
    bool enabled() const;

    /** Commit one completed span (overwrites the oldest). */
    void record(const SpanRecord &rec);

    /** Copy out the currently held spans, ordered by start time. Safe
     *  to call while writers are active. */
    std::vector<SpanRecord> collect() const;

    /** Total spans ever recorded (>= collect().size()). */
    uint64_t recorded() const;

    size_t capacity() const { return capacity_; }

    /** Microseconds since the recorder's epoch (steady clock). */
    uint64_t nowMicros() const;

    /** Dense per-thread id for trace rows (registration order). */
    static uint32_t threadId();

  private:
    const size_t capacity_;
    std::atomic<bool> enabled_{false};
    const std::chrono::steady_clock::time_point epoch_;

    mutable std::mutex mu_;        ///< guards ring_ and recorded_
    std::vector<SpanRecord> ring_; ///< capacity_ slots
    uint64_t recorded_ = 0;        ///< spans ever recorded
};

/**
 * RAII span guard. Measures from construction to destruction and
 * commits to the recorder iff recording was enabled at construction.
 *
 *     TraceSpan span("repetend-sweep");
 *     ...
 *     span.setArg("value_sweeps", breakdown.valueSweeps);
 *
 * @p name (and arg keys) must be string literals. Spans are
 * move-constructible so they can cross scope boundaries, but not
 * copyable.
 */
class TraceSpan
{
  public:
    explicit TraceSpan(const char *name,
                       TraceRecorder &rec = TraceRecorder::instance());
    ~TraceSpan();

    TraceSpan(TraceSpan &&other) noexcept;
    TraceSpan &operator=(TraceSpan &&) = delete;
    TraceSpan(const TraceSpan &) = delete;
    TraceSpan &operator=(const TraceSpan &) = delete;

    /** Attach a numeric argument (up to SpanRecord::kMaxArgs; extras
     *  are dropped). No-op on a disabled span. */
    void setArg(const char *key, uint64_t value);

    /** Attach a short free-form label (truncated to kLabelCap-1). */
    void setLabel(const std::string &label);

    /** Drop the span: nothing is committed on destruction. */
    void discard() { rec_ = nullptr; }

    /** Whether this span will be committed on destruction. */
    bool active() const { return rec_ != nullptr; }

  private:
    TraceRecorder *rec_; ///< null when tracing was off at construction
    SpanRecord span_;
};

/**
 * Serialise @p spans as Chrome trace-event JSON
 * (`{"traceEvents": [...]}`, "X" complete events, ts/dur in
 * microseconds) — load the file in https://ui.perfetto.dev.
 */
std::string toChromeTrace(const std::vector<SpanRecord> &spans);

/** Collect from @p rec and write the Chrome trace JSON to @p path.
 *  @return false (with @p err set) on I/O failure. */
bool writeChromeTrace(const TraceRecorder &rec, const std::string &path,
                      std::string *err);

} // namespace tessel

#endif // TESSEL_SUPPORT_TRACING_H
