#include "support/tracing.h"

#include <algorithm>
#include <cstdio>

#include "support/io.h"

namespace tessel {

TraceRecorder::TraceRecorder(size_t capacity)
    : capacity_(std::max<size_t>(capacity, 2)),
      epoch_(std::chrono::steady_clock::now()), ring_(capacity_)
{
}

TraceRecorder &
TraceRecorder::instance()
{
    static TraceRecorder *rec = new TraceRecorder; // never destroyed
    return *rec;
}

void
TraceRecorder::setEnabled(bool on)
{
    enabled_.store(on, std::memory_order_relaxed);
}

bool
TraceRecorder::enabled() const
{
    return enabled_.load(std::memory_order_relaxed);
}

uint64_t
TraceRecorder::nowMicros() const
{
    return static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::microseconds>(
            std::chrono::steady_clock::now() - epoch_)
            .count());
}

uint32_t
TraceRecorder::threadId()
{
    static std::atomic<uint32_t> next{1};
    thread_local uint32_t mine =
        next.fetch_add(1, std::memory_order_relaxed);
    return mine;
}

void
TraceRecorder::record(const SpanRecord &rec)
{
    std::lock_guard<std::mutex> lock(mu_);
    ring_[recorded_ % capacity_] = rec;
    ++recorded_;
}

std::vector<SpanRecord>
TraceRecorder::collect() const
{
    std::vector<SpanRecord> out;
    {
        // The ring holds the last min(recorded, capacity) spans.
        std::lock_guard<std::mutex> lock(mu_);
        const uint64_t held = std::min<uint64_t>(recorded_, capacity_);
        out.reserve(held);
        for (uint64_t i = recorded_ - held; i < recorded_; ++i)
            out.push_back(ring_[i % capacity_]);
    }
    std::stable_sort(out.begin(), out.end(),
                     [](const SpanRecord &a, const SpanRecord &b) {
                         return a.tsMicros < b.tsMicros;
                     });
    return out;
}

uint64_t
TraceRecorder::recorded() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return recorded_;
}

// --------------------------------------------------------------------
// TraceSpan
// --------------------------------------------------------------------

TraceSpan::TraceSpan(const char *name, TraceRecorder &rec)
    : rec_(rec.enabled() ? &rec : nullptr)
{
    if (rec_ == nullptr)
        return;
    span_.name = name;
    span_.tsMicros = rec_->nowMicros();
    span_.tid = TraceRecorder::threadId();
}

TraceSpan::TraceSpan(TraceSpan &&other) noexcept
    : rec_(other.rec_), span_(other.span_)
{
    other.rec_ = nullptr;
}

TraceSpan::~TraceSpan()
{
    if (rec_ == nullptr)
        return;
    const uint64_t end = rec_->nowMicros();
    span_.durMicros = end > span_.tsMicros ? end - span_.tsMicros : 0;
    rec_->record(span_);
}

void
TraceSpan::setArg(const char *key, uint64_t value)
{
    if (rec_ == nullptr || span_.nargs >= SpanRecord::kMaxArgs)
        return;
    span_.argKey[span_.nargs] = key;
    span_.argValue[span_.nargs] = value;
    ++span_.nargs;
}

void
TraceSpan::setLabel(const std::string &label)
{
    if (rec_ == nullptr)
        return;
    const size_t n = std::min(label.size(), SpanRecord::kLabelCap - 1);
    std::memcpy(span_.label, label.data(), n);
    span_.label[n] = '\0';
}

// --------------------------------------------------------------------
// Chrome trace-event export
// --------------------------------------------------------------------

namespace {

/** A fixed-capacity label, which setLabel() NUL-terminates. */
std::string
labelText(const SpanRecord &s)
{
    return std::string(
        s.label, std::find(s.label, s.label + SpanRecord::kLabelCap, '\0'));
}

} // namespace

std::string
toChromeTrace(const std::vector<SpanRecord> &spans)
{
    std::string out = "{\"traceEvents\": [\n";
    bool first = true;
    for (const SpanRecord &s : spans) {
        if (s.name == nullptr)
            continue;
        if (!first)
            out += ",\n";
        first = false;
        out += "{\"name\": \"";
        out += jsonEscape(s.name);
        out += "\", \"cat\": \"tessel\", \"ph\": \"X\", \"pid\": 1";
        out += ", \"tid\": " + std::to_string(s.tid);
        out += ", \"ts\": " + std::to_string(s.tsMicros);
        out += ", \"dur\": " + std::to_string(s.durMicros);
        const bool haveLabel = s.label[0] != '\0';
        if (s.nargs > 0 || haveLabel) {
            out += ", \"args\": {";
            bool firstArg = true;
            if (haveLabel) {
                out += "\"label\": \"";
                out += jsonEscape(labelText(s));
                out += '"';
                firstArg = false;
            }
            for (uint32_t i = 0; i < s.nargs; ++i) {
                if (s.argKey[i] == nullptr)
                    continue;
                if (!firstArg)
                    out += ", ";
                firstArg = false;
                out += '"';
                out += jsonEscape(s.argKey[i]);
                out += "\": " + std::to_string(s.argValue[i]);
            }
            out += '}';
        }
        out += '}';
    }
    out += "\n]}\n";
    return out;
}

bool
writeChromeTrace(const TraceRecorder &rec, const std::string &path,
                 std::string *err)
{
    return writeFileAtomic(path, toChromeTrace(rec.collect()), err);
}

} // namespace tessel
