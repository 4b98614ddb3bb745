#include "service/loop.h"

#include <algorithm>
#include <cmath>

#include "support/metrics.h"
#include "support/timer.h"

namespace tessel {

const char *
admissionName(Admission a)
{
    switch (a) {
    case Admission::Accepted:
        return "accepted";
    case Admission::QueueFull:
        return "queue-full";
    case Admission::Throttled:
        return "throttled";
    case Admission::ShuttingDown:
        return "shutting-down";
    }
    return "unknown";
}

namespace {

ServiceOptions
withLoopCancel(ServiceOptions opts, const CancelSource &source)
{
    // Every query resolved by the service links options_.cancel; with
    // the loop's source folded in here, shutdown(cancel) reaches every
    // in-flight search without any per-query wiring.
    opts.cancel = opts.cancel.linked(source.token());
    return opts;
}

} // namespace

ServiceLoop::ServiceLoop(ServiceLoopOptions options)
    : options_(std::move(options)),
      service_(withLoopCancel(options_.service, cancelSource_))
{
    options_.queueDepth = std::max<size_t>(1, options_.queueDepth);
    options_.workers = std::max(1, options_.workers);
    metricsSource_ = MetricsRegistry::instance().addSource(
        [this](std::vector<MetricSample> &out) {
            const LoopStats s = stats();
            out.push_back(MetricSample::counter("loop.submitted",
                                                s.submitted));
            out.push_back(MetricSample::counter("loop.accepted", s.accepted));
            out.push_back(MetricSample::counter(
                "loop.rejected", s.rejectedQueueFull, "verdict",
                admissionName(Admission::QueueFull)));
            out.push_back(MetricSample::counter(
                "loop.rejected", s.rejectedThrottled, "verdict",
                admissionName(Admission::Throttled)));
            out.push_back(MetricSample::counter(
                "loop.rejected", s.rejectedShutdown, "verdict",
                admissionName(Admission::ShuttingDown)));
            for (const auto &kv : s.throttledByTenant)
                out.push_back(MetricSample::counter(
                    "loop.tenant_throttled", kv.second, "tenant", kv.first));
            out.push_back(MetricSample::counter("loop.completed",
                                                s.completed));
            out.push_back(MetricSample::counter("loop.answered_inline",
                                                s.answeredInline));
            out.push_back(MetricSample::counter("loop.worker_busy_us",
                                                s.workerBusyUs));
            out.push_back(MetricSample::gauge(
                "loop.queue_depth", static_cast<int64_t>(s.queueDepth)));
            out.push_back(MetricSample::gauge(
                "loop.queue_high_water",
                static_cast<int64_t>(s.queueHighWater)));
            out.push_back(MetricSample::gauge(
                "loop.in_flight", static_cast<int64_t>(s.inFlight)));
        });
    if (options_.revalidateIntervalSec > 0.0)
        service_.cache().startRevalidation(options_.revalidateIntervalSec);
    workers_.reserve(static_cast<size_t>(options_.workers));
    for (int w = 0; w < options_.workers; ++w)
        workers_.emplace_back([this] { workerLoop(); });
}

ServiceLoop::~ServiceLoop()
{
    shutdown(/*cancel_in_flight=*/false);
    MetricsRegistry::instance().removeSource(metricsSource_);
}

bool
ServiceLoop::tenantAdmit(const std::string &tenant)
{
    // Caller holds mu_.
    const auto now =
        options_.clock ? options_.clock() : std::chrono::steady_clock::now();
    auto it = buckets_.find(tenant);
    if (it == buckets_.end()) {
        Bucket bucket;
        const auto cfg = options_.tenantBudgets.find(tenant);
        bucket.budget = cfg != options_.tenantBudgets.end()
                            ? cfg->second
                            : options_.defaultBudget;
        bucket.tokens = std::max(1.0, bucket.budget.burst);
        bucket.last = now;
        it = buckets_.emplace(tenant, bucket).first;
    }
    Bucket &bucket = it->second;
    if (bucket.budget.ratePerSec <= 0.0)
        return true; // unlimited tenant
    const double elapsed =
        std::chrono::duration<double>(now - bucket.last).count();
    bucket.last = now;
    // Saturating refill: steady_clock is monotonic on paper, but
    // suspend/resume and virtualized clocks have been observed stepping
    // it backwards. A negative elapsed must refill nothing (old code
    // *drained* tokens with it, locking the tenant out for as long as
    // the jump was large) — the anchor still resets above, so the lost
    // interval is forgotten rather than double-counted later.
    if (elapsed > 0.0 && std::isfinite(elapsed)) {
        bucket.tokens =
            std::min(std::max(1.0, bucket.budget.burst),
                     bucket.tokens + elapsed * bucket.budget.ratePerSec);
    }
    if (bucket.tokens < 1.0) {
        ++bucket.throttled;
        return false;
    }
    bucket.tokens -= 1.0;
    return true;
}

Admission
ServiceLoop::admitLocked(const std::string &tenant, bool queues)
{
    ++submitted_;
    if (stop_) {
        ++rejectedShutdown_;
        return Admission::ShuttingDown;
    }
    if (queues && queue_.size() >= options_.queueDepth) {
        ++rejectedQueueFull_;
        return Admission::QueueFull;
    }
    if (!tenantAdmit(tenant)) {
        ++rejectedThrottled_;
        return Admission::Throttled;
    }
    ++accepted_;
    return Admission::Accepted;
}

void
ServiceLoop::reject(const Callback &done, Admission verdict,
                    const std::string &label, const std::string &tenant)
{
    // Rejections surface as a clean per-query response, never as a
    // silent drop: the callback fires inline with the verdict.
    if (!done)
        return;
    Response resp;
    resp.admission = verdict;
    resp.report.label = label;
    resp.report.source = "rejected";
    resp.error = std::string("rejected: ") + admissionName(verdict) +
                 (verdict == Admission::Throttled
                      ? " (tenant '" + tenant + "' over budget)"
                      : "");
    done(resp);
}

void
ServiceLoop::complete(uint64_t busyUs)
{
    {
        std::lock_guard<std::mutex> lock(mu_);
        --inFlight_;
        ++completed_;
        workerBusyUs_ += busyUs;
    }
    idleCv_.notify_all();
}

Admission
ServiceLoop::enqueue(Item item, const std::string &tenant,
                     const std::string &label)
{
    Admission verdict = Admission::Accepted;
    {
        std::lock_guard<std::mutex> lock(mu_);
        verdict = admitLocked(tenant, /*queues=*/true);
        if (verdict == Admission::Accepted) {
            queue_.push_back(std::move(item));
            queueHighWater_ = std::max(queueHighWater_, queue_.size());
        }
    }
    if (verdict != Admission::Accepted) {
        reject(item.done, verdict, label, tenant);
        return verdict;
    }
    workCv_.notify_one();
    return verdict;
}

Admission
ServiceLoop::submit(PlanQuery query, const std::string &tenant,
                    Callback done)
{
    // A resident plan is answered here, on the caller's thread: no
    // queue, no worker hand-off. The lookup runs before admission, so a
    // hit is admitted without the queue-full check (it never queues);
    // admission happens inside answerResident, between the lookup and
    // recording the answer, so a refused hit records nothing.
    Response resp;
    Admission verdict = Admission::Accepted;
    const SharedPlan hit = service_.answerResident(
        query, service_.fingerprint(query), &resp.report, [&] {
            std::lock_guard<std::mutex> lock(mu_);
            verdict = admitLocked(tenant, /*queues=*/false);
            if (verdict != Admission::Accepted)
                return false;
            ++inFlight_; // drain() waits until the callback returns
            ++answeredInline_;
            return true;
        });
    if (hit) {
        if (done)
            done(resp);
        complete(/*busyUs=*/0);
        return Admission::Accepted;
    }
    if (verdict != Admission::Accepted) {
        reject(done, verdict, query.label, tenant);
        return verdict;
    }

    // Not resident: the workers answer it from disk or by searching.
    const std::string label = query.label;
    Item item;
    item.query = std::move(query);
    item.done = std::move(done);
    return enqueue(std::move(item), tenant, label);
}

Admission
ServiceLoop::submit(ReplanRequest request, const std::string &tenant,
                    Callback done)
{
    // A removal request answers the degraded query; anything else the
    // drifted base. Either way the label reported on rejection is the
    // one the accepted path would have served under.
    const std::string label = request.delta.removesDevices() &&
                                      request.degraded
                                  ? request.degraded->label
                                  : request.base.label;
    Item item;
    item.replan = std::move(request);
    item.done = std::move(done);
    return enqueue(std::move(item), tenant, label);
}

void
ServiceLoop::workerLoop()
{
    for (;;) {
        Item item;
        {
            std::unique_lock<std::mutex> lock(mu_);
            workCv_.wait(lock,
                         [this] { return stop_ || !queue_.empty(); });
            if (queue_.empty())
                return; // stop_ and drained
            item = std::move(queue_.front());
            queue_.pop_front();
            ++inFlight_;
        }

        Response resp;
        resp.admission = Admission::Accepted;
        const Stopwatch busy;
        // The answer is shared with the memory tier on a hit and only
        // the report leaves the worker, so nothing is copied.
        if (item.replan)
            service_.answer(*item.replan, &resp.report);
        else
            service_.answer(item.query, &resp.report);
        const auto busyUs = static_cast<uint64_t>(busy.seconds() * 1e6);
        resp.cancelled = cancelSource_.cancelled();
        if (resp.cancelled)
            resp.error = "cancelled by shutdown";
        if (item.done)
            item.done(resp);
        complete(busyUs);
    }
}

void
ServiceLoop::drain()
{
    std::unique_lock<std::mutex> lock(mu_);
    idleCv_.wait(lock,
                 [this] { return queue_.empty() && inFlight_ == 0; });
}

void
ServiceLoop::shutdown(bool cancel_in_flight)
{
    {
        std::lock_guard<std::mutex> lock(mu_);
        if (stop_ && workers_.empty())
            return; // already shut down
        stop_ = true;
    }
    if (cancel_in_flight)
        cancelSource_.cancel();
    workCv_.notify_all();
    for (std::thread &worker : workers_)
        worker.join();
    workers_.clear();
    service_.cache().stopRevalidation();
    // Budget-missed replans may still be searching in the background;
    // a daemon shutdown waits them out (they publish to the store, so
    // the work is not wasted — the next process serves them as hits).
    service_.waitBackgroundReplans();
}

bool
ServiceLoop::accepting() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return !stop_;
}

LoopStats
ServiceLoop::stats() const
{
    std::lock_guard<std::mutex> lock(mu_);
    LoopStats out;
    out.submitted = submitted_;
    out.accepted = accepted_;
    out.rejectedQueueFull = rejectedQueueFull_;
    out.rejectedThrottled = rejectedThrottled_;
    out.rejectedShutdown = rejectedShutdown_;
    out.completed = completed_;
    out.answeredInline = answeredInline_;
    out.queueDepth = queue_.size();
    out.queueHighWater = queueHighWater_;
    out.inFlight = inFlight_;
    out.workerBusyUs = workerBusyUs_;
    for (const auto &kv : buckets_) {
        if (kv.second.throttled > 0)
            out.throttledByTenant[kv.first] = kv.second.throttled;
    }
    return out;
}

} // namespace tessel
