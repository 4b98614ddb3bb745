/**
 * @file
 * Planning daemon core: a long-running service loop decoupled from
 * process lifetime.
 *
 * The batch front-end (service/service.h) answers one batch and
 * returns; a production planner instead runs for the process lifetime
 * and drains a *stream* of queries. ServiceLoop owns that stream: a
 * bounded admission queue, a fixed team of dispatch workers pulling
 * from it (each answering through PlanningService::answer, so the
 * cache/seeding/verification pipeline is byte-for-byte the batch one —
 * daemon-served plans are bit-identical to batch answers for the same
 * query), per-tenant token-bucket budgets, and a shutdown path that
 * either drains gracefully or cancels in-flight searches through the
 * same CancelToken plumbing the batch path uses.
 *
 * Admission control: submit() never blocks and never silently drops.
 * A query is either accepted (its callback will fire exactly once with
 * the answer) or rejected *synchronously* with a typed verdict — queue
 * full, tenant over budget, or loop shutting down — and the callback
 * fires immediately with that verdict and a human-readable error, so
 * every submitted query gets exactly one response either way.
 *
 * Token buckets: each tenant holds `burst` tokens refilled at
 * `ratePerSec`; a submission costs one token. A rate of 0 disables
 * throttling for that tenant (the default — admission control is then
 * queue-depth only).
 *
 * Cancellation semantics: shutdown(cancel_in_flight = true) trips the
 * loop's CancelSource, which resolveOptions() has linked into every
 * query's search. In-flight searches return early with their best
 * truncated answer; cancelled answers are delivered (flagged) but
 * never cached (see PlanningService::runBatch docs). Queued-but-
 * unstarted queries still run — against a tripped token their search
 * returns immediately — so the exactly-one-response contract survives
 * shutdown.
 */

#ifndef TESSEL_SERVICE_LOOP_H
#define TESSEL_SERVICE_LOOP_H

#include <chrono>
#include <condition_variable>
#include <deque>
#include <functional>
#include <map>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "service/service.h"

namespace tessel {

/** Typed admission verdict for one streamed query. */
enum class Admission
{
    Accepted,     ///< enqueued; the callback will fire with the answer
    QueueFull,    ///< rejected: admission queue at capacity
    Throttled,    ///< rejected: tenant token bucket empty
    ShuttingDown, ///< rejected: loop no longer accepts work
};

/** Stable lowercase name of @p a ("accepted", "queue-full", ...). */
const char *admissionName(Admission a);

/** Per-tenant token-bucket budget. */
struct TenantBudget
{
    /** Sustained queries per second; <= 0 disables throttling. */
    double ratePerSec = 0.0;
    /** Bucket capacity: how many queries may arrive back-to-back. */
    double burst = 8.0;
};

/** Daemon construction knobs. */
struct ServiceLoopOptions
{
    /** Underlying planning-service knobs (cache dir, verification,
     * per-query budget override, neighbor seeding...). The loop links
     * its own CancelSource into `service.cancel`. */
    ServiceOptions service;
    /** Admission queue capacity; submissions beyond it are rejected
     * with Admission::QueueFull (clamped to >= 1). */
    size_t queueDepth = 64;
    /** Dispatch workers answering queries concurrently (>= 1). Each
     * runs complete queries through PlanningService::answer. */
    int workers = 2;
    /** Budget applied to tenants without an explicit entry. */
    TenantBudget defaultBudget;
    /** Per-tenant budget overrides (keyed by tenant name). */
    std::map<std::string, TenantBudget> tenantBudgets;
    /** > 0 starts the cache's background revalidation thread with this
     * sweep interval (seconds). */
    double revalidateIntervalSec = 0.0;
    /** Clock the token buckets refill against; empty uses the real
     * steady clock. Injectable so tests can replay pathological clock
     * behavior (suspend/resume, virtualized clocks stepping backwards)
     * deterministically. */
    std::function<std::chrono::steady_clock::time_point()> clock;
};

/** Aggregate daemon counters (monotonic over the loop lifetime) and
 * gauges — the only home of the `loop.*` series, which the loop's
 * metrics-registry source reports from stats(). */
struct LoopStats
{
    uint64_t submitted = 0;         ///< every submit() call
    uint64_t accepted = 0;          ///< admitted to the queue
    uint64_t rejectedQueueFull = 0;
    uint64_t rejectedThrottled = 0;
    uint64_t rejectedShutdown = 0;
    uint64_t completed = 0;         ///< callbacks fired with an answer
    size_t queueDepth = 0;          ///< currently queued (snapshot)
    size_t queueHighWater = 0;      ///< max queueDepth ever observed
    size_t inFlight = 0;            ///< currently being answered
    uint64_t workerBusyUs = 0;      ///< worker time spent answering, µs
    /** Throttled rejections by tenant (sums to rejectedThrottled). */
    std::map<std::string, uint64_t> throttledByTenant;
};

class ServiceLoop
{
  public:
    /** One streamed answer (or a synchronous rejection). */
    struct Response
    {
        Admission admission = Admission::Accepted;
        /** Filled for accepted queries (fingerprint, plan hash, source,
         * period, wall time); only `label` is set on rejections. */
        QueryReport report;
        /** The loop's CancelSource had tripped by completion time: the
         * answer may be truncated and was not cached. */
        bool cancelled = false;
        /** Human-readable cause; empty on a clean answer. */
        std::string error;
    };

    /**
     * Completion callback. Fires exactly once per submit(): inline for
     * rejections, from a dispatch worker for accepted queries — so it
     * must be thread-safe against other queries' callbacks.
     */
    using Callback = std::function<void(const Response &)>;

    /** Starts the workers (and revalidation, if configured). */
    explicit ServiceLoop(ServiceLoopOptions options);

    /** Graceful shutdown: drains the queue, joins the workers, and
     * unregisters the metrics source. */
    ~ServiceLoop();

    ServiceLoop(const ServiceLoop &) = delete;
    ServiceLoop &operator=(const ServiceLoop &) = delete;

    /**
     * Admit one query for @p tenant. Never blocks: returns the verdict
     * immediately, and @p done always fires exactly once (inline, with
     * the verdict, when not Accepted).
     */
    Admission submit(PlanQuery query, const std::string &tenant,
                     Callback done);

    /**
     * Admit one replan request (cluster drift or device failure) for
     * @p tenant. Same admission contract as the query overload; an
     * accepted request is answered like PlanningService::replan, so
     * the response report may carry `stale` (budget-missed, old plan
     * conservatively retimed) or `degraded` (survivor placement after
     * a failure) — both are verified, servable answers, never errors.
     */
    Admission submit(ReplanRequest request, const std::string &tenant,
                     Callback done);

    /** Block until the queue is empty and no query is in flight. */
    void drain();

    /**
     * Stop admitting work and join the workers. Queued and in-flight
     * queries still receive their callbacks. With @p cancel_in_flight,
     * the loop's CancelSource trips first, so running searches return
     * early (truncated answers are flagged `cancelled` and not
     * cached) instead of running to completion. Idempotent.
     */
    void shutdown(bool cancel_in_flight = false);

    /** @return whether submit() can still accept work. */
    bool accepting() const;

    LoopStats stats() const;

    PlanningService &service() { return service_; }

  private:
    struct Item
    {
        PlanQuery query;
        /** Set for replan submissions; workers then answer the replan
         * request instead of the query (query is unused). */
        std::optional<ReplanRequest> replan;
        Callback done;
    };

    /** Shared admission path for both submit overloads. */
    Admission enqueue(Item item, const std::string &tenant,
                      const std::string &label);

    /** Token bucket state for one tenant (guarded by mu_). */
    struct Bucket
    {
        TenantBudget budget;
        double tokens = 0.0;
        std::chrono::steady_clock::time_point last;
        uint64_t throttled = 0; ///< rejections charged to this tenant
    };

    /** Refill and charge @p tenant's bucket; false when throttled. */
    bool tenantAdmit(const std::string &tenant);

    void workerLoop();

    ServiceLoopOptions options_;
    CancelSource cancelSource_;
    PlanningService service_;

    mutable std::mutex mu_;
    std::condition_variable workCv_; ///< queue non-empty or stopping
    std::condition_variable idleCv_; ///< queue empty and nothing in flight
    std::deque<Item> queue_;
    std::map<std::string, Bucket> buckets_;
    bool stop_ = false;
    size_t inFlight_ = 0;
    size_t queueHighWater_ = 0;
    uint64_t submitted_ = 0;
    uint64_t accepted_ = 0;
    uint64_t rejectedQueueFull_ = 0;
    uint64_t rejectedThrottled_ = 0;
    uint64_t rejectedShutdown_ = 0;
    uint64_t completed_ = 0;
    uint64_t workerBusyUs_ = 0;

    std::vector<std::thread> workers_;
    /** Metrics-registry source reporting stats() as `loop.*`. */
    int metricsSource_ = 0;
};

} // namespace tessel

#endif // TESSEL_SERVICE_LOOP_H
