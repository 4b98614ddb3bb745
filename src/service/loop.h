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
 * Resident plans are answered at admission. submit(PlanQuery)
 * fingerprints the query on the caller's thread and looks it up in the
 * memory tier only (PlanningService::answerResident — the same hit path
 * answer() takes, so the report and plan hash are identical). A hit
 * never queues and never wakes a worker: when admission passes, the
 * callback fires with the answer before submit() returns. Misses
 * (including plans only on disk) and every replan request queue for the
 * workers. Which path a query takes depends only on whether its plan is
 * resident; no option selects it. Because callbacks of rejections and
 * of memory-tier hits run on the submitting thread, a caller must not
 * hold, across submit(), a lock its callback takes.
 *
 * Admission control: submit() never blocks on the queue and never
 * silently drops. A query is either accepted (its callback will fire
 * exactly once with the answer) or rejected *synchronously* with a
 * typed verdict — loop shutting down, queue full, or tenant over
 * budget, checked in that order, so the first two charge no token —
 * and the callback fires immediately with that verdict and a
 * human-readable error, so every submitted query gets exactly one
 * response either way. A resident hit skips the queue-full check,
 * because it never queues: it is accepted whenever the loop is
 * accepting and the tenant has a token, even with the queue full. A
 * resident hit refused at admission still counts as a store memory hit
 * (the store counts lookups, not answers) and answers nothing.
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
    Accepted,     ///< queued or answered inline; the callback fires with
                  ///< the answer
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
    uint64_t accepted = 0;          ///< admitted: queued or answered inline
    uint64_t rejectedQueueFull = 0;
    uint64_t rejectedThrottled = 0;
    uint64_t rejectedShutdown = 0;
    /** Callbacks fired with an answer, by a worker or inline. */
    uint64_t completed = 0;
    /** Accepted resident hits answered in submit(), never queued. */
    uint64_t answeredInline = 0;
    size_t queueDepth = 0;          ///< currently queued (snapshot)
    size_t queueHighWater = 0;      ///< max queueDepth ever observed
    /** Currently being answered, by a worker or inline. */
    size_t inFlight = 0;
    /** Worker time spent answering, µs (inline answers excluded). */
    uint64_t workerBusyUs = 0;
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
        /** The loop's CancelSource had tripped by the time a worker
         * finished the answer: it may be truncated and was not cached.
         * Never set on an inline answer (a resident plan is complete). */
        bool cancelled = false;
        /** Human-readable cause; empty on a clean answer. */
        std::string error;
    };

    /**
     * Completion callback. Fires exactly once per submit(): inline, on
     * the submitting thread before submit() returns, for rejections and
     * for memory-tier hits; from a dispatch worker for everything else.
     * So it must be thread-safe against other queries' callbacks, and a
     * caller must not hold, across submit(), a lock its callback takes.
     * It must not throw: the answer stays in flight until it returns.
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
     * Admit one query for @p tenant. Never waits for the queue or a
     * worker: a plan resident in the memory tier is answered right here
     * (the callback fires before this returns), anything else is queued
     * or rejected. @p done always fires exactly once (inline, with the
     * verdict, when not Accepted).
     */
    Admission submit(PlanQuery query, const std::string &tenant,
                     Callback done);

    /**
     * Admit one replan request (cluster drift or device failure) for
     * @p tenant. Same admission contract as the query overload, except
     * that a replan always queues, even when its drifted plan is
     * resident; an accepted request is answered like
     * PlanningService::replan, so
     * the response report may carry `stale` (budget-missed, old plan
     * conservatively retimed) or `degraded` (survivor placement after
     * a failure) — both are verified, servable answers, never errors.
     */
    Admission submit(ReplanRequest request, const std::string &tenant,
                     Callback done);

    /** Block until the queue is empty and no query is in flight — an
     * inline answer is in flight from its admission until its callback
     * returns. */
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

    /** Admission path of everything that queues: misses, replans. */
    Admission enqueue(Item item, const std::string &tenant,
                      const std::string &label);

    /**
     * Count one submission and run the admission checks in order —
     * shutting down, queue full (only when the work @p queues), tenant
     * token — counting the verdict. Caller holds mu_.
     */
    Admission admitLocked(const std::string &tenant, bool queues);

    /** Fire @p done (if set) with the rejection @p verdict. */
    static void reject(const Callback &done, Admission verdict,
                       const std::string &label, const std::string &tenant);

    /** One accepted answer delivered, after @p busyUs of worker time. */
    void complete(uint64_t busyUs);

    /** Token bucket state for one tenant (guarded by mu_). */
    struct Bucket
    {
        TenantBudget budget;
        double tokens = 0.0;
        std::chrono::steady_clock::time_point last;
        uint64_t throttled = 0; ///< rejections charged to this tenant
    };

    /** Refill and charge @p tenant's bucket; false (and the rejection
     * charged to the tenant) when throttled. Caller holds mu_. */
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
    uint64_t answeredInline_ = 0;
    uint64_t workerBusyUs_ = 0;

    std::vector<std::thread> workers_;
    /** Metrics-registry source reporting stats() as `loop.*`. */
    int metricsSource_ = 0;
};

} // namespace tessel

#endif // TESSEL_SERVICE_LOOP_H
