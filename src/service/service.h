/**
 * @file
 * Planning service: a batch query front-end over the plan store.
 *
 * A batch is a list of named queries (placement x cluster config x
 * option sweep). The service fingerprints every query canonically
 * (store/fingerprint.h), deduplicates identical instances, and answers
 * each unique one through the same path a single query takes — the
 * two-tier plan cache, else a neighbor-seeded search — as a task group
 * on the shared ThreadPool, with per-query budgets and cooperative
 * cancellation. Fresh results are admitted to the cache, so a repeated
 * batch — same process or a later one sharing the cache directory — is
 * answered entirely from storage with bit-identical plans.
 */

#ifndef TESSEL_SERVICE_SERVICE_H
#define TESSEL_SERVICE_SERVICE_H

#include <atomic>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "store/store.h"
#include "support/metrics.h"

namespace tessel {

/** One named planning query. */
struct PlanQuery
{
    /** Display label ("GPT-M/hetero/mem=6"); not part of the identity. */
    std::string label;
    Placement placement;
    /**
     * Search options. options.cluster may point at an external model
     * the caller keeps alive; queries that own their model set
     * `cluster` below instead and leave options.cluster null.
     */
    TesselOptions options;
    /**
     * Owned cluster model (shared so PlanQuery stays copyable and the
     * pointer handed to the search outlives the batch). When set, it
     * overrides options.cluster.
     */
    std::shared_ptr<const ClusterModel> cluster;

    /** @return options with the owned cluster model bound. */
    TesselOptions
    effectiveOptions() const
    {
        TesselOptions opts = options;
        if (cluster)
            opts.cluster = cluster.get();
        return opts;
    }
};

/** Per-query row of a batch report. */
struct QueryReport
{
    std::string label;
    /** Canonical instance fingerprint (hex). */
    std::string fingerprint;
    /** Digest of the serialized result: bit-identical plans <=> equal. */
    std::string planHash;
    /** "memory", "disk", or "search". */
    const char *source = "search";
    bool found = false;
    Time period = -1;
    /** Wall seconds to answer the *unique* instance this query mapped
     * to (deduplicated copies share the value). */
    double wallSec = 0.0;
    /**
     * The seed fields describe the search behind this answer, and only
     * the search writes them (PlanningService::searchMiss). A cache hit
     * and a stale answer ran none, so they read empty, -1 and 0, as
     * does a search that ran cold; seededFrom is non-empty exactly when
     * seedMakespan >= 0.
     *
     * Fingerprint (hex) of the stored plan whose adaptation seeded the
     * search: a neighbor's, or for a replan the served base plan's.
     */
    std::string seededFrom;
    /** Makespan of the adapted seed plan (-1 when unseeded). */
    Time seedMakespan = -1;
    /** Solver nodes pruned under the seed-derived bound before the
     * search accepted its first own candidate — the nodes a cold run
     * would have had to expand or bound some other way. */
    uint64_t seedNodesPruned = 0;
    /** Effort this call spent on the answer (see SearchBreakdown for
     * semantics): the search's counts and layer milliseconds when the
     * call ran one, zero for every memory or disk hit and stale answer,
     * even when this process searched the resident plan earlier. */
    uint64_t valueSweeps = 0;
    uint64_t policyImprovements = 0;
    uint64_t solverNodes = 0; ///< Period-core plus phase BnB nodes.
    double sweepMs = 0.0;     ///< Repetend sweep (period core).
    /** Wall milliseconds of the warmup and of the cooldown solves. A
     * completion solves its cooldown beside its warmup, so the two
     * overlap: their sum can exceed the phase time of wallSec. */
    double warmupMs = 0.0;
    double cooldownMs = 0.0;
    /** Completion minimizes the phase node cap stopped unproven
     * (SearchBreakdown::phaseCapHits). */
    uint64_t phaseCapHits = 0;
    /** Answered through PlanningService::replan (drift or failure). */
    bool replanned = false;
    /**
     * The served answer is the *old* plan retimed under the drifted
     * costs — oracle-verified feasible but not necessarily optimal;
     * the seeded search continues in the background and publishes the
     * fresh plan to the store when done. Source reads "stale".
     */
    bool stale = false;
    /** Answered on a survivor placement after a device failure. */
    bool degraded = false;
    /**
     * A wall deadline (the query's budgets) cut the search behind this
     * answer short: the plan is the best found in time, may depend on
     * host speed, and was not stored. A repeat searches again.
     */
    bool deadlineHit = false;
};

/**
 * Batch outcome: per-query rows plus aggregate cache behaviour.
 *
 * Accounting definitions (each name has exactly one): `queries` holds
 * one row per *submitted* query, deduplicated copies included, and
 * `throughputQps` divides that same count by `wallSec` — it is the
 * client-visible answer rate. `uniqueInstances`, `memoryHits`,
 * `diskHits`, and `searches` all count *unique* instances (after
 * fingerprint deduplication; copies count once), and memoryHits +
 * diskHits + searches == uniqueInstances always. hitRate() is defined
 * over unique instances (below) and is the rate the CI
 * `--min-hit-rate` gate enforces; the lifetime store-level rate,
 * defined over raw lookups instead, lives in
 * `cacheStats.hitRate()` (store/store.h).
 */
struct BatchReport
{
    std::vector<QueryReport> queries;
    size_t uniqueInstances = 0; ///< after fingerprint deduplication
    size_t memoryHits = 0;      ///< unique instances served from memory
    size_t diskHits = 0;        ///< unique instances served from disk
    size_t searches = 0;        ///< unique instances freshly searched
    double wallSec = 0.0;
    /** Submitted queries (dedup copies included) per wall second. */
    double throughputQps = 0.0;
    /** Cache counters accumulated over the service lifetime. */
    StoreStats cacheStats;

    /**
     * @return fraction of *unique* instances answered from either
     * cache tier: (memoryHits + diskHits) / uniqueInstances.
     * Deduplicated copies count once — a batch of one cold search plus
     * 99 copies scores 0, not 0.99. This is the documented definition
     * behind `tessel_service --min-hit-rate`.
     */
    double
    hitRate() const
    {
        const size_t total = memoryHits + diskHits + searches;
        return total == 0 ? 0.0
                          : static_cast<double>(memoryHits + diskHits) /
                                static_cast<double>(total);
    }
};

/**
 * Flagged replan answers, counted over the service lifetime — the only
 * home of the `service.stale_served` and `service.degraded_served`
 * series.
 */
struct ServiceStats
{
    /** Replans that missed their budget and served the old plan
     * retimed (QueryReport::stale). */
    uint64_t staleServed = 0;
    /** Replans answered on a survivor placement after a device
     * failure (QueryReport::degraded). */
    uint64_t degradedServed = 0;
};

/** Service construction knobs. */
struct ServiceOptions
{
    /** Cache directory (created on first store). */
    std::string cacheDir;
    /** Memory-tier capacity (results). */
    size_t memoryCapacity = 256;
    /**
     * Pool workers for runBatch's answer fan-out, beside the calling
     * thread: a task group of this width on the shared pool. 0 picks
     * hardware_concurrency(); 1 gives width 0 and answers the batch
     * inline, one instance at a time, in submission order. Each miss's
     * search keeps its own TesselOptions::numThreads, and its sweep is
     * a group on the same pool, so sweeps take the workers the fan-out
     * leaves idle. Plans are identical at any value by the search's
     * determinism contract.
     */
    int numThreads = 0;
    /**
     * On a store miss, consult the neighbor index and warm-start the
     * search from an adapted nearby plan (store/adapt.h). Never changes
     * any answer — the seed only prunes, so plans stay bit-identical to
     * cold searches — only how fast misses resolve.
     */
    bool neighborSeed = true;
    /**
     * Latency budget replan() gives the seeded foreground search
     * before falling back to the stale retimed answer (<= 0: always
     * wait for the fresh plan — no stale answers). The budget gates
     * only *waiting*: the search always runs to completion under the
     * query's own fingerprinted node cap and deadlines, and publishes
     * to the store (in the background when the caller stopped
     * waiting) unless a deadline cut it short.
     */
    double replanBudgetSec = 1.0;
    /** Batch-wide cancellation, linked into every search. */
    CancelToken cancel;
};

/**
 * One elastic-replanning request: a previously served query plus the
 * cluster change observed since its plan was produced.
 */
struct ReplanRequest
{
    /** The query whose served plan is to be adapted. */
    PlanQuery base;
    /** What changed: speed/link drift and/or device removal. */
    ClusterDelta delta;
    /**
     * Survivor query for the removal case (required when `delta`
     * removes devices; ignored otherwise). The base placement cannot
     * run with a device missing, so failure implies re-placement —
     * placement/shapes.h makeDegradedShape / makeDegradedHeteroShape-
     * ByName build these.
     */
    std::optional<PlanQuery> degraded;
};

/**
 * The query replan() actually answers: the base query with the drifted
 * cluster bound (applyDelta) for pure drift, or the survivor query for
 * removals. Exposed so benches and tests can run the *same* instance
 * cold — the drifted query fingerprints like any other, which is what
 * keys replans in the store. Fatal when the delta removes devices but
 * `degraded` is unset (caller contract; the trace layer validates
 * daemon input before building a ReplanRequest).
 */
PlanQuery makeDriftedQuery(const ReplanRequest &request);

class PlanningService
{
  public:
    explicit PlanningService(ServiceOptions options);

    /**
     * Answer @p queries: deduplicate them by fingerprint, then call
     * answer() once per unique instance, as one task group of width
     * ServiceOptions::numThreads on the process-wide pool
     * (ThreadPool::shared()), which the searches' sweeps and cooldown
     * helpers share, so no batch spawns or joins threads of its own.
     * Each answer() records its own `query` span and
     * `service.answer_ms` sample; deduplicated copies share their
     * instance's row. Thread-safe like answer().
     *
     * Results whose search observed a cancellation or was cut short by
     * a wall deadline are NOT admitted to the cache: neither is part of
     * the fingerprint, so a truncated answer must never be served to
     * another query (QueryReport::deadlineHit flags the latter).
     */
    BatchReport runBatch(const std::vector<PlanQuery> &queries);

    /**
     * Answer one query: the memory or verified disk tier, else the
     * neighbor-seeded search (admitted to the cache unless cancelled or
     * cut short by a deadline).
     * A cache hit returns the memory-tier resident itself — no copy —
     * and @p report's plan hash is the digest the resident was admitted
     * with, so a hot answer never re-serializes its plan. The result is
     * shared and must not be modified. Safe to call concurrently from
     * any number of threads (the ServiceLoop workers do).
     */
    std::shared_ptr<const TesselResult> answer(const PlanQuery &query,
                                               QueryReport *report = nullptr);

    /** answer() returning a private copy of the result. */
    TesselResult runOne(const PlanQuery &query, QueryReport *report = nullptr);

    /** The fingerprint answer() looks @p query up under (the query's
     * options with the service's cancellation linked in). */
    Hash128 fingerprint(const PlanQuery &query) const;

    /**
     * The memory-hit path of answer() for @p query, fingerprinted as
     * @p fp: look it up in the memory tier only — never disk, never
     * verification. A hit that @p admit accepts (absent: every hit) is
     * recorded like any memory hit: the `query` span, opened before the
     * lookup; the plan hash from the resident's digest; and
     * `service.answer_ms{source=memory}`. A miss, or a hit @p admit
     * refuses, discards the span, leaves @p report untouched and
     * returns an empty plan. Thread-safe like answer().
     */
    SharedPlan answerResident(const PlanQuery &query, const Hash128 &fp,
                              QueryReport *report,
                              const std::function<bool()> &admit = nullptr);

    /**
     * Elastic replan: answer the base query's instance under the
     * cluster change in @p request. Keyed in the store by the *drifted*
     * instance's fingerprint, so a repeated drift (or one a peer saw
     * first) is a plain cache hit. Otherwise: fetch the served base
     * plan, retime it under the drifted costs (prepareReplanSeed), run
     * the seeded search — bit-identical to a cold search on the
     * drifted cluster — and, when the search outlasts
     * ServiceOptions::replanBudgetSec, serve the verified retimed plan
     * flagged `stale` while the search finishes in the background and
     * publishes to the store. Removal deltas answer on the survivor
     * query (`degraded` flagged); with no served base plan the replan
     * degenerates to a normal neighbor-seeded miss. Every served
     * answer — fresh, stale, or degraded — passed the verification
     * oracle. Thread-safe like answer(), and shares cache hits the
     * same way.
     */
    std::shared_ptr<const TesselResult>
    answer(const ReplanRequest &request, QueryReport *report = nullptr);

    /** answer(request) returning a private copy of the result. */
    TesselResult replan(const ReplanRequest &request,
                        QueryReport *report = nullptr);

    /** Join every background replan a stale answer handed off (the
     * destructor does this too). Completed searches have already
     * published to the store by the time this returns. */
    void waitBackgroundReplans();

    ~PlanningService();

    PlanCache &cache() { return cache_; }
    const ServiceOptions &options() const { return options_; }
    ServiceStats stats() const;

  private:
    /** Query options with the service's cancellation linked in. */
    TesselOptions resolveOptions(const PlanQuery &query) const;

    /** A stored plan adapted to a query, and its fingerprint. */
    struct NeighborSeed;

    /** The first stored neighbor of the query that adapts to it; the
     * outcome carries the work of every attempt, failed ones included. */
    NeighborSeed seedFromNeighbors(const Placement &placement,
                                   const TesselOptions &eff);

    /**
     * The one place a service search runs, for both answer paths:
     * seed from @p prepared (a replan's adapted base plan) when given,
     * else from the neighbor index; search; fold the seed's
     * adaptation work into the breakdown; admit the result to the cache
     * unless cancelled or cut by a deadline. Writes @p report's source
     * and its seed fields, and is their only writer.
     * @return the admitted resident, or the digested uncached result.
     */
    SharedPlan searchMiss(const PlanQuery &query, const TesselOptions &eff,
                          const Hash128 &fp, QueryReport *report,
                          const NeighborSeed *prepared = nullptr);

    /** Join background replans whose search already finished. */
    void reapBackgroundReplans();

    /** Record one answered query into `service.answer_ms{source=...}`. */
    void observeAnswer(const QueryReport &report) const;

    ServiceOptions options_;
    PlanCache cache_;

    /** Registry histograms (`service.answer_ms`), registered once in
     * the constructor so every series exists before the first snapshot. */
    struct ServiceMetrics
    {
        Histogram *answerMemory = nullptr;
        Histogram *answerDisk = nullptr;
        Histogram *answerSearch = nullptr;
        Histogram *answerStale = nullptr;
    };
    ServiceMetrics metrics_;
    std::atomic<uint64_t> staleServed_{0};
    std::atomic<uint64_t> degradedServed_{0};
    /** Metrics-registry source reporting stats() as `service.*`. */
    int metricsSource_ = 0;

    /** A replan search still running after its caller stopped waiting
     * (the caller got the stale answer; the search publishes to the
     * store on completion). It runs on a thread of its own, not as a
     * pool task, which would hold a worker for the whole search; its
     * sweep and cooldown helper use the shared pool. */
    struct BackgroundReplan
    {
        std::thread thread;
        std::shared_ptr<std::atomic<bool>> done;
    };
    std::mutex bgMu_; ///< guards bg_
    std::vector<BackgroundReplan> bg_;
};

/**
 * The five reference shapes (V/X/M/NN/K, placement/shapes.h) as a named
 * query batch: per shape a homogeneous query, a memory-capped variant,
 * and (optionally) the heterogeneous comm-aware variant. Shared by the
 * service tool, the cold/warm bench, the CI smoke job, and the tests so
 * they all exercise the same instances.
 *
 * @param num_devices device count per shape (K needs it even, >= 2).
 * @param include_hetero add makeHeteroShapeByName comm-aware variants.
 * @param budget_sec per-query wall deadline (<= 0: none); answers it
 *        cuts short are served but not cached. Not part of the
 *        fingerprint: the phase node cap bounds the work.
 */
std::vector<PlanQuery> referenceShapeQueries(int num_devices,
                                             bool include_hetero = true,
                                             double budget_sec = 20.0);

/**
 * One reference query by name: @p shape in {V, X, M, NN, K}, @p variant
 * in {homogeneous, mem-capped, hetero}. Exactly the construction
 * referenceShapeQueries() uses for the same coordinates, so a streamed
 * trace line ("V", "hetero", 4 devices, budget 5) fingerprints — and
 * therefore plans — identically to the corresponding batch query.
 * @return nullopt for an unknown shape/variant or invalid device count.
 */
std::optional<PlanQuery> referenceShapeQuery(const std::string &shape,
                                             const std::string &variant,
                                             int num_devices,
                                             double budget_sec);

} // namespace tessel

#endif // TESSEL_SERVICE_SERVICE_H
