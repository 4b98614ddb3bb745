#include "service/service.h"

#include <algorithm>
#include <chrono>
#include <future>
#include <unordered_map>

#include "placement/shapes.h"
#include "store/adapt.h"
#include "support/logging.h"
#include "support/threadpool.h"
#include "support/timer.h"
#include "support/tracing.h"

#include <cstring>

namespace tessel {

PlanningService::PlanningService(ServiceOptions options)
    : options_(std::move(options)),
      cache_(options_.cacheDir, PlanCacheOptions{options_.memoryCapacity})
{
    MetricsRegistry &reg = MetricsRegistry::instance();
    metrics_.answerMemory =
        reg.histogram("service.answer_ms", "source", "memory");
    metrics_.answerDisk =
        reg.histogram("service.answer_ms", "source", "disk");
    metrics_.answerSearch =
        reg.histogram("service.answer_ms", "source", "search");
    metrics_.answerStale =
        reg.histogram("service.answer_ms", "source", "stale");
    metricsSource_ = reg.addSource([this](std::vector<MetricSample> &out) {
        const ServiceStats s = stats();
        out.push_back(
            MetricSample::counter("service.stale_served", s.staleServed));
        out.push_back(MetricSample::counter("service.degraded_served",
                                            s.degradedServed));
    });
}

ServiceStats
PlanningService::stats() const
{
    ServiceStats out;
    out.staleServed = staleServed_.load(std::memory_order_relaxed);
    out.degradedServed = degradedServed_.load(std::memory_order_relaxed);
    return out;
}

void
PlanningService::observeAnswer(const QueryReport &report) const
{
    const double ms = report.wallSec * 1e3;
    if (std::strcmp(report.source, "memory") == 0)
        metrics_.answerMemory->observe(ms);
    else if (std::strcmp(report.source, "disk") == 0)
        metrics_.answerDisk->observe(ms);
    else if (std::strcmp(report.source, "stale") == 0)
        metrics_.answerStale->observe(ms);
    else
        metrics_.answerSearch->observe(ms);
}

PlanningService::~PlanningService()
{
    MetricsRegistry::instance().removeSource(metricsSource_);
    waitBackgroundReplans();
}

namespace {

/** How many nearest stored neighbors a miss tries adapting. */
constexpr size_t kSeedNeighbors = 4;

/** Resolution of one unique instance within a batch. */
struct UniqueInstance
{
    Hash128 fingerprint;
    TesselOptions effective; ///< service cancellation linked in
    int firstQuery = 0;      ///< index of the first query mapping here
    /** Answering tier; Miss means the instance was searched. */
    PlanCache::Source source = PlanCache::Source::Miss;
    SharedPlan plan;
    /** The row every query mapping here copies (label aside). */
    QueryReport report;
};

/** A warm-start seed adapted from a stored neighbor. */
struct NeighborSeed
{
    /** Referenced by the search options, so it must outlive the solve. */
    SearchSeed seed;
    bool seeded = false;
    std::string from; ///< neighbor fingerprint (hex) when seeded
    /** Solver work the adaptation itself spent (retime path). */
    SearchBreakdown work;
};

/**
 * Try to warm-start a missed instance from the store's neighbor index:
 * rank stored instances by similarity, fetch each candidate raw, and
 * keep the first one that adapts into a verified plan for this query.
 * On success out.seed carries the virtual incumbent (period + window
 * order) for the search. Failures are free beyond the adaptation
 * attempt itself — the search simply runs cold.
 */
bool
trySeedFromNeighbors(PlanCache &cache, const Placement &placement,
                     const TesselOptions &eff, NeighborSeed &out)
{
    const InstanceMeta meta = computeInstanceMeta(placement, eff);
    for (const NeighborIndex::Neighbor &near :
         cache.neighbors(meta, kSeedNeighbors)) {
        const std::shared_ptr<const TesselResult> stored =
            cache.peekShared(near.fingerprint);
        if (!stored)
            continue;
        // Exact phase reuse is licensed only when the stored instance's
        // phase-relevant options (node cap, memory model) digest equals
        // the query's — adaptation then proves placement identity on
        // its own before trusting the attestation.
        InstanceMeta stored_meta;
        const bool phases_allowed =
            cache.neighborMeta(near.fingerprint, &stored_meta) &&
            stored_meta.phaseOptions == meta.phaseOptions;
        AdaptOutcome adapted =
            adaptResultToQuery(placement, eff, *stored, phases_allowed);
        out.work.merge(adapted.breakdown);
        if (!adapted.ok)
            continue;
        out.seed = std::move(adapted.seed);
        out.seeded = true;
        out.from = near.fingerprint.hex();
        return true;
    }
    return false;
}

const char *
sourceName(PlanCache::Source source)
{
    switch (source) {
    case PlanCache::Source::Memory:
        return "memory";
    case PlanCache::Source::Disk:
        return "disk";
    case PlanCache::Source::Miss:
        break;
    }
    return "search";
}

/**
 * Tag @p span with the solver effort behind @p plan, so a Perfetto
 * timeline shows what each query cost and not just how long it took,
 * and fill @p report's answer fields. Effort is reported only when
 * this call @p searched: a cache hit spent none, even when the resident
 * still carries the counts of the search that produced it. The plan
 * hash is the digest the plan carries, never a re-serialization.
 */
void
recordAnswer(const SharedPlan &plan, bool searched, TraceSpan &span,
             QueryReport *report)
{
    const TesselResult &result = *plan.result;
    const SearchBreakdown none;
    const SearchBreakdown &effort = searched ? result.breakdown : none;
    span.setArg("value_sweeps", effort.valueSweeps);
    span.setArg("policy_improvements", effort.policyImprovements);
    span.setArg("seed_nodes_pruned", effort.seededNodesPruned);
    if (!report)
        return;
    report->planHash = plan.digest.hex();
    report->found = result.found;
    report->deadlineHit = result.breakdown.budgetExhausted;
    report->period = result.period;
    report->valueSweeps = effort.valueSweeps;
    report->policyImprovements = effort.policyImprovements;
    report->solverNodes = effort.solverNodes;
    report->sweepMs = effort.repetendSeconds * 1e3;
    report->warmupMs = effort.warmupSeconds * 1e3;
    report->cooldownMs = effort.cooldownSeconds * 1e3;
    report->phaseCapHits = effort.phaseCapHits;
}

} // namespace

TesselOptions
PlanningService::resolveOptions(const PlanQuery &query) const
{
    TesselOptions eff = query.effectiveOptions();
    eff.cancel = eff.cancel.linked(options_.cancel);
    return eff;
}

BatchReport
PlanningService::runBatch(const std::vector<PlanQuery> &queries)
{
    const Stopwatch batch_watch;
    BatchReport report;
    report.queries.resize(queries.size());

    // Phase 1: fingerprint + dedup. Identical instances (whatever their
    // labels) share one UniqueInstance slot.
    std::vector<UniqueInstance> unique;
    std::unordered_map<Hash128, size_t, Hash128Hasher> slot_of;
    std::vector<size_t> query_slot(queries.size());
    for (size_t q = 0; q < queries.size(); ++q) {
        TesselOptions eff = resolveOptions(queries[q]);
        const Hash128 fp = fingerprintQuery(queries[q].placement, eff);
        const auto it = slot_of.find(fp);
        if (it != slot_of.end()) {
            query_slot[q] = it->second;
            continue;
        }
        UniqueInstance inst;
        inst.fingerprint = fp;
        inst.effective = std::move(eff);
        inst.firstQuery = static_cast<int>(q);
        inst.report.fingerprint = fp.hex();
        slot_of.emplace(fp, unique.size());
        query_slot[q] = unique.size();
        unique.push_back(std::move(inst));
    }
    report.uniqueInstances = unique.size();

    // Phases 2 and 3 give every unique instance the `query` root span
    // runOne opens: a hit records it around the lookup; a miss drops the
    // lookup's span and the search opens the instance's span instead.

    // Phase 2: answer from the cache (memory, then verified disk). The
    // expensive part of a disk hit — decode, comm-expansion recompute,
    // oracle verification — runs outside the cache lock, so lookups of
    // distinct entries fan out over the pool on warm batches. Each slot
    // is written by exactly one task.
    auto lookup = [&](size_t u) {
        UniqueInstance &inst = unique[u];
        const PlanQuery &query = queries[inst.firstQuery];
        TraceSpan span("query");
        span.setLabel(query.label);
        const Stopwatch watch;
        inst.plan = cache_.getShared(inst.fingerprint, query.placement,
                                     inst.effective, &inst.source);
        inst.report.wallSec = watch.seconds();
        if (!inst.plan) {
            span.discard();
            return;
        }
        inst.report.source = sourceName(inst.source);
        recordAnswer(inst.plan, /*searched=*/false, span, &inst.report);
    };
    // Each fan-out is a task group on the shared pool, declared after
    // everything its tasks touch: numThreads workers beside this thread.
    const int threads = options_.numThreads > 0
                            ? options_.numThreads
                            : ThreadPool::hardwareThreads();
    const int width = threads > 1 ? threads : 0;
    ThreadPool::Group lookups(width);
    for (size_t u = 0; u < unique.size(); ++u)
        lookups.submit([&lookup, u] { lookup(u); });
    lookups.wait();
    std::vector<size_t> missing;
    for (size_t u = 0; u < unique.size(); ++u)
        if (!unique[u].plan)
            missing.push_back(u);

    // Phase 3: fan the misses out. Each search sweeps with its own
    // numThreads as a group on the same pool, so the misses still
    // running take the workers of the ones already done. Plans are
    // identical at any thread count by the search's determinism
    // contract, and numThreads is excluded from the fingerprint for the
    // same reason.
    auto solve = [&](size_t u) {
        UniqueInstance &inst = unique[u];
        const PlanQuery &query = queries[inst.firstQuery];
        TraceSpan span("query");
        span.setLabel(query.label);
        // Adaptation time is charged to the query's wall clock: the
        // warm/cold comparisons the bench and CI make are only honest
        // if the cost of obtaining the seed is part of the warm path.
        const Stopwatch watch;
        inst.plan =
            searchMiss(query, inst.effective, inst.fingerprint, &inst.report);
        inst.report.wallSec = watch.seconds();
        recordAnswer(inst.plan, /*searched=*/true, span, &inst.report);
    };
    ThreadPool::Group solves(width);
    for (size_t u : missing)
        solves.submit([&solve, u] { solve(u); });
    solves.wait();

    // Phase 4: per-query rows (deduplicated queries share the unique
    // instance's answer and timing, which `service.answer_ms` records
    // once).
    for (size_t q = 0; q < queries.size(); ++q) {
        QueryReport &row = report.queries[q];
        row = unique[query_slot[q]].report;
        row.label = queries[q].label;
    }
    for (const UniqueInstance &inst : unique) {
        observeAnswer(inst.report);
        if (inst.source == PlanCache::Source::Memory)
            ++report.memoryHits;
        else if (inst.source == PlanCache::Source::Disk)
            ++report.diskHits;
        else
            ++report.searches;
    }

    report.wallSec = batch_watch.seconds();
    report.throughputQps =
        report.wallSec > 0.0
            ? static_cast<double>(queries.size()) / report.wallSec
            : 0.0;
    report.cacheStats = cache_.stats();
    return report;
}

SharedPlan
PlanningService::searchMiss(const PlanQuery &query, const TesselOptions &eff,
                            const Hash128 &fp, QueryReport *report)
{
    NeighborSeed seed;
    TesselOptions opts = eff;
    if (options_.neighborSeed) {
        TraceSpan span("seed-adapt");
        if (trySeedFromNeighbors(cache_, query.placement, eff, seed)) {
            opts.seed = &seed.seed;
            span.setLabel(seed.from);
        }
    }
    TesselResult result = tesselSearch(query.placement, opts);
    result.breakdown.mergeSeedWork(seed.work);
    if (report) {
        report->source = "search";
        if (seed.seeded) {
            report->seededFrom = seed.from;
            report->seedMakespan = result.breakdown.seedMakespan;
            report->seedNodesPruned = result.breakdown.seededNodesPruned;
        }
    }
    // A search that observed a cancellation (daemon shutdown, batch
    // abort) or that a wall deadline cut short may have been truncated;
    // its answer is valid for *this* caller but must not be cached —
    // neither is part of the fingerprint, so a future query would be
    // served the truncated plan as if fully searched.
    if (eff.cancel.cancelled() || result.breakdown.budgetExhausted)
        return makeSharedPlan(std::move(result));
    return cache_.put(fp, query.placement, eff, std::move(result));
}

Hash128
PlanningService::fingerprint(const PlanQuery &query) const
{
    return fingerprintQuery(query.placement, resolveOptions(query));
}

SharedPlan
PlanningService::answerResident(const PlanQuery &query, const Hash128 &fp,
                                QueryReport *report,
                                const std::function<bool()> &admit)
{
    TraceSpan span("query");
    span.setLabel(query.label);
    const Stopwatch watch;
    SharedPlan plan = cache_.getMemory(fp);
    if (!plan || (admit && !admit())) {
        span.discard();
        return {};
    }
    recordAnswer(plan, /*searched=*/false, span, report);
    if (report) {
        report->label = query.label;
        report->fingerprint = fp.hex();
        report->source = sourceName(PlanCache::Source::Memory);
        report->wallSec = watch.seconds();
        observeAnswer(*report);
    }
    return plan;
}

std::shared_ptr<const TesselResult>
PlanningService::answer(const PlanQuery &query, QueryReport *report)
{
    const TesselOptions eff = resolveOptions(query);
    const Hash128 fp = fingerprintQuery(query.placement, eff);
    if (SharedPlan hit = answerResident(query, fp, report))
        return std::move(hit.result);

    // Not resident: the disk tier (getShared looks in memory once more,
    // so a plan admitted since the lookup above is still a memory hit),
    // then the search.
    TraceSpan span("query");
    span.setLabel(query.label);
    const Stopwatch watch;
    if (report) {
        report->label = query.label;
        report->fingerprint = fp.hex();
    }
    PlanCache::Source source = PlanCache::Source::Miss;
    SharedPlan plan = cache_.getShared(fp, query.placement, eff, &source);
    const bool searched = !plan;
    if (plan) {
        if (report)
            report->source = sourceName(source);
    } else {
        plan = searchMiss(query, eff, fp, report);
    }
    recordAnswer(plan, searched, span, report);
    if (report) {
        report->wallSec = watch.seconds();
        observeAnswer(*report);
    }
    return std::move(plan.result);
}

TesselResult
PlanningService::runOne(const PlanQuery &query, QueryReport *report)
{
    return *answer(query, report);
}

PlanQuery
makeDriftedQuery(const ReplanRequest &request)
{
    if (request.delta.removesDevices()) {
        fatal_if(!request.degraded,
                 "replan: a device-removal delta needs a degraded "
                 "survivor query (the old placement references the dead "
                 "device)");
        return *request.degraded;
    }
    PlanQuery drifted = request.base;
    ClusterModel base_model;
    if (drifted.cluster)
        base_model = *drifted.cluster;
    else if (drifted.options.cluster)
        base_model = *drifted.options.cluster;
    drifted.cluster = std::make_shared<ClusterModel>(applyDelta(
        base_model, request.delta, drifted.placement.numDevices()));
    drifted.options.cluster = nullptr; // superseded by the owning field
    if (!request.delta.empty())
        drifted.label += "/drift";
    return drifted;
}

namespace {

/**
 * State a replan search needs to outlive the serving thread: when the
 * latency budget expires, the caller walks away with the retimed stale
 * answer while the search keeps running in the background — everything
 * it references (the drifted query owning the cluster model, the
 * effective options pointing into it, the seed and shared lowering)
 * rides along in one shared_ptr.
 */
struct ReplanTask
{
    PlanQuery query;
    TesselOptions effective;
    Hash128 fingerprint;
    ReplanSeed seed;
};

} // namespace

std::shared_ptr<const TesselResult>
PlanningService::answer(const ReplanRequest &request, QueryReport *report)
{
    reapBackgroundReplans();

    const Stopwatch watch;
    const bool removal = request.delta.removesDevices();
    const PlanQuery drifted = makeDriftedQuery(request);
    TraceSpan span("replan");
    span.setLabel(drifted.label);
    const TesselOptions eff = resolveOptions(drifted);
    const Hash128 fp = fingerprintQuery(drifted.placement, eff);
    if (report) {
        report->label = drifted.label;
        report->fingerprint = fp.hex();
        report->replanned = true;
        report->degraded = removal;
    }
    auto finish = [&](SharedPlan plan, bool searched) {
        if (removal)
            degradedServed_.fetch_add(1, std::memory_order_relaxed);
        recordAnswer(plan, searched, span, report);
        if (report) {
            report->wallSec = watch.seconds();
            observeAnswer(*report);
        }
        return std::move(plan.result);
    };

    // Replans key by the *drifted* instance's fingerprint: a repeat of
    // the same drift — or a background replan that already published —
    // is a plain cache hit, fresh by construction.
    PlanCache::Source source = PlanCache::Source::Miss;
    if (SharedPlan cached =
            cache_.getShared(fp, drifted.placement, eff, &source)) {
        if (report)
            report->source = sourceName(source);
        return finish(std::move(cached), /*searched=*/false);
    }

    // Fetch the plan currently served for the base instance. A removal
    // changed the placement itself, so there is nothing to retime (the
    // old plan schedules blocks on a device that no longer exists); a
    // missing or infeasible base plan leaves nothing either. Both fall
    // through to the ordinary miss pipeline — neighbor seeding still
    // applies, so a degraded query close to a stored instance stays
    // cheap.
    std::shared_ptr<const TesselResult> served;
    bool phases_ok = false;
    if (!removal) {
        const TesselOptions base_eff = resolveOptions(request.base);
        const Hash128 base_fp =
            fingerprintQuery(request.base.placement, base_eff);
        served = cache_
                     .getShared(base_fp, request.base.placement, base_eff)
                     .result;
        // Cluster drift leaves every phase-relevant knob untouched, but
        // the exact-phase license is computed, never assumed.
        phases_ok =
            phaseOptionsDigest(base_eff) == phaseOptionsDigest(eff);
        if (served && report)
            report->seededFrom = base_fp.hex();
    }
    if (!served || !served->found)
        return finish(searchMiss(drifted, eff, fp, report),
                      /*searched=*/true);

    // Retime the served plan under the drifted costs in the foreground:
    // the retimed plan is both the search's opening incumbent and the
    // conservative answer handed out if the search misses the budget.
    auto task = std::make_shared<ReplanTask>();
    task->query = drifted; // owns the drifted cluster eff points into
    task->effective = eff;
    task->fingerprint = fp;
    task->seed = prepareReplanSeed(drifted.placement, task->effective,
                                   *served, &request.delta, phases_ok);
    if (!task->seed.ok)
        return finish(searchMiss(drifted, eff, fp, report),
                      /*searched=*/true);
    if (report)
        report->seedMakespan = task->seed.seed.makespan;

    // The full replan runs with the query's own node cap and deadlines
    // — replanBudgetSec bounds only how long this caller *waits*, never
    // how hard the search tries, so the published plan is bit-identical
    // to a cold search of the drifted instance. Like searchMiss, it
    // publishes nothing that a cancel or a deadline cut short.
    auto promise = std::make_shared<std::promise<SharedPlan>>();
    std::future<SharedPlan> future = promise->get_future();
    auto done = std::make_shared<std::atomic<bool>>(false);
    std::thread worker([this, task, promise, done] {
        TesselOptions opts = task->effective;
        opts.seed = &task->seed.seed;
        TesselResult result = tesselSearch(task->query.placement, opts);
        result.breakdown.mergeSeedWork(task->seed.work);
        promise->set_value(
            opts.cancel.cancelled() || result.breakdown.budgetExhausted
                ? makeSharedPlan(std::move(result))
                : cache_.put(task->fingerprint, task->query.placement,
                             task->effective, std::move(result)));
        done->store(true, std::memory_order_release);
    });

    const double budget = options_.replanBudgetSec;
    bool ready = true;
    {
        // The race: seeded search vs. the caller's latency budget.
        TraceSpan race("race");
        if (budget > 0.0) {
            ready =
                future.wait_for(std::chrono::duration<double>(budget)) ==
                std::future_status::ready;
        } else {
            future.wait();
        }
        race.setArg("search_won", ready ? 1 : 0);
    }
    if (ready) {
        worker.join();
        if (report)
            report->source = "search";
        return finish(future.get(), /*searched=*/true);
    }

    // Budget missed: hand the search to the background (it publishes to
    // the store on completion) and serve the old plan retimed under the
    // drifted costs — oracle-verified feasible by prepareReplanSeed,
    // conservatively suboptimal, flagged stale. Never cached: the store
    // only ever holds the search's own answer for this fingerprint.
    {
        std::lock_guard<std::mutex> lock(bgMu_);
        bg_.push_back(BackgroundReplan{std::move(worker), done});
    }
    staleServed_.fetch_add(1, std::memory_order_relaxed);
    if (report) {
        report->stale = true;
        report->source = "stale";
    }
    return finish(makeSharedPlan(task->seed.retimedResult),
                  /*searched=*/false);
}

TesselResult
PlanningService::replan(const ReplanRequest &request, QueryReport *report)
{
    return *answer(request, report);
}

void
PlanningService::reapBackgroundReplans()
{
    std::vector<std::thread> finished;
    {
        std::lock_guard<std::mutex> lock(bgMu_);
        std::vector<BackgroundReplan> keep;
        for (BackgroundReplan &bg : bg_) {
            if (bg.done->load(std::memory_order_acquire))
                finished.push_back(std::move(bg.thread));
            else
                keep.push_back(std::move(bg));
        }
        bg_.swap(keep);
    }
    for (std::thread &t : finished)
        if (t.joinable())
            t.join();
}

void
PlanningService::waitBackgroundReplans()
{
    std::vector<BackgroundReplan> pending;
    {
        std::lock_guard<std::mutex> lock(bgMu_);
        pending.swap(bg_);
    }
    for (BackgroundReplan &bg : pending)
        if (bg.thread.joinable())
            bg.thread.join();
}

std::optional<PlanQuery>
referenceShapeQuery(const std::string &shape, const std::string &variant,
                    int num_devices, double budget_sec)
{
    static const char *const kShapes[] = {"V", "X", "M", "NN", "K"};
    const bool known =
        std::find_if(std::begin(kShapes), std::end(kShapes),
                     [&](const char *s) { return shape == s; }) !=
        std::end(kShapes);
    if (!known || num_devices < 2 || num_devices % 2 != 0)
        return std::nullopt;

    // The node cap bounds the work, so no budget means no deadline.
    TesselOptions base;
    base.totalBudgetSec = budget_sec > 0.0 ? budget_sec : 0.0;
    base.repetendBudgetSec =
        budget_sec > 0.0 ? std::min(1.0, budget_sec) : 0.0;
    base.phaseBudgetSec =
        budget_sec > 0.0 ? std::min(5.0, budget_sec) : 0.0;

    PlanQuery query;
    query.label = shape + "/" + variant;
    query.options = base;
    if (variant == "homogeneous") {
        query.placement = makeShapeByName(shape.c_str(), num_devices);
    } else if (variant == "mem-capped") {
        query.placement = makeShapeByName(shape.c_str(), num_devices);
        // Unit-memory shapes hold at most one activation per in-flight
        // micro-batch and device; a cap of 4 forces the memory pruning
        // paths without making any shape infeasible.
        query.options.memLimit = 4;
    } else if (variant == "hetero") {
        HeteroShape hs = makeHeteroShapeByName(shape.c_str(), num_devices);
        query.placement = std::move(hs.placement);
        query.options.edgeMB = std::move(hs.edgeMB);
        query.cluster =
            std::make_shared<ClusterModel>(std::move(hs.cluster));
    } else {
        return std::nullopt;
    }
    return query;
}

std::vector<PlanQuery>
referenceShapeQueries(int num_devices, bool include_hetero,
                      double budget_sec)
{
    std::vector<PlanQuery> out;
    const char *shapes[] = {"V", "X", "M", "NN", "K"};
    for (const char *shape : shapes) {
        out.push_back(*referenceShapeQuery(shape, "homogeneous",
                                           num_devices, budget_sec));
        out.push_back(*referenceShapeQuery(shape, "mem-capped",
                                           num_devices, budget_sec));
        if (include_hetero)
            out.push_back(*referenceShapeQuery(shape, "hetero",
                                               num_devices, budget_sec));
    }
    return out;
}

} // namespace tessel
