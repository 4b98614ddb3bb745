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

    // Fingerprint dedup: identical instances, whatever their labels, are
    // answered once, by the first query that maps to them.
    std::unordered_map<Hash128, size_t, Hash128Hasher> slot_of;
    std::vector<size_t> first_query; // per unique instance
    std::vector<size_t> query_slot(queries.size());
    for (size_t q = 0; q < queries.size(); ++q) {
        const auto slot = slot_of.emplace(fingerprint(queries[q]),
                                          first_query.size());
        if (slot.second)
            first_query.push_back(q);
        query_slot[q] = slot.first->second;
    }

    // One answer() per unique instance, as a task group of numThreads
    // workers beside this thread on the shared pool. Each miss sweeps
    // with its own numThreads as a group on the same pool, so the misses
    // still running take the workers of the answers already done.
    // Plans are identical at any thread count by the search's
    // determinism contract.
    std::vector<QueryReport> unique(first_query.size());
    const int threads = options_.numThreads > 0
                            ? options_.numThreads
                            : ThreadPool::hardwareThreads();
    ThreadPool::Group answers(threads > 1 ? threads : 0);
    for (size_t u = 0; u < unique.size(); ++u)
        answers.submit([this, &queries, &first_query, &unique, u] {
            answer(queries[first_query[u]], &unique[u]);
        });
    answers.wait();

    // Deduplicated queries copy their instance's row, timing included.
    report.queries.reserve(queries.size());
    for (size_t q = 0; q < queries.size(); ++q) {
        report.queries.push_back(unique[query_slot[q]]);
        report.queries.back().label = queries[q].label;
    }
    report.uniqueInstances = unique.size();
    for (const QueryReport &row : unique) {
        if (std::strcmp(row.source, "memory") == 0)
            ++report.memoryHits;
        else if (std::strcmp(row.source, "disk") == 0)
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

/** A warm-start seed for a miss: a stored plan adapted to the query
 * (store/adapt.h), and the fingerprint (hex) of the plan it came from,
 * empty when no stored plan adapted. */
struct PlanningService::NeighborSeed
{
    AdaptOutcome adapted;
    std::string from;
};

PlanningService::NeighborSeed
PlanningService::seedFromNeighbors(const Placement &placement,
                                   const TesselOptions &eff)
{
    NeighborSeed out;
    SearchBreakdown work;
    const InstanceMeta meta = computeInstanceMeta(placement, eff);
    for (const NeighborIndex::Neighbor &near :
         cache_.neighbors(meta, kSeedNeighbors)) {
        const std::shared_ptr<const TesselResult> stored =
            cache_.peekShared(near.fingerprint);
        if (!stored)
            continue;
        // Exact phase reuse is licensed only when the stored instance's
        // phase-relevant options (node cap, memory model) digest equals
        // the query's — adaptation then proves placement identity on
        // its own before trusting the attestation.
        InstanceMeta stored_meta;
        const bool phases_allowed =
            cache_.neighborMeta(near.fingerprint, &stored_meta) &&
            stored_meta.phaseOptions == meta.phaseOptions;
        out.adapted =
            adaptResultToQuery(placement, eff, *stored, phases_allowed);
        work.merge(out.adapted.breakdown);
        if (out.adapted.ok) {
            out.from = near.fingerprint.hex();
            break;
        }
    }
    out.adapted.breakdown = work;
    return out;
}

SharedPlan
PlanningService::searchMiss(const PlanQuery &query, const TesselOptions &eff,
                            const Hash128 &fp, QueryReport *report,
                            const NeighborSeed *prepared)
{
    NeighborSeed neighbor;
    const NeighborSeed *seed = prepared;
    if (!seed && options_.neighborSeed) {
        TraceSpan span("seed-adapt");
        neighbor = seedFromNeighbors(query.placement, eff);
        span.setLabel(neighbor.from);
        seed = &neighbor;
    }
    TesselOptions opts = eff;
    if (seed && seed->adapted.ok)
        opts.seed = &seed->adapted.seed;
    TesselResult result = tesselSearch(query.placement, opts);
    if (seed)
        result.breakdown.mergeSeedWork(seed->adapted.breakdown);
    if (report) {
        // The search reports a seed makespan only when it took the seed,
        // so the three fields describe the search that ran.
        const bool seeded = opts.seed && result.breakdown.seedMakespan >= 0;
        report->source = "search";
        report->seededFrom = seeded ? seed->from : std::string();
        report->seedMakespan = result.breakdown.seedMakespan;
        report->seedNodesPruned = result.breakdown.seededNodesPruned;
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

    // Retime the plan currently served for the base instance under the
    // drifted costs, in the foreground: the retimed plan is both the
    // search's seed and the conservative answer handed out if the search
    // misses the budget. A removal changed the placement itself, so
    // there is nothing to retime (the old plan schedules blocks on a
    // device that no longer exists); a missing or infeasible base plan,
    // or one that does not adapt, leaves nothing either. All fall
    // through to the ordinary miss pipeline — neighbor seeding still
    // applies, so a degraded query close to a stored instance stays
    // cheap.
    NeighborSeed seed;
    if (!removal) {
        const TesselOptions base_eff = resolveOptions(request.base);
        const Hash128 base_fp =
            fingerprintQuery(request.base.placement, base_eff);
        const std::shared_ptr<const TesselResult> served =
            cache_.getShared(base_fp, request.base.placement, base_eff)
                .result;
        if (served && served->found) {
            // Cluster drift leaves every phase-relevant knob untouched,
            // but the exact-phase license is computed, never assumed.
            seed.adapted = prepareReplanSeed(
                drifted.placement, eff, *served, &request.delta,
                phaseOptionsDigest(base_eff) == phaseOptionsDigest(eff));
            seed.from = base_fp.hex();
        }
    }
    if (!seed.adapted.ok)
        return finish(searchMiss(drifted, eff, fp, report),
                      /*searched=*/true);

    // The seeded search runs with the query's own node cap and
    // deadlines — replanBudgetSec bounds only how long this caller
    // *waits*, never how hard the search tries, so the published plan is
    // bit-identical to a cold search of the drifted instance. It runs
    // searchMiss on a thread of its own, which must be able to outlive
    // this call: everything it references rides along in one
    // shared_ptr, its report included, which this caller copies only
    // when it waits for the answer.
    struct ReplanTask
    {
        PlanQuery query; ///< owns the drifted cluster `effective` uses
        TesselOptions effective;
        Hash128 fingerprint;
        NeighborSeed seed;
        QueryReport report;
    };
    const auto task = std::make_shared<ReplanTask>(ReplanTask{
        drifted, eff, fp, std::move(seed), report ? *report : QueryReport{}});
    auto promise = std::make_shared<std::promise<SharedPlan>>();
    std::future<SharedPlan> future = promise->get_future();
    auto done = std::make_shared<std::atomic<bool>>(false);
    std::thread worker([this, task, promise, done] {
        promise->set_value(searchMiss(task->query, task->effective,
                                      task->fingerprint, &task->report,
                                      &task->seed));
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
            *report = task->report;
        return finish(future.get(), /*searched=*/true);
    }

    // Budget missed: hand the search to the background (it publishes to
    // the store on completion) and serve the old plan retimed under the
    // drifted costs — oracle-verified feasible by prepareReplanSeed,
    // conservatively suboptimal, flagged stale. Never cached: the store
    // only ever holds the search's own answer for this fingerprint. No
    // search stands behind this answer, so its seed fields stay unset.
    {
        std::lock_guard<std::mutex> lock(bgMu_);
        bg_.push_back(BackgroundReplan{std::move(worker), done});
    }
    staleServed_.fetch_add(1, std::memory_order_relaxed);
    if (report) {
        report->stale = true;
        report->source = "stale";
    }
    return finish(makeSharedPlan(task->seed.adapted.adapted),
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
