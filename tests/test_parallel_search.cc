/**
 * @file
 * Tests for the candidate sweep: one-thread/pooled plan identity (a
 * seeded drift replan's included), the one-thread sweep's effort
 * counters pinned per instance, the pooled sweep's bounded backlog,
 * concurrent searches sharing one pool, cooperative cancellation,
 * mergeable stats, and node-capped phase solves that give the same plan
 * at any thread count and under load.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <fstream>
#include <limits>
#include <string>
#include <thread>
#include <vector>

#include "core/search.h"
#include "placement/shapes.h"
#include "service/service.h"
#include "solver/bnb.h"
#include "solver/from_ir.h"
#include "store/adapt.h"
#include "store/fingerprint.h"
#include "store/serialize.h"
#include "support/cancel.h"
#include "support/threadpool.h"
#include "support/timer.h"

namespace tessel {
namespace {

TesselOptions
optsWithThreads(int threads)
{
    TesselOptions o;
    o.totalBudgetSec = 120.0;
    o.numThreads = threads;
    return o;
}

/** Full plan identity: assignment, window, period, and instantiation. */
void
expectSamePlan(const TesselResult &serial, const TesselResult &parallel)
{
    ASSERT_EQ(serial.found, parallel.found);
    if (!serial.found)
        return;
    EXPECT_EQ(serial.period, parallel.period);
    EXPECT_EQ(serial.nrUsed, parallel.nrUsed);
    EXPECT_EQ(serial.plan.assignment().r, parallel.plan.assignment().r);
    EXPECT_EQ(serial.plan.windowStart(), parallel.plan.windowStart());
    EXPECT_EQ(serial.plan.windowSpan(), parallel.plan.windowSpan());
    const int n = serial.plan.minMicrobatches() + 2;
    EXPECT_EQ(serial.plan.makespanFor(n), parallel.plan.makespanFor(n));
}

TEST(ParallelSearch, GptMShapeMatchesSerial)
{
    const Placement p = makeMShape(4);
    const auto serial = tesselSearch(p, optsWithThreads(1));
    ASSERT_TRUE(serial.found);
    EXPECT_EQ(serial.breakdown.threadsUsed, 1);
    for (int threads : {2, 4}) {
        const auto parallel = tesselSearch(p, optsWithThreads(threads));
        EXPECT_EQ(parallel.breakdown.threadsUsed, threads);
        expectSamePlan(serial, parallel);
    }
}

TEST(ParallelSearch, Mt5NnShapeMatchesSerial)
{
    const Placement p = makeNnShape(4);
    const auto serial = tesselSearch(p, optsWithThreads(1));
    ASSERT_TRUE(serial.found);
    for (int threads : {2, 4}) {
        const auto parallel = tesselSearch(p, optsWithThreads(threads));
        expectSamePlan(serial, parallel);
    }
}

TEST(ParallelSearch, NonLazyMatchesSerial)
{
    const Placement p = makeMShape(4);
    TesselOptions serial_opts = optsWithThreads(1);
    serial_opts.lazy = false;
    TesselOptions parallel_opts = optsWithThreads(4);
    parallel_opts.lazy = false;
    expectSamePlan(tesselSearch(p, serial_opts),
                   tesselSearch(p, parallel_opts));
}

TEST(ParallelSearch, MemoryLimitedMatchesSerial)
{
    // A finite memory budget exercises the cutoff + entry-memory paths.
    const Placement p = makeVShape(4);
    TesselOptions serial_opts = optsWithThreads(1);
    serial_opts.memLimit = 6;
    TesselOptions parallel_opts = optsWithThreads(3);
    parallel_opts.memLimit = 6;
    expectSamePlan(tesselSearch(p, serial_opts),
                   tesselSearch(p, parallel_opts));
}

TEST(ParallelSearch, CancellationStopsOversizedSolve)
{
    // A 10-micro-batch time-optimal instance runs for minutes if left
    // alone; an asynchronous cancel must stop it near-immediately.
    Problem prob(makeMShape(4), 10);
    const SolverProblem sp = buildFullInstance(prob);
    CancelSource source;
    SolverOptions so;
    so.cancel = source.token();
    BnbSolver solver(sp, so);

    std::thread killer([&] {
        std::this_thread::sleep_for(std::chrono::milliseconds(100));
        source.cancel();
    });
    Stopwatch watch;
    const SolveResult r = solver.minimizeMakespan();
    killer.join();
    EXPECT_LT(watch.seconds(), 10.0);
    EXPECT_TRUE(r.stats.cancelled);
    EXPECT_NE(r.status, SolveStatus::Infeasible);
}

TEST(ParallelSearch, SearchHonorsExternalCancel)
{
    CancelSource source;
    source.cancel();
    TesselOptions opts = optsWithThreads(4);
    opts.cancel = source.token();
    Stopwatch watch;
    const auto r = tesselSearch(makeMShape(4), opts);
    EXPECT_LT(watch.seconds(), 10.0);
    EXPECT_FALSE(r.found); // Cancelled before any candidate completed.
}

TEST(ParallelSearch, SolveStatsMergeIsAssociative)
{
    SolveStats a, b, c;
    a.nodes = 3;
    a.seconds = 0.5;
    a.memoHits = 1;
    b.nodes = 7;
    b.boundPrunes = 4;
    b.seedPrunes = 2;
    b.budgetExhausted = true;
    b.timedOut = true;
    c.nodes = 11;
    c.seconds = 1.25;
    c.seedPrunes = 5;
    c.cancelled = true;

    SolveStats left = a;   // (a + b) + c
    SolveStats ab = a;
    ab.merge(b);
    left = ab;
    left.merge(c);

    SolveStats right = a;  // a + (b + c)
    SolveStats bc = b;
    bc.merge(c);
    right.merge(bc);

    EXPECT_EQ(left.nodes, right.nodes);
    EXPECT_DOUBLE_EQ(left.seconds, right.seconds);
    EXPECT_EQ(left.budgetExhausted, right.budgetExhausted);
    EXPECT_EQ(left.timedOut, right.timedOut);
    EXPECT_TRUE(left.timedOut);
    EXPECT_EQ(left.cancelled, right.cancelled);
    EXPECT_EQ(left.memoHits, right.memoHits);
    EXPECT_EQ(left.boundPrunes, right.boundPrunes);
    EXPECT_EQ(left.seedPrunes, right.seedPrunes);
}

TEST(ParallelSearch, BreakdownMergeIsAssociative)
{
    SearchBreakdown a, b, c;
    a.repetendSeconds = 1.0;
    a.candidatesEnumerated = 5;
    a.threadsUsed = 2;
    b.warmupSeconds = 0.25;
    b.candidatesSolved = 3;
    b.earlyExit = true;
    b.seedMakespan = 40;
    b.seededNodesPruned = 17;
    c.cooldownSeconds = 0.5;
    c.satChecks = 9;
    c.threadsUsed = 8;
    c.budgetExhausted = true;
    c.seedMakespan = 25;
    c.seededNodesPruned = 4;
    a.phaseCapHits = 1;
    c.phaseCapHits = 2;

    SearchBreakdown ab = a;
    ab.merge(b);
    SearchBreakdown left = ab;
    left.merge(c);

    SearchBreakdown bc = b;
    bc.merge(c);
    SearchBreakdown right = a;
    right.merge(bc);

    EXPECT_DOUBLE_EQ(left.repetendSeconds, right.repetendSeconds);
    EXPECT_DOUBLE_EQ(left.warmupSeconds, right.warmupSeconds);
    EXPECT_DOUBLE_EQ(left.cooldownSeconds, right.cooldownSeconds);
    EXPECT_EQ(left.candidatesEnumerated, right.candidatesEnumerated);
    EXPECT_EQ(left.candidatesSolved, right.candidatesSolved);
    EXPECT_EQ(left.satChecks, right.satChecks);
    EXPECT_EQ(left.threadsUsed, right.threadsUsed);
    EXPECT_EQ(left.earlyExit, right.earlyExit);
    EXPECT_EQ(left.budgetExhausted, right.budgetExhausted);
    // seedMakespan merges by max (all workers saw the same seed, some
    // saw none), seededNodesPruned by sum — both associative.
    EXPECT_EQ(left.seedMakespan, right.seedMakespan);
    EXPECT_EQ(left.seededNodesPruned, right.seededNodesPruned);
    EXPECT_EQ(left.seedMakespan, 40);
    EXPECT_EQ(left.seededNodesPruned, 21u);
    EXPECT_EQ(left.phaseCapHits, right.phaseCapHits);
    EXPECT_EQ(left.phaseCapHits, 3u);
}

TEST(ParallelSearch, SeedWorkNeverFlagsADeadline)
{
    // A seed only prunes, so a deadline that cut its adaptation short
    // cannot change the plan: its counters fold in, its flag does not.
    SearchBreakdown result, seed_work;
    result.solverNodes = 10;
    seed_work.solverNodes = 5;
    seed_work.budgetExhausted = true;
    result.mergeSeedWork(seed_work);
    EXPECT_EQ(result.solverNodes, 15u);
    EXPECT_FALSE(result.budgetExhausted);
    result.budgetExhausted = true;
    result.mergeSeedWork(SearchBreakdown{});
    EXPECT_TRUE(result.budgetExhausted);
}

TEST(ParallelSearch, NodeCappedPhasesSamePlanAtAnyThreadCountAndLoad)
{
    // M/hetero's cooldown needs about 205k nodes to finish, so a 20k
    // cap binds. With no deadline the cap alone decides where each
    // phase solve stops: the plan cannot depend on threads or load.
    const PlanQuery q = *referenceShapeQuery("M", "hetero", 4, 0.0);
    TesselOptions capped = q.effectiveOptions();
    capped.phaseNodeLimit = 20'000;
    auto run = [&](const TesselOptions &base, int threads) {
        TesselOptions o = base;
        o.numThreads = threads;
        const TesselResult r = tesselSearch(q.placement, o);
        EXPECT_TRUE(r.found);
        EXPECT_FALSE(r.breakdown.budgetExhausted);
        return r;
    };

    const TesselResult serial = run(capped, 1);
    const std::string digest = resultPlanDigest(serial).hex();
    EXPECT_EQ(resultPlanDigest(run(capped, 4)).hex(), digest);

    // Again beside four threads that spin on the cores.
    std::atomic<bool> stop{false};
    std::vector<std::thread> hogs;
    for (int i = 0; i < 4; ++i)
        hogs.emplace_back([&stop] {
            while (!stop.load(std::memory_order_relaxed)) {
            }
        });
    const TesselResult loaded_serial = run(capped, 1);
    const TesselResult loaded_parallel = run(capped, 4);
    stop = true;
    for (std::thread &t : hogs)
        t.join();
    EXPECT_EQ(resultPlanDigest(loaded_serial).hex(), digest);
    EXPECT_EQ(resultPlanDigest(loaded_parallel).hex(), digest);

    // One sweep thread spends exactly the same nodes every time, and
    // the cap really bound: uncapped phase solves spend a different
    // count.
    EXPECT_EQ(loaded_serial.breakdown.solverNodes,
              serial.breakdown.solverNodes);
    EXPECT_EQ(serial.breakdown.phaseCapHits, 2u);
    TesselOptions uncapped = capped;
    uncapped.phaseNodeLimit = 0;
    const TesselResult free_run = run(uncapped, 1);
    EXPECT_NE(free_run.breakdown.solverNodes, serial.breakdown.solverNodes);
    EXPECT_EQ(free_run.breakdown.phaseCapHits, 0u);
}

/** Effort counters and plan digest one sweep thread must reproduce. */
struct EffortGolden
{
    const char *what;
    uint64_t enumerated;
    uint64_t solved;
    uint64_t satChecks;
    uint64_t nodes;
    uint64_t valueSweeps;
    uint64_t policyImprovements;
    uint64_t seedPruned;
    bool earlyExit;
    const char *digest;
};

void
expectEffort(const TesselResult &r, const EffortGolden &g)
{
    ASSERT_TRUE(r.found) << g.what;
    ASSERT_FALSE(r.breakdown.budgetExhausted) << g.what;
    const SearchBreakdown &b = r.breakdown;
    EXPECT_EQ(b.threadsUsed, 1) << g.what;
    EXPECT_EQ(b.candidatesEnumerated, g.enumerated) << g.what;
    EXPECT_EQ(b.candidatesSolved, g.solved) << g.what;
    EXPECT_EQ(b.satChecks, g.satChecks) << g.what;
    EXPECT_EQ(b.solverNodes, g.nodes) << g.what;
    EXPECT_EQ(b.valueSweeps, g.valueSweeps) << g.what;
    EXPECT_EQ(b.policyImprovements, g.policyImprovements) << g.what;
    EXPECT_EQ(b.seededNodesPruned, g.seedPruned) << g.what;
    EXPECT_EQ(b.earlyExit, g.earlyExit) << g.what;
    EXPECT_EQ(resultPlanDigest(r).hex(), g.digest) << g.what;
}

TEST(ParallelSearch, OneThreadSweepEffortGolden)
{
    // One sweep thread solves the candidates in enumeration order, so
    // its effort is a pure function of the instance: these counters
    // pin where it stops early, which candidates reach the phase
    // checks and how much each solve prunes. No deadline is set, so
    // only the node caps bound the work.
    const EffortGolden golden[] = {
        {"M/homogeneous", 1513, 1513, 14, 98555, 231114, 48138, 0, true,
         "a55b98508ad1e4900f1e9da5be91d19c"},
        {"V/hetero", 808, 808, 14, 5394, 5726, 1745, 0, true,
         "c164601491afd323272bc6b3404d4c8a"},
        {"X/mem-capped", 80, 80, 6, 296, 508, 191, 0, false,
         "924623af76360149ff8945a188c096d4"},
        {"M/homogeneous eager", 1513, 1513, 0, 100866, 231114, 48138, 0,
         true, "a55b98508ad1e4900f1e9da5be91d19c"},
        {"V/hetero seeded", 808, 808, 2, 924, 1631, 820, 820, true,
         "c164601491afd323272bc6b3404d4c8a"},
        {"V/hetero link drift", 339, 339, 14, 2658, 2675, 693, 0, true,
         "cb1750022274d7176d7e166abce0937d"},
        {"M/hetero", 535, 535, 28, 273445, 35410, 6629, 0, true,
         "0941e50f99a1241720d9cd7ab3f884b1"},
    };
    auto search = [](const PlanQuery &q, bool lazy,
                     const SearchSeed *seed) {
        TesselOptions o = q.effectiveOptions();
        o.numThreads = 1;
        o.lazy = lazy;
        o.seed = seed;
        return tesselSearch(q.placement, o);
    };
    const PlanQuery m = *referenceShapeQuery("M", "homogeneous", 4, 0.0);
    const PlanQuery v = *referenceShapeQuery("V", "hetero", 4, 0.0);
    const PlanQuery x = *referenceShapeQuery("X", "mem-capped", 4, 0.0);
    expectEffort(search(m, true, nullptr), golden[0]);
    const TesselResult base = search(v, true, nullptr);
    expectEffort(base, golden[1]);
    expectEffort(search(x, true, nullptr), golden[2]);
    expectEffort(search(m, false, nullptr), golden[3]);

    // A near miss: one more micro-batch of sweep headroom, seeded from
    // the base plan the way the service seeds a store neighbor.
    PlanQuery wider = v;
    wider.options.maxRepetendMicrobatches += 1;
    const TesselOptions wider_opts = wider.effectiveOptions();
    const AdaptOutcome adapted = adaptResultToQuery(
        wider.placement, wider_opts, base,
        phaseOptionsDigest(v.effectiveOptions()) ==
            phaseOptionsDigest(wider_opts));
    ASSERT_TRUE(adapted.ok) << adapted.reason;
    const TesselResult seeded = search(wider, true, &adapted.seed);
    EXPECT_EQ(seeded.breakdown.seedMakespan, adapted.seed.makespan);
    expectEffort(seeded, golden[4]);

    // The link (0, 1) drift of bench_replan: the one measured completion
    // whose cooldown waits for the warmup, because a warmup-sourced
    // release may bind.
    ReplanRequest drift;
    drift.base = v;
    LinkParams slow;
    slow.latency = 2.0;
    slow.timePerMB = 0.5;
    drift.delta.link[{0, 1}] = slow;
    expectEffort(search(makeDriftedQuery(drift), true, nullptr), golden[5]);
    // 46-block warmup and cooldown that both do real work, solved side
    // by side.
    expectEffort(
        search(*referenceShapeQuery("M", "hetero", 4, 0.0), true, nullptr),
        golden[6]);
}

TEST(ParallelSearch, SeededPooledSweepGivesTheColdPlan)
{
    // A drift replan seeds its search from the served plan and sweeps
    // on a pool (the service, the daemon and drift-replan all do). The
    // seed only prunes, so that search must return the plan of a cold
    // one-thread search of the drifted instance.
    struct Case
    {
        const char *shape;
        bool linkDrift; ///< bench_replan's link (0, 1) drift, else speed
        const char *coldDigest;
    };
    const Case cases[] = {
        // Pinned by OneThreadSweepEffortGolden's link-drift row too.
        {"V", true, "cb1750022274d7176d7e166abce0937d"},
        {"M", false, "b37923cf108a3885db28e34b2c55affa"},
    };
    for (const Case &c : cases) {
        const PlanQuery base = *referenceShapeQuery(c.shape, "hetero", 4, 0.0);
        ReplanRequest drift;
        drift.base = base;
        if (c.linkDrift) {
            LinkParams slow;
            slow.latency = 2.0;
            slow.timePerMB = 0.5;
            drift.delta.link[{0, 1}] = slow;
        } else {
            drift.delta.speedFactor[1] = 2.0;
        }
        const PlanQuery drifted = makeDriftedQuery(drift);
        const std::string what = drifted.label;

        TesselOptions base_opts = base.effectiveOptions();
        base_opts.numThreads = 1;
        const TesselResult served = tesselSearch(base.placement, base_opts);
        ASSERT_TRUE(served.found) << what;
        TesselOptions opts = drifted.effectiveOptions();
        opts.numThreads = 1;
        const TesselResult cold = tesselSearch(drifted.placement, opts);
        ASSERT_TRUE(cold.found) << what;
        const std::string digest = resultPlanDigest(cold).hex();
        EXPECT_EQ(digest, c.coldDigest) << what;

        // The exact-phase license as the service computes it.
        const bool phases_ok =
            phaseOptionsDigest(base.effectiveOptions()) ==
            phaseOptionsDigest(drifted.effectiveOptions());
        const ReplanSeed seed = prepareReplanSeed(
            drifted.placement, opts, served, &drift.delta, phases_ok);
        ASSERT_TRUE(seed.ok) << what << ": " << seed.reason;
        opts.numThreads = 4;
        opts.seed = &seed.seed;
        for (int run = 0; run < 2; ++run) {
            const TesselResult seeded = tesselSearch(drifted.placement, opts);
            EXPECT_EQ(seeded.breakdown.threadsUsed, 4) << what;
            EXPECT_FALSE(seeded.breakdown.budgetExhausted) << what;
            EXPECT_EQ(resultPlanDigest(seeded).hex(), digest) << what;
        }
    }
}

TEST(ParallelSearch, PooledSweepSkipsAtMostItsBacklog)
{
    // The sweep's task group holds at most its backlog cap of queued
    // candidates, so the enumerator stays that close to the solves.
    // When a candidate reaches the lower bound, what is queued then is
    // skipped unsolved: at most the cap, plus the one candidate
    // enumerated while the bar was being set.
    const PlanQuery q = *referenceShapeQuery("NN", "homogeneous", 4, 0.0);
    TesselOptions o = q.effectiveOptions();
    o.numThreads = 4;
    const uint64_t cap = ThreadPool::kBacklogPerWidth * (o.numThreads - 1);
    for (int run = 0; run < 3; ++run) {
        const TesselResult r = tesselSearch(q.placement, o);
        ASSERT_TRUE(r.found);
        ASSERT_FALSE(r.breakdown.budgetExhausted);
        ASSERT_TRUE(r.breakdown.earlyExit);
        ASSERT_GE(r.breakdown.candidatesEnumerated,
                  r.breakdown.candidatesSolved);
        EXPECT_LE(r.breakdown.candidatesEnumerated -
                      r.breakdown.candidatesSolved,
                  cap + 1)
            << "enumerated " << r.breakdown.candidatesEnumerated
            << ", solved " << r.breakdown.candidatesSolved;
    }
}

/** `Threads:` of this process in /proc/self/status (-1: unreadable). */
int
processThreads()
{
    std::ifstream status("/proc/self/status");
    std::string line;
    while (std::getline(status, line))
        if (line.rfind("Threads:", 0) == 0)
            return std::stoi(line.substr(8));
    return -1;
}

TEST(ParallelSearch, ConcurrentSearchesShareOnePool)
{
    // Every sweep and cooldown helper is a task group on the one
    // process-wide pool, so K concurrent 4-thread searches add their K
    // calling threads and nothing more: no pool per search and no
    // thread per completion.
    if (processThreads() < 0)
        GTEST_SKIP() << "no /proc/self/status";
    {
        // A 4-thread search's sweep group: the pool has its workers.
        ThreadPool::Group sweep_width(3);
    }
    const int baseline = processThreads();
    constexpr int kSearches = 3;
    const Placement p = makeNnShape(4);
    std::vector<TesselResult> results(kSearches);
    std::atomic<int> done{0};
    std::vector<std::thread> searches;
    for (int i = 0; i < kSearches; ++i)
        searches.emplace_back([&, i] {
            results[i] = tesselSearch(p, optsWithThreads(4));
            ++done;
        });
    int peak = baseline;
    while (done.load() < kSearches) {
        peak = std::max(peak, processThreads());
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    for (std::thread &t : searches)
        t.join();
    for (const TesselResult &r : results)
        EXPECT_TRUE(r.found);
    EXPECT_LE(peak, baseline + kSearches + 3)
        << "baseline " << baseline << " threads";
}

TEST(ParallelSearch, SweepSpeedsUpOnRealMulticore)
{
    // PR 1 shipped a >=2x speedup expectation that only holds with
    // enough physical parallelism; on the 1-core CI runner 4 workers
    // run at ~0.95x serial. Guard on hardware_concurrency() instead of
    // hardware luck: machines that cannot show the speedup skip, and
    // machines that can must deliver it. hardware_concurrency() counts
    // SMT threads, not cores, so the asserted ratio is tiered: 4-7
    // logical CPUs may be only 2 physical cores (~1.5x realistic),
    // while >= 8 must show the full 2x.
    const unsigned hw = std::thread::hardware_concurrency();
    if (hw < 4) {
        GTEST_SKIP() << "parallel speedup needs >= 4 logical CPUs, have "
                     << hw;
    }
    const double required = hw >= 8 ? 2.0 : 1.4;
    // NN-Shape has the largest candidate pool of the canonical shapes,
    // so the sweep dominates wall time and scales with workers.
    const Placement p = makeNnShape(4);

    // Both sides take the best of three runs, alternated, which damps
    // scheduler noise on shared CI machines.
    double serial_sec = std::numeric_limits<double>::max();
    double parallel_sec = std::numeric_limits<double>::max();
    for (int attempt = 0; attempt < 3; ++attempt) {
        Stopwatch serial_watch;
        const auto serial = tesselSearch(p, optsWithThreads(1));
        serial_sec = std::min(serial_sec, serial_watch.seconds());
        ASSERT_TRUE(serial.found);
        Stopwatch parallel_watch;
        const auto parallel = tesselSearch(p, optsWithThreads(4));
        parallel_sec = std::min(parallel_sec, parallel_watch.seconds());
        ASSERT_TRUE(parallel.found);
        expectSamePlan(serial, parallel);
    }
    EXPECT_GE(serial_sec / parallel_sec, required)
        << "serial " << serial_sec << "s vs parallel " << parallel_sec
        << "s with " << hw << " logical CPUs";
}

TEST(ParallelSearch, RepetendSolveHonorsCancelToken)
{
    const Placement p = makeMShape(4);
    RepetendAssignment assign;
    assign.r.assign(p.numBlocks(), 0);
    assign.numMicrobatches = 1;

    CancelSource source;
    source.cancel();
    RepetendSolveOptions rso;
    rso.cancel = source.token();
    const RepetendSchedule sched = solveRepetend(p, assign, rso);
    EXPECT_TRUE(sched.stats.cancelled);
    EXPECT_FALSE(sched.proven);
}

} // namespace
} // namespace tessel
