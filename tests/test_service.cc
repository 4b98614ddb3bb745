/**
 * @file
 * Planning-service tests: batch deduplication, the memory/disk/search
 * answer paths with bit-identical plans across service instances,
 * corrupted and version-bumped store entries falling back to a fresh
 * search, concurrent fan-out determinism, per-query deadlines, one
 * `query` root span and one `service.answer_ms` sample per unique batch
 * instance, and identical answers from runOne, runBatch and the daemon
 * loop on every tier, with search effort reported only by searches —
 * plus the
 * daemon loop: streaming answers while a worker is busy, clean
 * queue-full and per-tenant throttling rejections, graceful and
 * cancelling shutdown (cancelled answers flagged and never cached),
 * resident hits answered inline on the submitting thread (past a full
 * queue, never past an empty bucket or a shutdown) while misses still
 * reach the workers, drain() waiting for a running inline callback, two
 * client threads mixing inline hits and queued misses, the lock-free
 * hot path keeping lockContended at zero on a read-only trace, and the
 * exported `loop.*` / `service.*` series equal to LoopStats /
 * ServiceStats — plus the trace-line codec: one-line, valid-JSON
 * response lines for ids holding control bytes, every JSON string
 * escape, strict numbers, and trace lines that round-trip.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstring>
#include <functional>
#include <future>
#include <map>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "placement/shapes.h"
#include "service/loop.h"
#include "service/service.h"
#include "service/trace.h"
#include "store/serialize.h"
#include "support/io.h"
#include "support/logging.h"
#include "support/metrics.h"
#include "support/tracing.h"

namespace tessel {
namespace {

/**
 * Small homogeneous batch (fast; hetero variants covered separately).
 * No deadline: the node cap bounds the work, so which plan a query gets
 * and whether it is stored never depend on how fast the suite runs
 * (sanitizer builds included).
 */
std::vector<PlanQuery>
smallBatch()
{
    return referenceShapeQueries(4, /*include_hetero=*/false,
                                 /*budget_sec=*/0.0);
}

ServiceOptions
optionsFor(const std::string &dir)
{
    ServiceOptions opts;
    opts.cacheDir = dir;
    opts.numThreads = 1;
    return opts;
}

std::vector<std::string>
hashes(const BatchReport &report)
{
    std::vector<std::string> out;
    for (const QueryReport &q : report.queries)
        out.push_back(q.planHash);
    return out;
}

TEST(PlanningService, ColdThenMemoryThenDiskWithIdenticalPlans)
{
    std::string dir;
    ASSERT_TRUE(makeTempDir("tessel-svc-test-", &dir));
    const std::vector<PlanQuery> batch = smallBatch();

    PlanningService service(optionsFor(dir));
    const BatchReport cold = service.runBatch(batch);
    EXPECT_EQ(cold.searches, cold.uniqueInstances);
    EXPECT_EQ(cold.memoryHits + cold.diskHits, 0u);
    for (const QueryReport &q : cold.queries) {
        EXPECT_STREQ(q.source, "search");
        EXPECT_TRUE(q.found) << q.label;
    }

    const BatchReport warm = service.runBatch(batch);
    EXPECT_EQ(warm.memoryHits, warm.uniqueInstances);
    EXPECT_EQ(warm.searches, 0u);
    EXPECT_EQ(hashes(warm), hashes(cold));
    EXPECT_DOUBLE_EQ(warm.hitRate(), 1.0);

    // A fresh service sharing the directory simulates a new process:
    // every answer comes from a verified disk entry, bit-identical.
    PlanningService fresh(optionsFor(dir));
    const BatchReport disk = fresh.runBatch(batch);
    EXPECT_EQ(disk.diskHits, disk.uniqueInstances);
    EXPECT_EQ(disk.searches, 0u);
    EXPECT_EQ(hashes(disk), hashes(cold));
    for (const QueryReport &q : disk.queries)
        EXPECT_STREQ(q.source, "disk");
    EXPECT_EQ(fresh.cache().stats().verifyFailures, 0u);
}

TEST(PlanningService, DeduplicatesIdenticalInstances)
{
    std::string dir;
    ASSERT_TRUE(makeTempDir("tessel-svc-dedup-", &dir));

    PlanQuery q;
    q.label = "a";
    q.placement = makeShapeByName("V", 4);
    q.options.totalBudgetSec = 5.0;
    q.options.numThreads = 1;
    PlanQuery q2 = q;
    q2.label = "b";
    // Label and thread count are not part of the instance identity.
    q2.options.numThreads = 3;
    PlanQuery q3 = q;
    q3.label = "c";

    PlanningService service(optionsFor(dir));
    const BatchReport report = service.runBatch({q, q2, q3});
    EXPECT_EQ(report.uniqueInstances, 1u);
    EXPECT_EQ(report.searches, 1u);
    ASSERT_EQ(report.queries.size(), 3u);
    EXPECT_EQ(report.queries[0].fingerprint,
              report.queries[1].fingerprint);
    EXPECT_EQ(report.queries[0].planHash, report.queries[2].planHash);
}

TEST(PlanningService, CorruptedEntryFallsBackToSearch)
{
    std::string dir;
    ASSERT_TRUE(makeTempDir("tessel-svc-corrupt-", &dir));
    PlanQuery q;
    q.label = "V";
    q.placement = makeShapeByName("V", 4);
    q.options.totalBudgetSec = 5.0;

    PlanningService service(optionsFor(dir));
    QueryReport cold;
    const TesselResult cold_result = service.runOne(q, &cold);
    ASSERT_TRUE(cold_result.found);
    EXPECT_STREQ(cold.source, "search");

    // Flip one payload byte of the stored entry.
    const std::vector<Hash128> entries = service.cache().store().list();
    ASSERT_EQ(entries.size(), 1u);
    const std::string path = service.cache().store().pathFor(entries[0]);
    std::string bytes, err;
    ASSERT_TRUE(readFile(path, &bytes, &err)) << err;
    std::string corrupted = bytes;
    corrupted[bytes.size() / 2] ^= 0x10;
    ASSERT_TRUE(writeFileAtomic(path, corrupted, &err)) << err;

    const bool prev = setLogVerbose(false);
    PlanningService recovered(optionsFor(dir));
    QueryReport rec;
    const TesselResult rec_result = recovered.runOne(q, &rec);
    setLogVerbose(prev);
    EXPECT_STREQ(rec.source, "search");
    EXPECT_EQ(recovered.cache().stats().verifyFailures, 1u);
    ASSERT_TRUE(rec_result.found);
    // The fallback search reproduces the identical plan.
    EXPECT_EQ(rec.planHash, cold.planHash);
    EXPECT_TRUE(rec_result.plan == cold_result.plan);

    // Version-bumped entries are likewise rejected, not misparsed.
    std::string bumped = bytes;
    bumped[kPlanVersionOffset] =
        static_cast<char>(kPlanFormatVersion + 7);
    ASSERT_TRUE(writeFileAtomic(path, bumped, &err)) << err;
    const bool prev2 = setLogVerbose(false);
    PlanningService after_bump(optionsFor(dir));
    QueryReport bump_rep;
    after_bump.runOne(q, &bump_rep);
    setLogVerbose(prev2);
    EXPECT_STREQ(bump_rep.source, "search");
    EXPECT_EQ(after_bump.cache().stats().verifyFailures, 1u);
    EXPECT_EQ(bump_rep.planHash, cold.planHash);
}

TEST(PlanningService, ParallelFanOutMatchesSerial)
{
    std::string serial_dir, parallel_dir;
    ASSERT_TRUE(makeTempDir("tessel-svc-serial-", &serial_dir));
    ASSERT_TRUE(makeTempDir("tessel-svc-parallel-", &parallel_dir));
    // Identical-plans-under-fan-out is only promised for searches no
    // deadline cut: smallBatch() sets none, so however the contended
    // pool shares the cores, every search stops where its node cap says.
    const std::vector<PlanQuery> batch = smallBatch();

    PlanningService serial(optionsFor(serial_dir));
    ServiceOptions par_opts = optionsFor(parallel_dir);
    par_opts.numThreads = 4;
    PlanningService parallel(par_opts);

    const BatchReport a = serial.runBatch(batch);
    const BatchReport b = parallel.runBatch(batch);
    // The pool fan-out must not change any plan (determinism contract).
    EXPECT_EQ(hashes(a), hashes(b));
    EXPECT_EQ(b.searches, b.uniqueInstances);
}

TEST(PlanningService, DeadlineCutAnswerServedFlaggedNeverStored)
{
    std::string dir;
    ASSERT_TRUE(makeTempDir("tessel-svc-deadline-", &dir));
    PlanningService service(optionsFor(dir));

    // A repetend deadline this short trips at the solver's first clock
    // poll: the answer is served, flagged, and not stored, so a repeat
    // searches again instead of replaying a host-speed-dependent plan.
    PlanQuery cut = *referenceShapeQuery("V", "homogeneous", 4, 0.0);
    cut.options.repetendBudgetSec = 1e-9;
    for (int round = 0; round < 2; ++round) {
        QueryReport report;
        service.runOne(cut, &report);
        EXPECT_TRUE(report.deadlineHit) << round;
        EXPECT_STREQ(report.source, "search") << round;
        ServiceLoop::Response resp;
        resp.report = report;
        EXPECT_NE(formatResponseLine("q", resp).find("\"deadline_hit\": true"),
                  std::string::npos);
    }

    // The same instance without deadlines: the same fingerprint, stored,
    // and its repeat is a memory hit.
    PlanQuery free_run = cut;
    free_run.options.repetendBudgetSec = 0.0;
    QueryReport first, repeat;
    service.runOne(free_run, &first);
    EXPECT_EQ(first.fingerprint, service.fingerprint(cut).hex());
    EXPECT_FALSE(first.deadlineHit);
    EXPECT_STREQ(first.source, "search");
    service.runOne(free_run, &repeat);
    EXPECT_STREQ(repeat.source, "memory");
    EXPECT_EQ(repeat.planHash, first.planHash);
    ServiceLoop::Response resp;
    resp.report = repeat;
    EXPECT_EQ(formatResponseLine("q", resp).find("deadline_hit"),
              std::string::npos);
}

TEST(PlanningService, ReportsPhaseSolvesStoppedAtTheNodeCap)
{
    std::string dir;
    ASSERT_TRUE(makeTempDir("tessel-svc-phasecap-", &dir));
    PlanningService service(optionsFor(dir));

    // M/hetero's warmup and cooldown both need more than 20k nodes to
    // finish, so both completion minimizes stop at that cap; at the
    // default cap both end proven. A repeat is a hit and spent nothing.
    PlanQuery capped = *referenceShapeQuery("M", "hetero", 4, 0.0);
    capped.options.phaseNodeLimit = 20'000;
    QueryReport first, repeat;
    service.runOne(capped, &first);
    EXPECT_STREQ(first.source, "search");
    EXPECT_EQ(first.phaseCapHits, 2u);
    service.runOne(capped, &repeat);
    EXPECT_STREQ(repeat.source, "memory");
    EXPECT_EQ(repeat.phaseCapHits, 0u);

    QueryReport proven;
    service.runOne(*referenceShapeQuery("M", "hetero", 4, 0.0), &proven);
    EXPECT_STREQ(proven.source, "search");
    EXPECT_EQ(proven.phaseCapHits, 0u);
}

TEST(PlanningService, ZeroBudgetMeansNoDeadline)
{
    // budget_sec <= 0 sets no deadline at all; the node cap bounds the
    // work. Deadlines are not plan inputs, so the fingerprint is the
    // one any budget gives.
    const PlanQuery q = *referenceShapeQuery("NN", "hetero", 4, 0.0);
    EXPECT_EQ(q.options.totalBudgetSec, 0.0);
    EXPECT_EQ(q.options.repetendBudgetSec, 0.0);
    EXPECT_EQ(q.options.phaseBudgetSec, 0.0);
    const PlanQuery budgeted = *referenceShapeQuery("NN", "hetero", 4, 10.0);
    EXPECT_GT(budgeted.options.phaseBudgetSec, 0.0);
    EXPECT_EQ(fingerprintQuery(q.placement, q.effectiveOptions()),
              fingerprintQuery(budgeted.placement,
                               budgeted.effectiveOptions()));
}

TEST(PlanningService, HeteroQueriesServedAndVerifiedCommAware)
{
    std::string dir;
    ASSERT_TRUE(makeTempDir("tessel-svc-hetero-", &dir));
    const HeteroShape hs = makeHeteroShapeByName("V", 4);
    PlanQuery q;
    q.label = "V/hetero";
    q.placement = hs.placement;
    q.options.totalBudgetSec = 5.0;
    q.options.edgeMB = hs.edgeMB;
    q.cluster = std::make_shared<ClusterModel>(hs.cluster);

    PlanningService service(optionsFor(dir));
    QueryReport cold;
    const TesselResult result = service.runOne(q, &cold);
    ASSERT_TRUE(result.found);
    EXPECT_TRUE(result.commAware);

    // Disk answer re-verifies against the comm-expanded placement.
    PlanningService fresh(optionsFor(dir));
    QueryReport warm;
    const TesselResult cached = fresh.runOne(q, &warm);
    EXPECT_STREQ(warm.source, "disk");
    EXPECT_EQ(warm.planHash, cold.planHash);
    EXPECT_TRUE(cached.plan == result.plan);
    EXPECT_EQ(fresh.cache().stats().verifyFailures, 0u);
}

// -------------------------------------------------------- ServiceLoop

ServiceLoopOptions
loopOptionsFor(const std::string &dir, int workers = 2)
{
    ServiceLoopOptions opts;
    opts.service = optionsFor(dir);
    opts.workers = workers;
    return opts;
}

/** A reference query by coordinates (label stays batch-identical). */
PlanQuery
refQuery(const std::string &shape, const std::string &variant = "homogeneous")
{
    // No deadline, like smallBatch(): cache hits never hinge on speed.
    auto q = referenceShapeQuery(shape, variant, 4, /*budget_sec=*/0.0);
    EXPECT_TRUE(q.has_value()) << shape << "/" << variant;
    return *q;
}

TEST(PlanningService, CancelledSearchReportsDigestOfReturnedPlan)
{
    std::string dir;
    ASSERT_TRUE(makeTempDir("tessel-svc-cancelled-", &dir));
    CancelSource cancel;
    cancel.cancel();
    ServiceOptions opts = optionsFor(dir);
    opts.cancel = cancel.token();
    PlanningService service(opts);

    // The truncated answer is never admitted, so no resident digest
    // exists; the report must still hash the plan actually returned.
    QueryReport report;
    const TesselResult result = service.runOne(refQuery("V"), &report);
    EXPECT_STREQ(report.source, "search");
    EXPECT_EQ(report.planHash, resultPlanDigest(result).hex());
    EXPECT_EQ(report.found, result.found);
    EXPECT_EQ(report.period, result.period);
    EXPECT_EQ(service.cache().stats().stores, 0u);
    EXPECT_TRUE(service.cache().store().list().empty());
}

TEST(PlanningService, BatchOpensOneQuerySpanPerUniqueInstance)
{
    std::string dir;
    ASSERT_TRUE(makeTempDir("tessel-svc-spans-", &dir));
    PlanningService service(optionsFor(dir));
    const std::vector<PlanQuery> batch = {refQuery("V"), refQuery("M"),
                                          refQuery("V")};

    TraceRecorder &rec = TraceRecorder::instance();
    const uint64_t start = rec.nowMicros();
    rec.setEnabled(true);
    service.runBatch(batch); // two searches
    service.runBatch(batch); // two memory hits
    rec.setEnabled(false);

    std::vector<SpanRecord> queries, sweeps;
    for (const SpanRecord &span : rec.collect()) {
        if (span.tsMicros < start)
            continue;
        if (std::strcmp(span.name, "query") == 0)
            queries.push_back(span);
        else if (std::strcmp(span.name, "repetend-sweep") == 0)
            sweeps.push_back(span);
    }
    // One root per unique instance and batch; a miss's lookup span is
    // dropped in favor of its search's.
    EXPECT_EQ(queries.size(), 4u);
    ASSERT_EQ(sweeps.size(), 2u);
    for (const SpanRecord &sweep : sweeps) {
        const bool nested = std::any_of(
            queries.begin(), queries.end(), [&](const SpanRecord &q) {
                return q.tid == sweep.tid && q.tsMicros <= sweep.tsMicros &&
                       sweep.tsMicros + sweep.durMicros <=
                           q.tsMicros + q.durMicros;
            });
        EXPECT_TRUE(nested) << "repetend-sweep outside any query span";
    }
}

/** Samples in `service.answer_ms{source=@p source}` so far. */
uint64_t
answerSamples(const std::string &source)
{
    for (const MetricSample &s :
         MetricsRegistry::instance().snapshot().samples)
        if (s.name == "service.answer_ms" && s.labelValue == source)
            return s.count;
    return 0;
}

TEST(PlanningService, BatchRecordsOneAnswerSamplePerUniqueInstance)
{
    std::string dir;
    ASSERT_TRUE(makeTempDir("tessel-svc-answer-ms-", &dir));
    const bool was_enabled = MetricsRegistry::enabled();
    MetricsRegistry::setEnabled(true);
    PlanningService service(optionsFor(dir));
    PlanQuery copy = refQuery("V");
    copy.label = "V/copy";
    const std::vector<PlanQuery> batch = {refQuery("V"), copy,
                                          refQuery("K")};

    // Two unique instances per batch: two searches, then two memory
    // hits; the renamed copy shares its instance's sample.
    const uint64_t search = answerSamples("search");
    const uint64_t memory = answerSamples("memory");
    service.runBatch(batch);
    EXPECT_EQ(answerSamples("search") - search, 2u);
    EXPECT_EQ(answerSamples("memory") - memory, 0u);
    service.runBatch(batch);
    EXPECT_EQ(answerSamples("search") - search, 2u);
    EXPECT_EQ(answerSamples("memory") - memory, 2u);
    MetricsRegistry::setEnabled(was_enabled);
}

/** The answer fields every front-end must agree on. */
std::string
answerKey(const QueryReport &r)
{
    return std::string(r.source) + " " + r.planHash + " " +
           (r.found ? "found" : "none") + " " + std::to_string(r.period);
}

/** Answer @p queries through one front-end; one report per query. */
using FrontEnd = std::function<std::vector<QueryReport>(
    const std::vector<PlanQuery> &)>;

FrontEnd
viaRunOne(PlanningService &service)
{
    return [&service](const std::vector<PlanQuery> &queries) {
        std::vector<QueryReport> reports;
        for (const PlanQuery &q : queries) {
            QueryReport report;
            const TesselResult result = service.runOne(q, &report);
            EXPECT_EQ(report.planHash, resultPlanDigest(result).hex())
                << q.label;
            reports.push_back(report);
        }
        return reports;
    };
}

FrontEnd
viaRunBatch(PlanningService &service)
{
    return [&service](const std::vector<PlanQuery> &queries) {
        return service.runBatch(queries).queries;
    };
}

FrontEnd
viaLoop(ServiceLoop &loop)
{
    return [&loop](const std::vector<PlanQuery> &queries) {
        std::vector<QueryReport> reports(queries.size());
        std::mutex mu;
        for (size_t i = 0; i < queries.size(); ++i)
            loop.submit(queries[i], "t",
                        [&reports, &mu, i](const ServiceLoop::Response &resp) {
                            std::lock_guard<std::mutex> lock(mu);
                            reports[i] = resp.report;
                        });
        loop.drain();
        return reports;
    };
}

TEST(PlanningService, FrontEndsReportIdenticalAnswersFromEveryTier)
{
    // Each front-end gets its own store and answers the same queries
    // three times: a cold search, memory hits in the same process, and
    // verified disk hits in a fresh one. Source, plan hash, found and
    // period must agree across runOne, runBatch and the ServiceLoop.
    const std::vector<PlanQuery> queries = {refQuery("V"), refQuery("M")};
    std::vector<std::vector<QueryReport>> answers[3];

    for (int front = 0; front < 3; ++front) {
        std::string dir;
        ASSERT_TRUE(makeTempDir("tessel-svc-front-", &dir));
        for (int process = 0; process < 2; ++process) {
            ServiceLoop loop(loopOptionsFor(dir));
            PlanningService &service = loop.service();
            const FrontEnd serve = front == 0   ? viaRunOne(service)
                                   : front == 1 ? viaRunBatch(service)
                                                : viaLoop(loop);
            answers[front].push_back(serve(queries));
            if (process == 1)
                continue;
            answers[front].push_back(serve(queries));

            // Read-only replays through every front-end share residents
            // and never take a writer lock.
            const uint64_t before =
                service.cache().stats().lockContended;
            viaRunOne(service)(queries);
            viaRunBatch(service)(queries);
            viaLoop(loop)(queries);
            EXPECT_EQ(service.cache().stats().lockContended, before);
        }
    }

    // Hits report the plan the search returned, whichever tier serves.
    const char *sources[] = {"search", "memory", "disk"};
    for (size_t pass = 0; pass < 3; ++pass) {
        for (size_t i = 0; i < queries.size(); ++i) {
            const std::string key = answerKey(answers[0][pass][i]);
            const std::string source = std::string(sources[pass]) + " ";
            ASSERT_EQ(key.rfind(source, 0), 0u) << key;
            EXPECT_EQ(key.substr(source.size()),
                      answerKey(answers[0][0][i])
                          .substr(std::strlen("search ")));
            EXPECT_EQ(answerKey(answers[1][pass][i]), key)
                << queries[i].label;
            EXPECT_EQ(answerKey(answers[2][pass][i]), key)
                << queries[i].label;
        }
    }

    // Only the search pass spent effort; a hit reports none, even in
    // the process whose search left its counts in the resident.
    for (const auto &front : answers) {
        for (size_t pass = 0; pass < 3; ++pass) {
            for (const QueryReport &r : front[pass]) {
                if (pass == 0) {
                    EXPECT_GT(r.valueSweeps, 0u) << r.label;
                    EXPECT_GT(r.solverNodes, 0u) << r.label;
                } else {
                    EXPECT_EQ(r.valueSweeps, 0u) << r.source << r.label;
                    EXPECT_EQ(r.policyImprovements, 0u)
                        << r.source << r.label;
                    EXPECT_EQ(r.solverNodes, 0u) << r.source << r.label;
                    EXPECT_EQ(r.sweepMs, 0.0) << r.source << r.label;
                    EXPECT_EQ(r.warmupMs, 0.0) << r.source << r.label;
                    EXPECT_EQ(r.cooldownMs, 0.0) << r.source << r.label;
                    EXPECT_EQ(r.phaseCapHits, 0u) << r.source << r.label;
                }
            }
        }
    }

    // A deduplicated batch: renamed copies share the unique instance's
    // answer, identical to what runOne reports for it.
    std::string dir;
    ASSERT_TRUE(makeTempDir("tessel-svc-front-dedup-", &dir));
    PlanningService service(optionsFor(dir));
    PlanQuery copy = queries[0];
    copy.label = "copy";
    std::vector<std::string> batch, one;
    for (const QueryReport &r : viaRunBatch(service)(
             {queries[0], copy, queries[1], queries[0]}))
        batch.push_back(answerKey(r));
    for (const QueryReport &r : viaRunOne(service)(queries))
        one.push_back(answerKey(r));
    EXPECT_EQ(batch[0], answerKey(answers[0][0][0]));
    EXPECT_EQ(batch[1], batch[0]);
    EXPECT_EQ(batch[3], batch[0]);
    EXPECT_EQ(batch[2], answerKey(answers[0][0][1]));
    EXPECT_EQ(one[0], answerKey(answers[0][1][0]));
    EXPECT_EQ(one[1], answerKey(answers[0][1][1]));
}

TEST(ServiceLoop, StreamAnsweredWhileOneWorkerBusy)
{
    std::string dir;
    ASSERT_TRUE(makeTempDir("tessel-loop-stream-", &dir));

    ServiceLoop loop(loopOptionsFor(dir, /*workers=*/2));

    // Warm the cache so the streamed queries below are hot.
    std::vector<std::string> shapes = {"V", "X", "M"};
    std::atomic<size_t> warm{0};
    for (const std::string &s : shapes)
        loop.submit(refQuery(s), "warmup",
                    [&warm](const ServiceLoop::Response &) { ++warm; });
    loop.drain();
    ASSERT_EQ(warm.load(), shapes.size());

    // Occupy one worker: a query whose callback blocks until released.
    // The other worker must keep draining the stream meanwhile — a
    // long-running (cold) search never stalls hot traffic.
    std::promise<void> release;
    std::shared_future<void> released = release.get_future().share();
    std::promise<void> entered;
    loop.submit(refQuery("NN"), "cold",
                [&entered, released](const ServiceLoop::Response &) {
                    entered.set_value();
                    released.wait();
                });
    entered.get_future().wait();

    std::atomic<size_t> answered{0};
    std::atomic<size_t> hits{0};
    for (const std::string &s : shapes)
        loop.submit(refQuery(s), "hot",
                    [&](const ServiceLoop::Response &resp) {
                        hits += resp.report.source == std::string("memory")
                                    ? 1
                                    : 0;
                        EXPECT_TRUE(resp.report.found);
                        ++answered;
                    });
    // Wait for the hot stream with the blocker still parked.
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(30);
    while (answered.load() < shapes.size() &&
           std::chrono::steady_clock::now() < deadline)
        std::this_thread::yield();
    EXPECT_EQ(answered.load(), shapes.size())
        << "hot queries stalled behind a busy worker";
    EXPECT_EQ(hits.load(), shapes.size());

    release.set_value();
    loop.drain();
    const LoopStats stats = loop.stats();
    EXPECT_EQ(stats.completed, 2 * shapes.size() + 1);
    EXPECT_EQ(stats.accepted, stats.submitted);
}

TEST(ServiceLoop, QueueFullRejectsWithCleanError)
{
    std::string dir;
    ASSERT_TRUE(makeTempDir("tessel-loop-full-", &dir));

    ServiceLoopOptions opts = loopOptionsFor(dir, /*workers=*/1);
    opts.queueDepth = 1;
    ServiceLoop loop(std::move(opts));

    // Park the single worker inside a callback, then fill the queue.
    std::promise<void> release;
    std::shared_future<void> released = release.get_future().share();
    std::promise<void> entered;
    loop.submit(refQuery("V"), "a",
                [&entered, released](const ServiceLoop::Response &) {
                    entered.set_value();
                    released.wait();
                });
    entered.get_future().wait();

    std::atomic<size_t> queued_answers{0};
    EXPECT_EQ(loop.submit(refQuery("X"), "a",
                          [&queued_answers](const ServiceLoop::Response &r) {
                              EXPECT_EQ(r.admission, Admission::Accepted);
                              ++queued_answers;
                          }),
              Admission::Accepted);

    // Queue is now at capacity: the next submission must be rejected
    // synchronously with a typed verdict and a per-query error — never
    // silently dropped, never a crash.
    bool rejected_cb = false;
    const Admission verdict = loop.submit(
        refQuery("M"), "a",
        [&rejected_cb](const ServiceLoop::Response &resp) {
            rejected_cb = true;
            EXPECT_EQ(resp.admission, Admission::QueueFull);
            EXPECT_STREQ(resp.report.source, "rejected");
            EXPECT_NE(resp.error.find("queue-full"), std::string::npos)
                << resp.error;
        });
    EXPECT_EQ(verdict, Admission::QueueFull);
    EXPECT_TRUE(rejected_cb) << "rejection callback must fire inline";

    // V is resident (the parked worker searched it before entering its
    // callback). A resident hit never queues, so the full queue does not
    // reject it: it is accepted and answered before submit returns.
    bool resident_cb = false;
    EXPECT_EQ(loop.submit(refQuery("V"), "a",
                          [&resident_cb](const ServiceLoop::Response &r) {
                              resident_cb = true;
                              EXPECT_EQ(r.admission, Admission::Accepted);
                              EXPECT_STREQ(r.report.source, "memory");
                              EXPECT_TRUE(r.report.found);
                          }),
              Admission::Accepted);
    EXPECT_TRUE(resident_cb);

    release.set_value();
    loop.drain();
    EXPECT_EQ(queued_answers.load(), 1u);
    const LoopStats stats = loop.stats();
    EXPECT_EQ(stats.rejectedQueueFull, 1u);
    EXPECT_EQ(stats.completed, 3u);
    EXPECT_EQ(stats.answeredInline, 1u);
    EXPECT_EQ(stats.queueHighWater, 1u);
}

TEST(ServiceLoop, TenantBudgetsThrottlePerTenant)
{
    std::string dir;
    ASSERT_TRUE(makeTempDir("tessel-loop-tenant-", &dir));

    ServiceLoopOptions opts = loopOptionsFor(dir, /*workers=*/1);
    // Metered default: one token, refilled too slowly to matter within
    // the test. "vip" overrides to unlimited.
    opts.defaultBudget.ratePerSec = 1e-6;
    opts.defaultBudget.burst = 1.0;
    opts.tenantBudgets["vip"] = TenantBudget{0.0, 1.0};
    ServiceLoop loop(std::move(opts));

    EXPECT_EQ(loop.submit(refQuery("V"), "metered", nullptr),
              Admission::Accepted);
    bool throttled_cb = false;
    EXPECT_EQ(loop.submit(refQuery("X"), "metered",
                          [&throttled_cb](const ServiceLoop::Response &r) {
                              throttled_cb = true;
                              EXPECT_EQ(r.admission, Admission::Throttled);
                              EXPECT_NE(r.error.find("metered"),
                                        std::string::npos);
                          }),
              Admission::Throttled);
    EXPECT_TRUE(throttled_cb);

    // Budgets are per tenant: another tenant's bucket is untouched, and
    // the unlimited override never throttles.
    EXPECT_EQ(loop.submit(refQuery("X"), "other", nullptr),
              Admission::Accepted);
    for (int i = 0; i < 4; ++i)
        EXPECT_EQ(loop.submit(refQuery("M"), "vip", nullptr),
                  Admission::Accepted);

    loop.drain();
    LoopStats stats = loop.stats();
    EXPECT_EQ(stats.rejectedThrottled, 1u);
    EXPECT_EQ(stats.accepted, 6u);

    // A resident plan answers without queueing, but not without a
    // token: V is resident now and "metered" is still dry.
    const uint64_t inline_before = stats.answeredInline;
    bool resident_cb = false;
    EXPECT_EQ(loop.submit(refQuery("V"), "metered",
                          [&resident_cb](const ServiceLoop::Response &r) {
                              resident_cb = true;
                              EXPECT_EQ(r.admission, Admission::Throttled);
                              EXPECT_STREQ(r.report.source, "rejected");
                              EXPECT_TRUE(r.report.planHash.empty());
                              EXPECT_NE(r.error.find("tenant 'metered' "
                                                     "over budget"),
                                        std::string::npos)
                                  << r.error;
                          }),
              Admission::Throttled);
    EXPECT_TRUE(resident_cb);
    stats = loop.stats();
    EXPECT_EQ(stats.rejectedThrottled, 2u);
    EXPECT_EQ(stats.throttledByTenant.at("metered"), 2u);
    EXPECT_EQ(stats.accepted, 6u);
    EXPECT_EQ(stats.answeredInline, inline_before);
}

TEST(ServiceLoop, TokenBucketSurvivesClockSteppingBackwards)
{
    std::string dir;
    ASSERT_TRUE(makeTempDir("tessel-loop-clock-", &dir));

    // Virtual clock the test steps by hand (only the submitting thread
    // reads it, always under the loop's admission lock).
    auto now = std::make_shared<std::chrono::steady_clock::time_point>(
        std::chrono::steady_clock::time_point{} +
        std::chrono::hours(1000));
    ServiceLoopOptions opts = loopOptionsFor(dir, /*workers=*/1);
    opts.defaultBudget.ratePerSec = 1.0;
    opts.defaultBudget.burst = 2.0;
    opts.clock = [now] { return *now; };
    ServiceLoop loop(std::move(opts));

    // Drain the burst; the bucket is now empty.
    EXPECT_EQ(loop.submit(refQuery("V"), "t", nullptr),
              Admission::Accepted);
    EXPECT_EQ(loop.submit(refQuery("X"), "t", nullptr),
              Admission::Accepted);
    EXPECT_EQ(loop.submit(refQuery("M"), "t", nullptr),
              Admission::Throttled);

    // steady_clock stepping backwards (observed across suspend/resume
    // and on virtualized clocks). The refill must saturate at zero —
    // the old code *drained* 10 s worth of tokens, locking the tenant
    // out until real time caught up with the phantom debt.
    *now -= std::chrono::seconds(10);
    EXPECT_EQ(loop.submit(refQuery("NN"), "t", nullptr),
              Admission::Throttled);

    // One second of forward progress from the new anchor refills one
    // token: the tenant is admitted again immediately, debt-free.
    *now += std::chrono::seconds(1);
    EXPECT_EQ(loop.submit(refQuery("K"), "t", nullptr),
              Admission::Accepted);

    loop.drain();
    const LoopStats stats = loop.stats();
    EXPECT_EQ(stats.accepted, 3u);
    EXPECT_EQ(stats.rejectedThrottled, 2u);
}

TEST(ServiceLoop, ShutdownDrainsAndCancelFlagsWithoutCaching)
{
    std::string dir;
    ASSERT_TRUE(makeTempDir("tessel-loop-shutdown-", &dir));

    // Graceful: everything submitted before shutdown still answers.
    {
        ServiceLoop loop(loopOptionsFor(dir, /*workers=*/1));
        std::atomic<size_t> answered{0};
        for (const std::string s : {"V", "X", "M"})
            loop.submit(refQuery(s), "t",
                        [&answered](const ServiceLoop::Response &resp) {
                            EXPECT_TRUE(resp.report.found);
                            EXPECT_FALSE(resp.cancelled);
                            ++answered;
                        });
        loop.shutdown(/*cancel_in_flight=*/false);
        EXPECT_EQ(answered.load(), 3u);
        EXPECT_FALSE(loop.accepting());
        // V is resident (the lookup counts a memory hit), yet a stopped
        // loop answers nothing.
        const uint64_t hits_before =
            loop.service().cache().stats().memoryHits;
        bool rejected_cb = false;
        EXPECT_EQ(loop.submit(refQuery("V"), "t",
                              [&rejected_cb](const ServiceLoop::Response &r) {
                                  rejected_cb = true;
                                  EXPECT_EQ(r.admission,
                                            Admission::ShuttingDown);
                                  EXPECT_TRUE(r.report.planHash.empty());
                              }),
                  Admission::ShuttingDown);
        EXPECT_TRUE(rejected_cb);
        EXPECT_EQ(loop.service().cache().stats().memoryHits,
                  hits_before + 1);
        EXPECT_EQ(loop.stats().answeredInline, 0u);
    }

    // Cancelling: park the worker in a callback, queue one more query,
    // shut down with cancellation. The queued query runs against the
    // tripped token, comes back flagged, and is NOT admitted to the
    // cache — cancellation is outside the fingerprint, so a truncated
    // answer must never be served to a later uncancelled query.
    std::string dir2;
    ASSERT_TRUE(makeTempDir("tessel-loop-cancel-", &dir2));
    ServiceLoop loop(loopOptionsFor(dir2, /*workers=*/1));
    std::promise<void> release;
    std::shared_future<void> released = release.get_future().share();
    std::promise<void> entered;
    loop.submit(refQuery("V"), "t",
                [&entered, released](const ServiceLoop::Response &) {
                    entered.set_value();
                    released.wait();
                });
    entered.get_future().wait();

    bool cancelled_flagged = false;
    std::string cancelled_fp;
    loop.submit(refQuery("NN"), "t",
                [&](const ServiceLoop::Response &resp) {
                    cancelled_flagged = resp.cancelled;
                    cancelled_fp = resp.report.fingerprint;
                    EXPECT_NE(resp.error.find("cancelled"),
                              std::string::npos);
                });
    std::thread stopper([&loop] { loop.shutdown(/*cancel_in_flight=*/true); });
    release.set_value();
    stopper.join();
    EXPECT_TRUE(cancelled_flagged);

    // The cancelled answer must not have been cached: a fresh service
    // searches the instance from scratch (and the first, uncancelled
    // query is served from disk as usual).
    ASSERT_FALSE(cancelled_fp.empty());
    PlanningService fresh(optionsFor(dir2));
    QueryReport after;
    fresh.runOne(refQuery("NN"), &after);
    EXPECT_EQ(after.fingerprint, cancelled_fp);
    EXPECT_STREQ(after.source, "search");
    QueryReport hot;
    fresh.runOne(refQuery("V"), &hot);
    EXPECT_STREQ(hot.source, "disk");
}

TEST(ServiceLoop, ReadOnlyHotTraceNeverContends)
{
    std::string dir;
    ASSERT_TRUE(makeTempDir("tessel-loop-rcu-", &dir));

    ServiceLoop loop(loopOptionsFor(dir, /*workers=*/2));
    const std::vector<std::string> shapes = {"V", "X", "M", "NN", "K"};

    // Warm pass: every query misses, so the workers search and admit
    // it (taking the writer lock); afterwards every instance is
    // resident. Nothing was answered inline.
    for (const std::string &s : shapes)
        loop.submit(refQuery(s), "warm", nullptr);
    loop.drain();
    const LoopStats warm = loop.stats();
    EXPECT_GT(warm.workerBusyUs, 0u);
    EXPECT_EQ(warm.answeredInline, 0u);
    EXPECT_EQ(warm.completed, shapes.size());

    // Read-only replay: pure snapshot hits, each answered on this
    // thread before submit returns. The writer mutex is never touched,
    // so the contention counter must not move — this is the regression
    // signal for the lock-free hit path.
    const uint64_t before = loop.service().cache().stats().lockContended;
    const std::thread::id submitter = std::this_thread::get_id();
    size_t memory_hits = 0;
    for (int round = 0; round < 20; ++round) {
        for (const std::string &s : shapes) {
            bool answered = false;
            loop.submit(refQuery(s), "hot",
                        [&](const ServiceLoop::Response &resp) {
                            answered = true;
                            EXPECT_EQ(std::this_thread::get_id(), submitter);
                            memory_hits +=
                                resp.report.source == std::string("memory")
                                    ? 1
                                    : 0;
                        });
            EXPECT_TRUE(answered) << s << " was not answered inline";
        }
    }
    const uint64_t after = loop.service().cache().stats().lockContended;
    EXPECT_EQ(memory_hits, 20 * shapes.size());
    EXPECT_EQ(after - before, 0u);
    const LoopStats hot = loop.stats();
    EXPECT_EQ(hot.answeredInline, 20 * shapes.size());
    EXPECT_EQ(hot.completed, warm.completed + 20 * shapes.size());
    EXPECT_EQ(hot.workerBusyUs, warm.workerBusyUs);
    EXPECT_EQ(hot.queueHighWater, warm.queueHighWater);

    // A miss still reaches a worker.
    PlanQuery miss = refQuery("V");
    miss.options.maxRepetendMicrobatches = 5;
    loop.submit(std::move(miss), "cold", nullptr);
    loop.drain();
    const LoopStats cold = loop.stats();
    EXPECT_GT(cold.workerBusyUs, hot.workerBusyUs);
    EXPECT_EQ(cold.answeredInline, hot.answeredInline);
    EXPECT_EQ(cold.completed, hot.completed + 1);
}

TEST(ServiceLoop, DrainWaitsForRunningInlineCallback)
{
    std::string dir;
    ASSERT_TRUE(makeTempDir("tessel-loop-inline-drain-", &dir));
    ServiceLoop loop(loopOptionsFor(dir, /*workers=*/1));
    loop.submit(refQuery("V"), "t", nullptr);
    loop.drain();

    // A resident hit whose callback blocks: the submitting thread is
    // stuck inside submit(), and the answer is in flight until the
    // callback returns.
    std::promise<void> release;
    std::shared_future<void> released = release.get_future().share();
    std::promise<void> entered;
    std::thread submitter([&] {
        EXPECT_EQ(loop.submit(refQuery("V"), "t",
                              [&entered, released](
                                  const ServiceLoop::Response &resp) {
                                  EXPECT_STREQ(resp.report.source, "memory");
                                  entered.set_value();
                                  released.wait();
                              }),
                  Admission::Accepted);
    });
    entered.get_future().wait();
    EXPECT_EQ(loop.stats().inFlight, 1u);

    std::atomic<bool> drained{false};
    std::thread drainer([&] {
        loop.drain();
        drained = true;
    });
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    EXPECT_FALSE(drained.load()) << "drain() returned mid-callback";
    release.set_value();
    drainer.join();
    submitter.join();
    EXPECT_TRUE(drained.load());
    const LoopStats stats = loop.stats();
    EXPECT_EQ(stats.inFlight, 0u);
    EXPECT_EQ(stats.answeredInline, 1u);
    EXPECT_EQ(stats.completed, 2u);
}

TEST(ServiceLoop, ConcurrentSubmittersMixInlineHitsAndQueuedMisses)
{
    std::string dir;
    ASSERT_TRUE(makeTempDir("tessel-loop-mixed-", &dir));
    ServiceLoop loop(loopOptionsFor(dir, /*workers=*/2));
    const std::vector<std::string> hot = {"V", "X", "M"};
    for (const std::string &s : hot)
        loop.submit(refQuery(s), "warm", nullptr);
    loop.drain();

    // Two client threads, each interleaving resident hits (answered
    // inline on the client thread) with misses (queued for the
    // workers): one miss both clients send, and one of each client's
    // own. Every answer must be found, and equal fingerprints must get
    // equal plans.
    constexpr int kRounds = 6;
    std::mutex mu;
    std::map<std::string, std::set<std::string>> plans;
    size_t answered = 0;
    auto client = [&](int id) {
        for (int round = 0; round < kRounds; ++round) {
            PlanQuery query = refQuery(hot[(round + id) % hot.size()]);
            if (round == 2) {
                query = refQuery("V");
                query.options.maxRepetendMicrobatches = 5;
            } else if (round == 5) {
                query = refQuery("X");
                query.options.maxRepetendMicrobatches = 5 + id;
            }
            loop.submit(std::move(query), "client",
                        [&](const ServiceLoop::Response &resp) {
                            EXPECT_EQ(resp.admission, Admission::Accepted);
                            EXPECT_TRUE(resp.report.found);
                            std::lock_guard<std::mutex> lock(mu);
                            plans[resp.report.fingerprint].insert(
                                resp.report.planHash);
                            ++answered;
                        });
        }
    };
    const LoopStats before = loop.stats();
    std::thread a(client, 0), b(client, 1);
    a.join();
    b.join();
    loop.drain();

    const LoopStats after = loop.stats();
    const uint64_t submitted = 2 * kRounds;
    EXPECT_EQ(answered, submitted);
    EXPECT_EQ(after.submitted - before.submitted, submitted);
    EXPECT_EQ(after.accepted - before.accepted, submitted);
    EXPECT_EQ(after.completed - before.completed, submitted);
    // Four of the twelve queries miss; every hit is inline, and so may
    // be the second copy of the shared miss.
    EXPECT_GE(after.answeredInline - before.answeredInline, 8u);
    EXPECT_LE(after.answeredInline - before.answeredInline, 9u);
    EXPECT_GT(after.workerBusyUs, before.workerBusyUs);
    EXPECT_EQ(after.inFlight, 0u);
    for (const auto &kv : plans)
        EXPECT_EQ(kv.second.size(), 1u) << kv.first;
}

/** The exported counter or gauge @p name{@p labelValue}; -1 if absent. */
int64_t
exported(const std::string &name, const std::string &labelValue = "")
{
    for (const MetricSample &s :
         MetricsRegistry::instance().snapshot().samples) {
        if (s.name != name || s.labelValue != labelValue)
            continue;
        return s.kind == MetricSample::Kind::Gauge
                   ? s.gaugeValue
                   : static_cast<int64_t>(s.counterValue);
    }
    return -1;
}

TEST(ServiceLoop, ExportedLoopSeriesEqualLoopStats)
{
    std::string dir;
    ASSERT_TRUE(makeTempDir("tessel-loop-metrics-", &dir));

    ServiceLoopOptions opts = loopOptionsFor(dir, /*workers=*/1);
    opts.queueDepth = 1;
    // "metered" holds one token, refilled too slowly to matter.
    opts.defaultBudget.ratePerSec = 1e-6;
    opts.defaultBudget.burst = 1.0;
    opts.tenantBudgets["vip"] = TenantBudget{0.0, 1.0};
    ServiceLoop loop(std::move(opts));

    // Park the worker, fill the one-slot queue, then overflow it.
    std::promise<void> release;
    std::shared_future<void> released = release.get_future().share();
    std::promise<void> entered;
    loop.submit(refQuery("V"), "vip",
                [&entered, released](const ServiceLoop::Response &) {
                    entered.set_value();
                    released.wait();
                });
    entered.get_future().wait();
    EXPECT_EQ(loop.submit(refQuery("X"), "metered", nullptr),
              Admission::Accepted);
    EXPECT_EQ(loop.submit(refQuery("M"), "vip", nullptr),
              Admission::QueueFull);
    release.set_value();
    loop.drain();
    // Room in the queue again, but the metered bucket is empty.
    EXPECT_EQ(loop.submit(refQuery("K"), "metered", nullptr),
              Admission::Throttled);
    // V is resident: answered inline.
    EXPECT_EQ(loop.submit(refQuery("V"), "vip", nullptr),
              Admission::Accepted);

    const LoopStats s = loop.stats();
    EXPECT_EQ(s.submitted, 5u);
    EXPECT_EQ(s.rejectedQueueFull, 1u);
    EXPECT_EQ(s.rejectedThrottled, 1u);
    EXPECT_EQ(s.completed, 3u);
    EXPECT_EQ(s.answeredInline, 1u);
    EXPECT_GT(s.workerBusyUs, 0u);
    auto i64 = [](uint64_t v) { return static_cast<int64_t>(v); };
    EXPECT_EQ(exported("loop.submitted"), i64(s.submitted));
    EXPECT_EQ(exported("loop.accepted"), i64(s.accepted));
    EXPECT_EQ(exported("loop.rejected", "queue-full"),
              i64(s.rejectedQueueFull));
    EXPECT_EQ(exported("loop.rejected", "throttled"),
              i64(s.rejectedThrottled));
    EXPECT_EQ(exported("loop.rejected", "shutting-down"),
              i64(s.rejectedShutdown));
    EXPECT_EQ(exported("loop.tenant_throttled", "metered"),
              i64(s.throttledByTenant.at("metered")));
    EXPECT_EQ(exported("loop.tenant_throttled", "vip"), -1);
    EXPECT_EQ(exported("loop.completed"), i64(s.completed));
    EXPECT_EQ(exported("loop.answered_inline"), i64(s.answeredInline));
    EXPECT_EQ(exported("loop.worker_busy_us"), i64(s.workerBusyUs));
    EXPECT_EQ(exported("loop.queue_depth"), i64(s.queueDepth));
    EXPECT_EQ(exported("loop.queue_high_water"), i64(s.queueHighWater));
    EXPECT_EQ(exported("loop.in_flight"), i64(s.inFlight));
}

TEST(PlanningService, ExportedServedCountersEqualServiceStats)
{
    std::string dir;
    ASSERT_TRUE(makeTempDir("tessel-svc-metrics-", &dir));
    ServiceOptions opts = optionsFor(dir);
    opts.replanBudgetSec = 1e-9; // a drift replan always serves stale
    PlanningService service(opts);

    TraceQuery tq;
    tq.shape = "V";
    tq.variant = "hetero";
    std::string err;
    const std::optional<PlanQuery> base = makeTraceQuery(tq, &err);
    ASSERT_TRUE(base.has_value()) << err;
    service.runOne(*base, nullptr);

    TraceQuery drift = tq;
    drift.driftDevice = 1;
    drift.driftSpeed = 2.0;
    const std::optional<ReplanRequest> drifted =
        makeTraceReplan(drift, &err);
    ASSERT_TRUE(drifted.has_value()) << err;
    QueryReport stale;
    service.replan(*drifted, &stale);
    EXPECT_TRUE(stale.stale);

    TraceQuery fail = tq;
    fail.failDevice = 1;
    const std::optional<ReplanRequest> failed = makeTraceReplan(fail, &err);
    ASSERT_TRUE(failed.has_value()) << err;
    QueryReport degraded;
    service.replan(*failed, &degraded);
    EXPECT_TRUE(degraded.degraded);
    service.waitBackgroundReplans();

    const ServiceStats s = service.stats();
    EXPECT_EQ(s.staleServed, 1u);
    EXPECT_EQ(s.degradedServed, 1u);
    EXPECT_EQ(exported("service.stale_served"),
              static_cast<int64_t>(s.staleServed));
    EXPECT_EQ(exported("service.degraded_served"),
              static_cast<int64_t>(s.degradedServed));
}

TEST(TraceCodec, ResponseLineEscapesControlBytesInId)
{
    ServiceLoop::Response resp;
    resp.report.source = "error";
    resp.error = "parse error: missing/unknown \"shape\"";
    const std::string line =
        formatResponseLine(std::string("a\nb\x01") + "c", resp);
    for (const char c : line)
        EXPECT_GE(static_cast<unsigned char>(c), 0x20) << line;
    EXPECT_NE(line.find("\"id\": \"a\\nb\\u0001c\""), std::string::npos)
        << line;
}

TEST(TraceCodec, ResponseLineReportsSearchCostAfterEffortCounters)
{
    ServiceLoop::Response resp;
    resp.report.fingerprint = "f00d";
    resp.report.planHash = "beef";
    resp.report.found = true;
    resp.report.period = 9;
    resp.report.wallSec = 0.125;
    resp.report.seededFrom = "cafe";
    resp.report.seedMakespan = 40;
    resp.report.seedNodesPruned = 3;
    resp.report.valueSweeps = 11;
    resp.report.policyImprovements = 7;
    resp.report.solverNodes = 12345;
    resp.report.sweepMs = 1.5;
    resp.report.warmupMs = 20;
    resp.report.cooldownMs = 0.25;
    resp.report.phaseCapHits = 2;
    resp.report.deadlineHit = true;
    // One field order for batch rows and response lines: the search
    // cost follows the effort counters, so greps anchored on the
    // leading keys ("fingerprint": ..., "plan_hash": ...) still match.
    const std::string fields = formatReportFields(resp.report);
    EXPECT_EQ(fields,
              "\"fingerprint\": \"f00d\", \"plan_hash\": \"beef\", "
              "\"source\": \"search\", \"found\": true, \"period\": 9, "
              "\"wall_sec\": 0.125, \"seeded_from\": \"cafe\", "
              "\"seed_makespan\": 40, \"seed_nodes_pruned\": 3, "
              "\"value_sweeps\": 11, \"policy_improvements\": 7, "
              "\"solver_nodes\": 12345, \"sweep_ms\": 1.5, "
              "\"warmup_ms\": 20, \"cooldown_ms\": 0.25, "
              "\"phase_cap_hits\": 2, \"deadline_hit\": true");
    EXPECT_EQ(formatResponseLine("q", resp),
              "{\"id\": \"q\", \"admission\": \"accepted\", "
              "\"label\": \"\", " +
                  fields + "}");
}

TEST(TraceCodec, ParsesEveryJsonStringEscape)
{
    TraceQuery q;
    std::string err;
    // Python's json.dumps writes non-ASCII as \u escapes by default.
    ASSERT_TRUE(parseTraceLine(R"({"id": "caf\u00e9", "shape": "V"})", &q,
                               &err))
        << err;
    EXPECT_EQ(q.id, "caf\xc3\xa9");
    // A surrogate pair is one code point: U+1F600, four UTF-8 bytes.
    ASSERT_TRUE(parseTraceLine(R"({"id": "\ud83d\ude00", "shape": "V"})",
                               &q, &err))
        << err;
    EXPECT_EQ(q.id, "\xf0\x9f\x98\x80");
    ASSERT_TRUE(parseTraceLine(R"({"id": "a\bb\fc\/\u20AC", "shape": "V"})",
                               &q, &err))
        << err;
    EXPECT_EQ(q.id, "a\bb\fc/\xe2\x82\xac");

    for (const char *bad : {
             R"({"id": "\ud83d", "shape": "V"})",       // lone high
             R"({"id": "\ud83dx", "shape": "V"})",      // lone high
             R"({"id": "\ud83d\u0041", "shape": "V"})", // high + non-low
             R"({"id": "\ude00", "shape": "V"})",       // lone low
             R"({"id": "\u00g9", "shape": "V"})",       // not hex
             R"({"id": "\u00)",                         // truncated
             R"({"id": "\x41", "shape": "V"})",         // not JSON
         })
        EXPECT_FALSE(parseTraceLine(bad, &q, &err)) << bad;
}

TEST(TraceCodec, RejectsMalformedNumbers)
{
    TraceQuery q;
    std::string err;
    for (const char *bad :
         {"4-2", "1e", "+4", "04", "-", ".5", "5.", "1e+", "--4", "1.2.3",
          "1e999"}) {
        for (const char *key : {"devices", "budget_sec"}) {
            const std::string line = std::string("{\"shape\": \"V\", \"") +
                                     key + "\": " + bad + "}";
            EXPECT_FALSE(parseTraceLine(line, &q, &err)) << line;
            EXPECT_NE(err.find("bad number"), std::string::npos)
                << line << ": " << err;
        }
    }

    ASSERT_TRUE(parseTraceLine(
        R"({"shape": "V", "devices": 4, "budget_sec": -0.25E+1})", &q, &err))
        << err;
    EXPECT_EQ(q.devices, 4);
    EXPECT_EQ(q.budgetSec, -2.5);
    ASSERT_TRUE(parseTraceLine(
        R"({"shape": "V", "devices": 0, "budget_sec": 2.5e0})", &q, &err))
        << err;
    EXPECT_EQ(q.devices, 0);
    EXPECT_EQ(q.budgetSec, 2.5);
}

TEST(TraceCodec, IntegerKeysRangeCheckedAndNumbersReformatExactly)
{
    TraceQuery q;
    std::string err;
    for (const char *bad : {"2147483648", "1e10", "-1e300"}) {
        const std::string line =
            std::string(R"({"shape": "V", "devices": )") + bad + "}";
        EXPECT_FALSE(parseTraceLine(line, &q, &err)) << line;
        EXPECT_NE(err.find("out of range"), std::string::npos) << err;
    }
    ASSERT_TRUE(parseTraceLine(
        R"({"shape": "V", "devices": 2147483647, "mem_limit": 1e18})", &q,
        &err))
        << err;
    EXPECT_EQ(q.devices, 2147483647);
    EXPECT_EQ(q.memLimit, 1'000'000'000'000'000'000LL);

    // More digits than six must survive a format/parse round trip.
    ASSERT_TRUE(parseTraceLine(
        R"({"shape": "V", "budget_sec": 123456789.5, "drift_device": 0,)"
        R"( "drift_speed": 0.1})",
        &q, &err))
        << err;
    const std::string once = formatTraceLine(q);
    EXPECT_NE(once.find(R"("budget_sec": 123456789.5)"), std::string::npos)
        << once;
    EXPECT_NE(once.find(R"("drift_speed": 0.1)"), std::string::npos) << once;
    TraceQuery back;
    ASSERT_TRUE(parseTraceLine(once, &back, &err)) << err;
    EXPECT_EQ(back.budgetSec, q.budgetSec);
    EXPECT_EQ(formatTraceLine(back), once);

    // A huge device count is refused before any shape is built.
    q.devices = kMaxTraceDevices + 2;
    EXPECT_FALSE(makeTraceQuery(q, &err).has_value());
    EXPECT_NE(err.find("trace limit"), std::string::npos) << err;
    q.devices = kMaxTraceDevices;
    EXPECT_TRUE(makeTraceReplan(q, &err).has_value()) << err;
}

TEST(TraceCodec, NrCapAboveTheTraceLimitIsRefused)
{
    // Only the queries are built; no search runs.
    TraceQuery q;
    std::string err;
    ASSERT_TRUE(parseTraceLine(R"({"shape": "NN", "nr_cap": 16})", &q, &err))
        << err;
    ASSERT_EQ(q.nrCap, kMaxTraceNrCap);
    const std::optional<PlanQuery> at_cap = makeTraceQuery(q, &err);
    ASSERT_TRUE(at_cap.has_value()) << err;
    EXPECT_EQ(at_cap->options.maxRepetendMicrobatches, kMaxTraceNrCap);

    q.nrCap = kMaxTraceNrCap + 1;
    EXPECT_FALSE(makeTraceQuery(q, &err).has_value());
    EXPECT_NE(err.find("nr_cap 17 above the trace limit 16"),
              std::string::npos)
        << err;
    // A replan line builds its base query through the same check.
    q.driftDevice = 1;
    q.driftSpeed = 2.0;
    EXPECT_FALSE(makeTraceReplan(q, &err).has_value());
    EXPECT_NE(err.find("trace limit"), std::string::npos) << err;
}

TEST(TraceCodec, TraceLineRoundTripsIdsWithControlBytes)
{
    // jsonEscape writes control bytes as \u00XX and passes UTF-8
    // through; the parser must read back exactly what it wrote.
    TraceQuery q;
    q.id = std::string("a\nb\x01\x1f\"\\c\b\f\t\r") + std::string(1, '\0') +
           "caf\xc3\xa9";
    q.shape = "V";
    q.variant = "hetero";
    q.devices = 4;
    q.budgetSec = 2.5;
    q.tenant = "team\x02";
    const std::string line = formatTraceLine(q);
    EXPECT_EQ(line.find('\n'), std::string::npos) << line;

    TraceQuery back;
    std::string err;
    ASSERT_TRUE(parseTraceLine(line, &back, &err)) << err << ": " << line;
    EXPECT_EQ(back.id, q.id);
    EXPECT_EQ(back.tenant, q.tenant);
    EXPECT_EQ(back.shape, q.shape);
    EXPECT_EQ(back.variant, q.variant);
    EXPECT_EQ(back.devices, q.devices);
    EXPECT_EQ(back.budgetSec, q.budgetSec);
    EXPECT_EQ(formatTraceLine(back), line);
}

} // namespace
} // namespace tessel
