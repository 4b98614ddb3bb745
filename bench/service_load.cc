/**
 * @file
 * Planning-daemon load study: sustain a mixed hot/cold query trace
 * through a ServiceLoop and report what a service operator would watch
 * — sustained QPS, p50/p99 answer latency (overall and hot-only), and
 * the trace hit rate — while certifying two invariants the daemon must
 * hold:
 *
 *   1. Bit-identical answers: every daemon-served hot query must carry
 *      the same plan_hash the batch front-end produced for that
 *      instance (the daemon path is runOne over the same pipeline, so
 *      any divergence is a bug, not noise).
 *   2. Lock-free hot path: a read-only replay of the hot trace (every
 *      instance already resident in the memory tier) must leave
 *      StoreStats::lockContended untouched — snapshot reads never take
 *      a lock, so any growth means the RCU read path regressed.
 *
 * The trace mixes deterministically shuffled repeats of the reference
 * batch (hot: answered from the cache) with nr-cap perturbations of the
 * same instances (cold: guaranteed fingerprint misses that exercise the
 * neighbor-seeded search path). Submission is closed-loop with a small
 * number of outstanding queries, so the reported latencies measure the
 * daemon, not an unbounded backlog.
 *
 * Exits nonzero when plans diverge, lockContended grows on the
 * read-only phase, the hit rate falls below the floor, or the hot-only
 * p99 exceeds the ceiling. Env knobs:
 *
 *   TESSEL_LOAD_DEVICES         devices per shape        (default 4)
 *   TESSEL_LOAD_BUDGET_SEC      per-query search budget  (default 5)
 *   TESSEL_LOAD_HOT_REPEATS     hot replays per instance (default 4)
 *   TESSEL_LOAD_MIN_HIT_RATE    trace hit-rate floor     (default 0.7)
 *   TESSEL_LOAD_MAX_P99_MS      hot-only p99 ceiling, ms (default 2000;
 *                               0 disables the gate)
 *   TESSEL_METRICS_MAX_OVERHEAD metrics-on vs metrics-off QPS regression
 *                               ceiling on the read-only hot replay
 *                               (default 0.02; 0 disables the gate)
 *
 * A fourth phase replays the read-only hot trace with the metrics
 * registry's histogram observations switched off and on (40 adjacent
 * off/on pairs of legs, each leg repeating the trace for at least
 * 50 ms; the overhead is one minus the median on/off QPS ratio) and
 * gates the instrumented path within
 * TESSEL_METRICS_MAX_OVERHEAD of the uninstrumented one — the
 * histograms' relaxed atomics must be invisible at daemon scale, and
 * lockContended must stay untouched either way.
 *
 * Usage: bench_service_load [--json BENCH_service_load.json]
 */

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "service/trace.h"
#include "support/io.h"
#include "support/metrics.h"
#include "support/table.h"
#include "support/timer.h"

using namespace tessel;

namespace {

double
envDouble(const char *name, double fallback)
{
    if (const char *s = std::getenv(name)) {
        const double v = std::atof(s);
        if (v >= 0.0)
            return v;
    }
    return fallback;
}

/** Deterministic LCG shuffle (the bench must not depend on rand()). */
void
shuffleTrace(std::vector<TraceQuery> *trace, uint64_t seed)
{
    uint64_t state = seed * 6364136223846793005ull + 1442695040888963407ull;
    for (size_t i = trace->size(); i > 1; --i) {
        state = state * 6364136223846793005ull + 1442695040888963407ull;
        std::swap((*trace)[i - 1], (*trace)[(state >> 33) % i]);
    }
}

struct Sample
{
    double latencyMs = 0.0;
    bool hot = false;
    bool hit = false; // served from memory or disk
};

double
percentile(std::vector<double> sorted, double p)
{
    if (sorted.empty())
        return 0.0;
    std::sort(sorted.begin(), sorted.end());
    const size_t idx = static_cast<size_t>(
        p * static_cast<double>(sorted.size() - 1) + 0.5);
    return sorted[std::min(idx, sorted.size() - 1)];
}

/** Replay @p trace closed-loop (at most @p outstanding in flight). */
struct ReplayResult
{
    std::vector<Sample> samples;
    double wallSec = 0.0;
    size_t planMismatches = 0;
    size_t notFound = 0;
};

ReplayResult
replay(ServiceLoop &loop, const std::vector<TraceQuery> &trace,
       const std::map<std::string, std::string> &batchHashes,
       size_t outstanding)
{
    ReplayResult out;
    out.samples.resize(trace.size());
    std::mutex mu;
    std::condition_variable cv;
    size_t inFlight = 0;

    Stopwatch timer;
    for (size_t i = 0; i < trace.size(); ++i) {
        const TraceQuery &tq = trace[i];
        std::string err;
        std::optional<PlanQuery> query = makeTraceQuery(tq, &err);
        if (!query) {
            std::cerr << "bad trace query: " << err << "\n";
            ++out.notFound;
            continue;
        }
        {
            std::unique_lock<std::mutex> lock(mu);
            cv.wait(lock, [&] { return inFlight < outstanding; });
            ++inFlight;
        }
        const bool hot = tq.nrCap == 0 && tq.memLimit == 0;
        const auto start = std::chrono::steady_clock::now();
        loop.submit(
            std::move(*query), tq.tenant,
            [&, i, hot, start](const ServiceLoop::Response &resp) {
                const double ms =
                    std::chrono::duration<double>(
                        std::chrono::steady_clock::now() - start)
                        .count() *
                    1e3;
                std::lock_guard<std::mutex> lock(mu);
                Sample &s = out.samples[i];
                s.latencyMs = ms;
                s.hot = hot;
                s.hit = resp.report.source == std::string("memory") ||
                        resp.report.source == std::string("disk");
                if (!resp.report.found)
                    ++out.notFound;
                if (hot) {
                    const auto it =
                        batchHashes.find(resp.report.label);
                    if (it == batchHashes.end() ||
                        it->second != resp.report.planHash)
                        ++out.planMismatches;
                }
                --inFlight;
                cv.notify_all();
            });
    }
    loop.drain();
    out.wallSec = timer.seconds();
    return out;
}

std::vector<double>
latencies(const ReplayResult &r, bool hotOnly)
{
    std::vector<double> out;
    for (const Sample &s : r.samples)
        if (!hotOnly || s.hot)
            out.push_back(s.latencyMs);
    return out;
}

} // namespace

int
main(int argc, char **argv)
{
    std::string jsonPath;
    for (int i = 1; i < argc; ++i) {
        if (std::string(argv[i]) == "--json" && i + 1 < argc)
            jsonPath = argv[++i];
    }

    const int devices =
        static_cast<int>(envDouble("TESSEL_LOAD_DEVICES", 4));
    const double budget = envDouble("TESSEL_LOAD_BUDGET_SEC", 5.0);
    const int hotRepeats =
        static_cast<int>(envDouble("TESSEL_LOAD_HOT_REPEATS", 4));
    const double minHitRate = envDouble("TESSEL_LOAD_MIN_HIT_RATE", 0.7);
    const double maxP99Ms = envDouble("TESSEL_LOAD_MAX_P99_MS", 2000.0);

    std::string dir;
    if (!makeTempDir("tessel-service-load-", &dir)) {
        std::cerr << "cannot create temp cache dir\n";
        return 1;
    }

    // Phase 1 — batch populate: the batch front-end answers the
    // reference shapes cold and records the authoritative plan hash per
    // label (the bit-identical baseline the daemon must match).
    const std::vector<PlanQuery> batch =
        referenceShapeQueries(devices, /*include_hetero=*/true, budget);
    std::map<std::string, std::string> batchHashes;
    {
        ServiceOptions opts;
        opts.cacheDir = dir;
        PlanningService populate(opts);
        const BatchReport cold = populate.runBatch(batch);
        for (const QueryReport &q : cold.queries)
            batchHashes[q.label] = q.planHash;
    }

    // Build the mixed trace: every reference coordinate repeated
    // hotRepeats times, one nr-cap perturbation per coordinate (a
    // guaranteed miss that exercises the neighbor-seeded search),
    // deterministically shuffled together.
    static const char *kShapes[] = {"V", "X", "M", "NN", "K"};
    static const char *kVariants[] = {"homogeneous", "mem-capped",
                                      "hetero"};
    std::vector<TraceQuery> mixed;
    for (const char *shape : kShapes) {
        for (const char *variant : kVariants) {
            TraceQuery q;
            q.shape = shape;
            q.variant = variant;
            q.devices = devices;
            q.budgetSec = budget;
            for (int r = 0; r < hotRepeats; ++r)
                mixed.push_back(q);
            q.nrCap = 5; // perturbation: different fingerprint
            mixed.push_back(q);
        }
    }
    shuffleTrace(&mixed, /*seed=*/42);

    // Phase 2 — daemon, mixed trace: a fresh loop over the populated
    // directory. Hot queries resolve disk-then-memory; cold queries
    // search (neighbor-seeded).
    ServiceLoopOptions loopOpts;
    loopOpts.service.cacheDir = dir;
    loopOpts.queueDepth = 32;
    loopOpts.workers = 2;
    ServiceLoop loop(std::move(loopOpts));

    const ReplayResult mixedRun =
        replay(loop, mixed, batchHashes, /*outstanding=*/8);

    // Phase 3 — read-only hot replay: every hot instance is resident in
    // the memory tier now, so this phase is pure snapshot reads and the
    // writer-lock contention counter must not move.
    std::vector<TraceQuery> hotOnly;
    for (const TraceQuery &q : mixed)
        if (q.nrCap == 0 && q.memLimit == 0)
            hotOnly.push_back(q);
    const uint64_t contendedBefore =
        loop.service().cache().stats().lockContended;
    const ReplayResult hotRun =
        replay(loop, hotOnly, batchHashes, /*outstanding=*/8);
    const uint64_t contendedAfter =
        loop.service().cache().stats().lockContended;
    const uint64_t contendedDelta = contendedAfter - contendedBefore;

    // Phase 4 — metrics overhead: the same read-only hot replay with
    // histogram observations off vs on. Resident hits are answered
    // inline, so one pass over the hot trace takes well under a
    // millisecond; a leg repeats the trace until it spans at least
    // kOverheadLegSec, so the timer's resolution does not matter. Load
    // from other processes moves one leg's QPS by tens of percent, so
    // the legs run as kOverheadPairs adjacent off/on pairs (alternating
    // which side runs first) and the overhead is read from the median
    // of the per-pair QPS ratios: the two legs of a pair share the
    // machine's conditions. Instrumentation must not reintroduce
    // contention either: the lock counter is watched across both legs.
    constexpr double kOverheadLegSec = 0.05;
    constexpr int kOverheadPairs = 40;
    const double maxOverhead =
        envDouble("TESSEL_METRICS_MAX_OVERHEAD", 0.02);
    const bool metricsWereOn = MetricsRegistry::enabled();
    auto hotQpsLeg = [&](bool metricsOn) {
        MetricsRegistry::setEnabled(metricsOn);
        size_t answered = 0;
        double wallSec = 0.0;
        while (wallSec < kOverheadLegSec) {
            const ReplayResult run =
                replay(loop, hotOnly, batchHashes, /*outstanding=*/8);
            answered += run.samples.size();
            wallSec += run.wallSec;
        }
        return static_cast<double>(answered) / wallSec;
    };
    const uint64_t contendedBeforeMetrics =
        loop.service().cache().stats().lockContended;
    std::vector<double> offQps, onQps, onOffRatios;
    for (int pair = 0; pair < kOverheadPairs; ++pair) {
        const bool onFirst = pair % 2 == 1;
        const double first = hotQpsLeg(onFirst);
        const double second = hotQpsLeg(!onFirst);
        offQps.push_back(onFirst ? second : first);
        onQps.push_back(onFirst ? first : second);
        onOffRatios.push_back(onQps.back() / offQps.back());
    }
    MetricsRegistry::setEnabled(metricsWereOn);
    const uint64_t contendedMetricsDelta =
        loop.service().cache().stats().lockContended -
        contendedBeforeMetrics;
    const double qpsMetricsOff = percentile(offQps, 0.5);
    const double qpsMetricsOn = percentile(onQps, 0.5);
    const double metricsOverhead = 1.0 - percentile(onOffRatios, 0.5);
    loop.shutdown();

    // Aggregate.
    size_t hits = 0, hotCount = 0, coldCount = 0;
    for (const Sample &s : mixedRun.samples) {
        hits += s.hit ? 1 : 0;
        (s.hot ? hotCount : coldCount) += 1;
    }
    const double hitRate =
        mixedRun.samples.empty()
            ? 0.0
            : static_cast<double>(hits) /
                  static_cast<double>(mixedRun.samples.size());
    const double qps = mixedRun.wallSec > 0.0
                           ? static_cast<double>(mixedRun.samples.size()) /
                                 mixedRun.wallSec
                           : 0.0;
    const double hotQps =
        hotRun.wallSec > 0.0
            ? static_cast<double>(hotRun.samples.size()) / hotRun.wallSec
            : 0.0;
    const std::vector<double> all = latencies(mixedRun, false);
    const std::vector<double> hot = latencies(mixedRun, true);
    const std::vector<double> hotPhase = latencies(hotRun, false);

    Table table("Planning daemon under mixed hot/cold load (" +
                std::to_string(devices) + " devices, " +
                std::to_string(mixed.size()) + " queries)");
    table.setHeader({"phase", "queries", "QPS", "p50 (ms)", "p99 (ms)",
                     "hit rate"});
    table.addRow({"mixed", std::to_string(mixedRun.samples.size()),
                  fmtDouble(qps, 1), fmtDouble(percentile(all, 0.5), 2),
                  fmtDouble(percentile(all, 0.99), 2),
                  fmtPercent(hitRate)});
    table.addRow({"mixed (hot only)", std::to_string(hot.size()), "-",
                  fmtDouble(percentile(hot, 0.5), 2),
                  fmtDouble(percentile(hot, 0.99), 2), "-"});
    table.addRow({"hot read-only", std::to_string(hotPhase.size()),
                  fmtDouble(hotQps, 1),
                  fmtDouble(percentile(hotPhase, 0.5), 2),
                  fmtDouble(percentile(hotPhase, 0.99), 2), "100%"});
    table.addRow({"hot, metrics off", std::to_string(hotOnly.size()),
                  fmtDouble(qpsMetricsOff, 1), "-", "-", "100%"});
    table.addRow({"hot, metrics on", std::to_string(hotOnly.size()),
                  fmtDouble(qpsMetricsOn, 1), "-", "-", "100%"});
    table.print(std::cout);
    std::cout << "lockContended delta over read-only phase: "
              << contendedDelta << "\n"
              << "lockContended delta over metrics legs: "
              << contendedMetricsDelta << "\n"
              << "metrics overhead (QPS regression, on vs off): "
              << fmtPercent(metricsOverhead) << "\n"
              << "plan mismatches vs batch baseline: "
              << mixedRun.planMismatches + hotRun.planMismatches << "\n";

    const double hotP99 = percentile(hotPhase, 0.99);
    bool ok = true;
    auto gate = [&ok](bool pass, const std::string &what) {
        if (!pass) {
            std::cout << "FAIL: " << what << "\n";
            ok = false;
        }
    };
    gate(mixedRun.planMismatches + hotRun.planMismatches == 0,
         "daemon answers must be bit-identical to the batch baseline");
    gate(mixedRun.notFound + hotRun.notFound == 0,
         "every trace query must resolve to a plan");
    gate(contendedDelta == 0,
         "lockContended grew on a read-only hot trace (delta " +
             std::to_string(contendedDelta) + ")");
    gate(hitRate >= minHitRate,
         "trace hit rate " + fmtPercent(hitRate) + " below floor " +
             fmtPercent(minHitRate));
    if (maxP99Ms > 0.0)
        gate(hotP99 <= maxP99Ms,
             "hot read-only p99 " + fmtDouble(hotP99, 2) +
                 " ms above ceiling " + fmtDouble(maxP99Ms, 0) + " ms");
    gate(contendedMetricsDelta == 0,
         "lockContended grew during the metrics-overhead legs (delta " +
             std::to_string(contendedMetricsDelta) + ")");
    if (maxOverhead > 0.0)
        gate(metricsOverhead <= maxOverhead,
             "metrics overhead " + fmtPercent(metricsOverhead) +
                 " above ceiling " + fmtPercent(maxOverhead));

    if (!jsonPath.empty()) {
        std::ofstream out(jsonPath);
        if (!out) {
            std::cerr << "cannot write " << jsonPath << "\n";
            return 1;
        }
        out << "{\n"
            << "  \"queries\": " << mixedRun.samples.size() << ",\n"
            << "  \"hot\": " << hotCount << ",\n"
            << "  \"cold\": " << coldCount << ",\n"
            << "  \"qps\": " << qps << ",\n"
            << "  \"p50_ms\": " << percentile(all, 0.5) << ",\n"
            << "  \"p99_ms\": " << percentile(all, 0.99) << ",\n"
            << "  \"hot_p50_ms\": " << percentile(hot, 0.5) << ",\n"
            << "  \"hot_p99_ms\": " << percentile(hot, 0.99) << ",\n"
            << "  \"readonly_qps\": " << hotQps << ",\n"
            << "  \"readonly_p50_ms\": " << percentile(hotPhase, 0.5)
            << ",\n"
            << "  \"readonly_p99_ms\": " << hotP99 << ",\n"
            << "  \"trace_hit_rate\": " << hitRate << ",\n"
            << "  \"lock_contended_delta\": " << contendedDelta << ",\n"
            << "  \"metrics_off_qps\": " << qpsMetricsOff << ",\n"
            << "  \"metrics_on_qps\": " << qpsMetricsOn << ",\n"
            << "  \"metrics_overhead\": " << metricsOverhead << ",\n"
            << "  \"metrics_lock_contended_delta\": "
            << contendedMetricsDelta << ",\n"
            << "  \"plan_mismatches\": "
            << mixedRun.planMismatches + hotRun.planMismatches << ",\n"
            << "  \"ok\": " << (ok ? "true" : "false") << "\n"
            << "}\n";
    }
    std::cout << (ok ? "service load bench PASSED\n"
                     : "service load bench FAILED\n");
    return ok ? 0 : 1;
}
