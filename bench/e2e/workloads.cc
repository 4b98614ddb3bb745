/**
 * @file
 * The four workloads of the end-to-end planner benchmark. Each runs an
 * untraced pass (end-to-end metrics) and, with --trace 1, a second pass
 * whose spans and isolated layer calls give the per-layer metrics. See
 * README.md in this directory for why each workload exists and what
 * every metric means.
 */

#include <chrono>
#include <cmath>
#include <condition_variable>
#include <iostream>
#include <memory>
#include <mutex>

#include "e2e.h"
#include "placement/comm.h"
#include "placement/shapes.h"
#include "service/loop.h"
#include "store/adapt.h"
#include "store/serialize.h"
#include "store/store.h"
#include "support/metrics.h"

using namespace tessel;

namespace e2e {

namespace {

using Clock = std::chrono::steady_clock;

constexpr size_t kQueries = 15;

/** Set-up takes well under a millisecond to a few milliseconds, so
 * every set-up occasion repeats it this many times and records the
 * median; setup_s is the median over the run's occasions. Occasions
 * differ systematically (the first one in a fresh process is slower),
 * so pooling their samples would put the median between clusters. */
constexpr int kSetupReps = 5;

double
since(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

/** Time one call in microseconds. */
template <typename F>
double
timeUs(F &&f)
{
    const auto t0 = Clock::now();
    f();
    return std::chrono::duration<double, std::micro>(Clock::now() - t0)
        .count();
}

/** One set-up occasion: build a workload's serving state kSetupReps
 * times, record the median build seconds in @p occasions, and keep the
 * last build (earlier ones are torn down outside the timer). */
template <typename Make>
auto
timedSetup(std::vector<double> &occasions, Make make)
{
    decltype(make()) kept{};
    std::vector<double> reps;
    for (int rep = 0; rep < kSetupReps; ++rep) {
        kept = {};
        const auto t0 = Clock::now();
        kept = make();
        reps.push_back(since(t0));
    }
    occasions.push_back(median(reps));
    return kept;
}

/** What a round-based workload collects across its rounds. */
struct Rounds
{
    std::vector<double> setup;     ///< set-up seconds per occasion
    std::vector<double> roundSec;  ///< measured seconds per round
    std::vector<double> makespans; ///< plan_makespan_sum per round
    std::vector<double> answerSec; ///< client latency of every answer
    std::vector<double> roundP99;  ///< p99 answer latency per round
    double stale = 0.0;            ///< stale answers (drift-replan)

    /** Close a round whose answers are the last @p answers samples. */
    void
    endRound(double sec, size_t answers, double makespan)
    {
        roundSec.push_back(sec);
        roundP99.push_back(quantile(
            std::vector<double>(answerSec.end() - answers, answerSec.end()),
            0.99));
        makespans.push_back(makespan);
    }

    /** At least @p minRounds, then only while one more typical round
     * (its set-up occasion plus measured time) still fits in the run. */
    bool
    another(const Config &cfg, Clock::time_point t0, size_t minRounds) const
    {
        if (roundSec.size() < minRounds)
            return true;
        return since(t0) + median(roundSec) + kSetupReps * median(setup) <=
               cfg.seconds;
    }

    /** End-to-end metrics of a workload answering 15 queries a round. */
    void
    report(Outcome &out) const
    {
        out.e2e["setup_s"] = median(setup);
        out.e2e["throughput_qps"] =
            static_cast<double>(kQueries) / median(roundSec);
        out.e2e["latency_p99_ms"] = median(roundP99) * 1e3;
        out.e2e["plan_makespan_sum"] = median(makespans);
        out.layers["service.answer.p50_ms"] = quantile(answerSec, 0.5) * 1e3;
        out.info["rounds"] = static_cast<double>(roundSec.size());
        out.info["latency_samples"] = static_cast<double>(answerSec.size());
        out.info["round_s_q25"] = quantile(roundSec, 0.25);
        out.info["round_s_q75"] = quantile(roundSec, 0.75);
    }
};

/** Search effort behind a set of answers, from the SearchBreakdown and
 * wall time the planner already returns. */
struct Effort
{
    double sweepMs = 0.0;
    double phaseMs = 0.0;
    double candidates = 0.0;
    double valueSweeps = 0.0;
    double satChecks = 0.0;
    double nodes = 0.0;
    double memoReused = 0.0;
    double seedPruned = 0.0;
    double budgetBound = 0.0;
    double criticalMs = 0.0;
    double minAttributed = -1.0;

    void
    add(const TesselResult &r, double wallSec, const TesselOptions &opts)
    {
        const SearchBreakdown &b = r.breakdown;
        sweepMs += b.repetendSeconds * 1e3;
        phaseMs += (b.warmupSeconds + b.cooldownSeconds) * 1e3;
        candidates += static_cast<double>(b.candidatesSolved);
        valueSweeps += static_cast<double>(b.valueSweeps);
        satChecks += static_cast<double>(b.satChecks);
        nodes += static_cast<double>(b.solverNodes);
        memoReused += static_cast<double>(b.memoReused);
        seedPruned += static_cast<double>(b.seededNodesPruned);
        const bool bound =
            b.budgetExhausted || b.warmupSeconds >= opts.phaseBudgetSec ||
            b.cooldownSeconds >= opts.phaseBudgetSec ||
            (opts.totalBudgetSec > 0.0 && wallSec >= opts.totalBudgetSec);
        budgetBound += bound ? 1.0 : 0.0;
        criticalMs = std::max(criticalMs, wallSec * 1e3);
        // Share of a slow answer's wall the search layers account for
        // (meaningful for serial searches, where layer seconds are wall).
        if (wallSec > 0.1) {
            const double share =
                (b.repetendSeconds + b.warmupSeconds + b.cooldownSeconds) /
                wallSec;
            minAttributed =
                minAttributed < 0.0 ? share : std::min(minAttributed, share);
        }
    }

    /** Sums divided by @p rounds: the effort of one round. */
    Effort
    perRound(size_t rounds) const
    {
        Effort e = *this;
        const double n = static_cast<double>(std::max<size_t>(rounds, 1));
        for (double *v : {&e.sweepMs, &e.phaseMs, &e.candidates,
                          &e.valueSweeps, &e.satChecks, &e.nodes,
                          &e.memoReused, &e.seedPruned, &e.budgetBound})
            *v /= n;
        return e;
    }

    void
    report(Outcome &out) const
    {
        out.layers["core.sweep.ms"] = sweepMs;
        out.layers["core.sweep.candidates"] = candidates;
        out.layers["core.sweep.value_sweeps"] = valueSweeps;
        out.layers["core.phase.ms"] = phaseMs;
        out.layers["core.phase.sat_checks"] = satChecks;
        out.layers["core.phase.budget_bound"] = budgetBound;
        out.layers["core.search.nodes"] = nodes;
        out.layers["core.search.memo_reused"] = memoReused;
        out.layers["core.search.seed_nodes_pruned"] = seedPruned;
        out.layers["core.search.critical_ms"] = criticalMs;
    }
};

/** Attach a search answer's layer seconds and counters to its span:
 * args for the trace file, carve-outs for the self-time table. */
void
annotateSearch(Span &span, const TesselResult &r)
{
    const SearchBreakdown &b = r.breakdown;
    span.arg("sweep_ms", b.repetendSeconds * 1e3);
    span.arg("warmup_ms", b.warmupSeconds * 1e3);
    span.arg("cooldown_ms", b.cooldownSeconds * 1e3);
    span.arg("candidates", static_cast<double>(b.candidatesSolved));
    span.arg("value_sweeps", static_cast<double>(b.valueSweeps));
    span.arg("sat_checks", static_cast<double>(b.satChecks));
    span.arg("solver_nodes", static_cast<double>(b.solverNodes));
    span.arg("seed_nodes_pruned", static_cast<double>(b.seededNodesPruned));
    span.carve("core.sweep", b.repetendSeconds * 1e6);
    span.carve("core.phase", (b.warmupSeconds + b.cooldownSeconds) * 1e6);
}

/** Per-call samples of the isolated layer calls a traced pass makes. */
using Probes = std::map<std::string, std::vector<double>>;

double
mean(const std::vector<double> &v)
{
    double s = 0.0;
    for (double x : v)
        s += x;
    return v.empty() ? 0.0 : s / static_cast<double>(v.size());
}

/** Fingerprint and comm lowering of one query as isolated layer calls
 * (the service repeats both internally). */
void
probeLowering(SpanLog *log, uint64_t root, const PlanQuery &q, Probes &probe)
{
    const TesselOptions eff = q.effectiveOptions();
    {
        Span s(log, "store.fingerprint", root);
        probe["fingerprint_us"].push_back(
            timeUs([&] { keep(fingerprintQuery(q.placement, eff)); }));
    }
    if (eff.cluster && !eff.cluster->isTrivial(q.placement.numDevices())) {
        Span s(log, "placement.comm.lower", root);
        CommExpansion exp;
        probe["lower_ms"].push_back(timeUs([&] {
                                        exp = expandWithComm(
                                            q.placement, *eff.cluster,
                                            eff.edgeMB, eff.comm);
                                    }) /
                                    1e3);
        probe["blocks"].push_back(exp.numCommBlocks());
    }
}

/** Open a store as an isolated call (sidecar reads + neighbor-index
 * rebuild; the service does the same in its constructor). */
void
probeOpen(SpanLog *log, uint64_t root, const std::string &dir, Probes &probe)
{
    Span s(log, "store.cache.open", root);
    std::unique_ptr<PlanCache> cache;
    probe["open_ms"].push_back(
        timeUs([&] { cache = std::make_unique<PlanCache>(dir); }) / 1e3);
}

/** Verify an answer, counting the check. */
void
checkVerified(SpanLog *log, uint64_t root, Outcome &out, Probes &probe,
              const PlanQuery &q, const TesselResult &r,
              const std::string &what)
{
    bool ok = false;
    {
        Span s(log, "store.verify", root);
        probe["verify_ms"].push_back(
            timeUs([&] { ok = verified(q, r); }) / 1e3);
    }
    out.check(ok, what + " answer not found or failed verification: " +
                      q.label);
}

/** Layer metrics every search workload reports from its probes. */
void
reportProbes(Outcome &out, Probes &probe)
{
    out.layers["store.fingerprint.us"] = median(probe["fingerprint_us"]);
    out.layers["store.verify.ms"] = median(probe["verify_ms"]);
    if (!probe["lower_ms"].empty()) {
        out.layers["placement.comm.lower_ms"] = median(probe["lower_ms"]);
        out.layers["placement.comm.blocks"] = median(probe["blocks"]);
    }
    if (!probe["open_ms"].empty())
        out.layers["store.cache.open_ms"] = median(probe["open_ms"]);
}

void
finishTrace(const Config &cfg, const SpanLog &log)
{
    log.printTable(std::cout);
    if (!cfg.traceOut.empty()) {
        if (log.writeChromeTrace(cfg.traceOut))
            std::cout << "trace written to " << cfg.traceOut << "\n";
        else
            std::cerr << "cannot write " << cfg.traceOut << "\n";
    }
}

/**
 * The traced pass of a round-based workload: @p pass runs rounds with
 * spans on; report the per-round effort, the shared probes and the
 * tracing overhead against the untraced @p rounds.
 * @return the pass's probes, for the workload's own layer metrics.
 */
template <typename Pass>
Probes
tracedRounds(const Config &cfg, const Rounds &rounds, Outcome &out, Pass pass)
{
    SpanLog log;
    Rounds traced;
    Effort effort;
    Probes probe;
    pass(&log, traced, effort, probe);
    effort.perRound(traced.roundSec.size()).report(out);
    reportProbes(out, probe);
    out.layers["trace.overhead"] =
        median(traced.roundSec) / median(rounds.roundSec) - 1.0;
    finishTrace(cfg, log);
    return probe;
}

struct Serving
{
    std::vector<PlanQuery> queries;
    std::unique_ptr<PlanningService> service;
};

Serving
makeServing(std::vector<PlanQuery> queries, ServiceOptions so)
{
    Serving s;
    s.queries = std::move(queries);
    s.service = std::make_unique<PlanningService>(std::move(so));
    return s;
}

ServiceOptions
serviceOptions(const std::string &dir, int threads)
{
    ServiceOptions so;
    so.cacheDir = dir;
    so.numThreads = threads;
    return so;
}

// ------------------------------------------------------------ cold-plan

/**
 * One cold pass answering the reference queries one at a time with
 * serial searches (numThreads = 1, as pooled batch solves run), so a
 * query's layer seconds are wall time on its own critical path.
 * @return each answer's runOne wall seconds.
 */
std::vector<double>
serialColdPass(const Config &cfg, Rng &rng, SpanLog *log, Outcome &out,
               const std::map<std::string, FixturePlan> &fixture,
               Effort &effort, Probes &probe, double &flips)
{
    const std::string dir = freshDir(cfg, "cold-serial");
    std::vector<double> walls;
    {
        PlanningService service(serviceOptions(dir, 1));
        const std::vector<PlanQuery> queries = referenceQueries(1);
        for (size_t i : rng.permutation(queries.size())) {
            const PlanQuery &q = queries[i];
            const uint64_t root = log ? log->newRoot() : 0;
            Span query(log, "query", root, q.label);
            probeLowering(log, root, q, probe);
            TesselResult r;
            {
                Span s(log, "service.run_one", root, q.label);
                QueryReport rep;
                walls.push_back(
                    timeUs([&] { r = service.runOne(q, &rep); }) / 1e6);
                annotateSearch(s, r);
            }
            effort.add(r, walls.back(), q.options);
            checkVerified(log, root, out, probe, q, r, "cold-plan");
            const Hash128 fp =
                fingerprintQuery(q.placement, q.effectiveOptions());
            {
                Span s(log, "store.serialize", root);
                probe["bytes"].push_back(
                    static_cast<double>(serializeResult(r, fp).size()));
            }
            std::string hash;
            {
                Span s(log, "store.serialize.digest", root);
                probe["digest_us"].push_back(
                    timeUs([&] { hash = resultPlanDigest(r).hex(); }));
            }
            const auto it = fixture.find(q.label);
            if (it != fixture.end() && it->second.planHash != hash)
                flips += 1.0;
        }
    }
    removeDir(dir);
    return walls;
}

} // namespace

Outcome
runColdPlan(const Config &cfg)
{
    Outcome out;
    const int threads = workerThreads();
    const auto fixture = loadFixture(cfg, referenceQueries(threads), out);
    Rng rng(cfg.seed);
    double flips = 0.0;

    if (cfg.trace) {
        Effort untracedEffort, effort;
        Probes untracedProbe, probe;
        const std::vector<double> untraced =
            serialColdPass(cfg, rng, nullptr, out, fixture, untracedEffort,
                           untracedProbe, flips);
        SpanLog log;
        const std::vector<double> traced = serialColdPass(
            cfg, rng, &log, out, fixture, effort, probe, flips);
        effort.report(out);
        out.layers["core.search.attributed_share"] =
            std::max(0.0, effort.minAttributed);
        out.layers["core.phase.plan_flips"] = flips;
        reportProbes(out, probe);
        double bytes = 0.0;
        for (double b : probe["bytes"])
            bytes += b;
        out.layers["store.serialize.bytes"] = bytes;
        out.layers["store.serialize.digest_us"] = median(probe["digest_us"]);
        out.layers["service.answer.p50_ms"] = median(untraced) * 1e3;
        double sumTraced = 0.0, sumUntraced = 0.0;
        for (double s : traced)
            sumTraced += s;
        for (double s : untraced)
            sumUntraced += s;
        out.layers["trace.overhead"] = sumTraced / sumUntraced - 1.0;
        finishTrace(cfg, log);
        return out;
    }

    // The whole batch through runBatch on an empty store, a fresh
    // directory and service per round, submission order shuffled.
    // Each round also takes a second set-up occasion, on an empty store
    // of its own, so set-up is sampled across the run.
    Rounds rounds;
    const std::string setupDir = freshDir(cfg, "cold-setup");
    const auto t0 = Clock::now();
    while (rounds.another(cfg, t0, 2)) {
        const std::string dir = freshDir(cfg, "cold");
        Serving serving = timedSetup(rounds.setup, [&] {
            return makeServing(referenceQueries(threads),
                               serviceOptions(dir, threads));
        });
        std::vector<PlanQuery> ordered;
        for (size_t i : rng.permutation(serving.queries.size()))
            ordered.push_back(serving.queries[i]);
        const auto start = Clock::now();
        const BatchReport report = serving.service->runBatch(ordered);
        const double wall = since(start);
        // A batch caller receives every answer when the batch returns.
        rounds.answerSec.insert(rounds.answerSec.end(), ordered.size(), wall);

        double makespan = 0.0;
        for (size_t i = 0; i < ordered.size(); ++i) {
            const PlanQuery &q = ordered[i];
            const TesselOptions eff = q.effectiveOptions();
            const std::optional<TesselResult> r = serving.service->cache().get(
                fingerprintQuery(q.placement, eff), q.placement, eff);
            out.check(r && verified(q, *r) &&
                          resultPlanDigest(*r).hex() ==
                              report.queries[i].planHash,
                      "cold-plan answer not found or failed verification: " +
                          q.label);
            if (!r)
                continue;
            makespan += planMakespan(*r);
            const auto it = fixture.find(q.label);
            if (it != fixture.end() &&
                it->second.planHash != report.queries[i].planHash)
                flips += 1.0;
        }
        rounds.endRound(wall, ordered.size(), makespan);
        serving = {};
        removeDir(dir);
        timedSetup(rounds.setup, [&] {
            return makeServing(referenceQueries(threads),
                               serviceOptions(setupDir, threads));
        });
    }
    removeDir(setupDir);

    rounds.report(out);
    out.layers["core.phase.plan_flips"] = flips;
    return out;
}

// ------------------------------------------------------------ hot-serve

namespace {

constexpr int kHotWorkers = 2;
constexpr size_t kHotOutstanding = 4;
/** Latency samples are kept in a buffer allocated and touched up
 * front, so peak RSS does not grow with throughput; a replay that
 * fills it stops early. */
constexpr size_t kHotMaxSamples = size_t{1} << 22;
constexpr std::chrono::seconds kHotSegment{1};
/** The untraced replay runs in chunks of about this many seconds with a
 * set-up occasion between chunks, so set-up is sampled across the run. */
constexpr double kHotChunkSec = 3.0;

/** What replays accumulate: per-segment samples and counter deltas. */
struct ReplayStats
{
    double wallSec = 0.0;
    size_t answered = 0;
    /** Per one-second segment. */
    std::vector<double> qps, p50Us, p99Us;
    uint64_t lockContended = 0;
    uint64_t hits = 0;
    uint64_t lookups = 0;
    uint64_t busyUs = 0;
};

uint64_t
workerBusyUs()
{
    for (const MetricSample &s :
         MetricsRegistry::instance().snapshot().samples)
        if (s.name == "loop.worker_busy_us")
            return s.counterValue;
    return 0;
}

/**
 * Closed-loop replay from one client thread: at most kHotOutstanding
 * queries in flight, each a copy of one of the 15 reference queries in
 * seeded shuffled blocks, built before its timer starts. Every answer
 * must be accepted, found, and bit-identical to the fixture's plan.
 */
void
replayHot(double seconds, ServiceLoop &loop,
          const std::vector<PlanQuery> &templates,
          const std::vector<std::string> &hashes, Rng &rng,
          std::vector<float> &latUs, SpanLog *log, Outcome &out,
          ReplayStats &st)
{
    const StoreStats before = loop.service().cache().stats();
    const uint64_t busyBefore = workerBusyUs();

    std::mutex mu;
    std::condition_variable cv;
    size_t inFlight = 0;
    uint64_t bad = 0;
    std::vector<size_t> block = rng.permutation(templates.size());
    size_t pos = 0;
    // The replay is cut into one-second segments and the reported
    // numbers are medians over segments, so a burst of interference from
    // outside the process moves a few segments, not the result.
    const auto start = Clock::now();
    const auto deadline =
        start + std::chrono::duration_cast<Clock::duration>(
                    std::chrono::duration<double>(seconds));
    std::vector<std::pair<size_t, Clock::time_point>> marks{{0, start}};
    size_t n = 0;
    for (; n < latUs.size(); ++n) {
        if ((n & 63) == 0) {
            const auto now = Clock::now();
            if (now >= deadline)
                break;
            if (now - marks.back().second >= kHotSegment)
                marks.emplace_back(n, now);
        }
        {
            std::unique_lock<std::mutex> lock(mu);
            cv.wait(lock, [&] { return inFlight < kHotOutstanding; });
            ++inFlight;
        }
        if (pos == block.size()) {
            block = rng.permutation(templates.size());
            pos = 0;
        }
        const size_t idx = block[pos++];
        PlanQuery query = templates[idx];
        const uint64_t root = log ? log->newRoot() : 0;
        const double startUs = log ? log->nowUs() : 0.0;
        const auto t0 = Clock::now();
        loop.submit(std::move(query), "e2e",
                    [&, idx, n, t0, root,
                     startUs](const ServiceLoop::Response &resp) {
                        const double us =
                            std::chrono::duration<double, std::micro>(
                                Clock::now() - t0)
                                .count();
                        const bool ok =
                            resp.admission == Admission::Accepted &&
                            resp.report.found &&
                            resp.report.planHash == hashes[idx];
                        if (log)
                            log->complete("query", root,
                                          templates[idx].label, startUs, us);
                        {
                            std::lock_guard<std::mutex> lock(mu);
                            latUs[n] = static_cast<float>(us);
                            bad += ok ? 0 : 1;
                            --inFlight;
                        }
                        cv.notify_one();
                    });
    }
    loop.drain();
    st.wallSec += since(start);
    st.answered += n;
    marks.emplace_back(n, Clock::now());

    const StoreStats after = loop.service().cache().stats();
    const uint64_t contended = after.lockContended - before.lockContended;
    st.lockContended += contended;
    st.hits += after.hits() - before.hits();
    st.lookups += after.lookups() - before.lookups();
    st.busyUs += workerBusyUs() - busyBefore;

    // Percentiles in place, per segment: copying the samples would grow
    // peak RSS. A trailing segment under half a second is left out.
    for (size_t i = 1; i < marks.size(); ++i) {
        const size_t lo = marks[i - 1].first, hi = marks[i].first;
        const double sec = std::chrono::duration<double>(
                               marks[i].second - marks[i - 1].second)
                               .count();
        if (hi <= lo || sec < 0.5)
            continue;
        auto pct = [&](double q) {
            const size_t k =
                lo + static_cast<size_t>(q * static_cast<double>(hi - lo - 1));
            std::nth_element(latUs.begin() + lo, latUs.begin() + k,
                             latUs.begin() + hi);
            return static_cast<double>(latUs[k]);
        };
        st.qps.push_back(static_cast<double>(hi - lo) / sec);
        st.p50Us.push_back(pct(0.50));
        st.p99Us.push_back(pct(0.99));
    }

    out.attempted += n;
    out.failed += bad;
    if (bad > 0)
        out.failures.push_back(std::to_string(bad) +
                               " hot answers rejected, missing, or not "
                               "bit-identical to the fixture");
    out.check(contended == 0,
              "lock_contended grew on the read-only hot replay (" +
                  std::to_string(contended) + ")");
}

struct HotServing
{
    std::vector<PlanQuery> queries;
    std::unique_ptr<ServiceLoop> loop;
    std::vector<QueryReport> diskHits;
};

/** Set-up of the hot path: a service loop on the fixture copy @p dir,
 * then each instance answered once from disk with verification on
 * load, which leaves all 15 resident in the memory tier. */
HotServing
makeHotServing(const std::string &dir, int threads)
{
    HotServing s;
    s.queries = referenceQueries(threads);
    ServiceLoopOptions lo;
    lo.service = serviceOptions(dir, threads);
    lo.workers = kHotWorkers;
    s.loop = std::make_unique<ServiceLoop>(std::move(lo));
    s.diskHits.resize(s.queries.size());
    for (size_t i = 0; i < s.queries.size(); ++i)
        s.loop->service().runOne(s.queries[i], &s.diskHits[i]);
    return s;
}

void
checkDiskHits(const HotServing &s,
              const std::map<std::string, FixturePlan> &fixture, Outcome &out)
{
    for (const QueryReport &r : s.diskHits)
        out.check(std::string(r.source) == "disk" && r.found &&
                      r.planHash == fixture.at(r.label).planHash,
                  "hot-serve disk hit missing or not bit-identical: " +
                      r.label);
}

/** Isolated hot-path layer calls, timed one call at a time. */
void
probeHotLayers(const Config &cfg, ServiceLoop &loop,
               const std::vector<PlanQuery> &templates,
               const std::map<std::string, FixturePlan> &fixture,
               SpanLog *log, Outcome &out)
{
    constexpr int kReps = 200;
    Probes probe;
    for (const PlanQuery &q : templates) {
        const FixturePlan &plan = fixture.at(q.label);
        const TesselOptions eff = q.effectiveOptions();
        const uint64_t root = log->newRoot();
        Span top(log, "probe.hot", root, q.label);
        {
            Span s(log, "store.fingerprint", root);
            for (int i = 0; i < kReps; ++i)
                probe["fingerprint_us"].push_back(
                    timeUs([&] { keep(fingerprintQuery(q.placement, eff)); }));
        }
        {
            Span s(log, "store.cache.get", root);
            for (int i = 0; i < kReps; ++i)
                probe["get_us"].push_back(timeUs([&] {
                    keep(loop.service().cache().get(plan.fingerprint,
                                                    q.placement, eff));
                }));
        }
        {
            Span s(log, "store.serialize.digest", root);
            for (int i = 0; i < kReps; ++i)
                probe["digest_us"].push_back(
                    timeUs([&] { keep(resultPlanDigest(plan.result)); }));
        }
        {
            Span s(log, "service.run_one", root);
            for (int i = 0; i < kReps; ++i) {
                QueryReport rep;
                probe["run_one_us"].push_back(timeUs(
                    [&] { keep(loop.service().runOne(q, &rep)); }));
            }
        }
    }

    // The cold-open costs behind set-up: store open, verified disk hits,
    // and the verification oracle alone.
    for (int rep = 0; rep < 5; ++rep) {
        const std::string dir = copyFixture(cfg, "hot-probe");
        {
            const uint64_t root = log->newRoot();
            Span top(log, "probe.store", root);
            probeOpen(log, root, dir, probe);
            PlanCache cache(dir);
            Span s(log, "store.cache.get", root);
            for (const PlanQuery &q : templates) {
                const TesselOptions eff = q.effectiveOptions();
                probe["disk_ms"].push_back(
                    timeUs([&] {
                        keep(cache.get(fixture.at(q.label).fingerprint,
                                       q.placement, eff));
                    }) /
                    1e3);
            }
        }
        removeDir(dir);
    }
    const uint64_t root = log->newRoot();
    for (const PlanQuery &q : templates)
        checkVerified(log, root, out, probe, q, fixture.at(q.label).result,
                      "hot-serve fixture");

    reportProbes(out, probe);
    out.layers["store.cache.get_memory_us"] = median(probe["get_us"]);
    out.layers["store.serialize.digest_us"] = median(probe["digest_us"]);
    out.layers["service.run_one_us"] = median(probe["run_one_us"]);
    out.layers["store.cache.get_disk_ms"] = median(probe["disk_ms"]);
}

} // namespace

Outcome
runHotServe(const Config &cfg)
{
    Outcome out;
    const int threads = workerThreads();
    const auto fixture = loadFixture(cfg, referenceQueries(threads), out);
    if (fixture.size() != kQueries)
        return out;
    Rng rng(cfg.seed);

    std::vector<double> setup;
    const std::string dir = copyFixture(cfg, "hot");
    HotServing serving =
        timedSetup(setup, [&] { return makeHotServing(dir, threads); });
    checkDiskHits(serving, fixture, out);
    std::vector<std::string> hashes;
    double makespan = 0.0;
    for (const PlanQuery &q : serving.queries) {
        hashes.push_back(fixture.at(q.label).planHash);
        makespan += planMakespan(fixture.at(q.label).result);
    }

    // The replay in chunks, each followed by a set-up occasion on its
    // own store copy (the serving loop sits idle meanwhile).
    std::vector<float> latUs(kHotMaxSamples, 0.0f);
    ReplayStats st;
    const std::string again = copyFixture(cfg, "hot-setup");
    const int chunks =
        std::max(1, static_cast<int>(std::lround(cfg.seconds / kHotChunkSec)));
    for (int chunk = 0; chunk < chunks; ++chunk) {
        replayHot(cfg.seconds / chunks, *serving.loop, serving.queries,
                  hashes, rng, latUs, nullptr, out, st);
        HotServing other = timedSetup(
            setup, [&] { return makeHotServing(again, threads); });
        checkDiskHits(other, fixture, out);
    }
    removeDir(again);

    out.e2e["setup_s"] = median(setup);
    out.e2e["throughput_qps"] = median(st.qps);
    out.e2e["latency_p99_ms"] = median(st.p99Us) / 1e3;
    out.e2e["plan_makespan_sum"] = makespan;
    out.info["latency_samples"] = static_cast<double>(st.answered);
    out.info["segments"] = static_cast<double>(st.qps.size());
    out.layers["service.answer.p50_ms"] = median(st.p50Us) / 1e3;
    out.layers["service.loop.worker_busy_share"] =
        static_cast<double>(st.busyUs) / (kHotWorkers * st.wallSec * 1e6);
    out.layers["service.loop.queue_high_water"] =
        static_cast<double>(serving.loop->stats().queueHighWater);
    out.layers["store.cache.lock_contended"] =
        static_cast<double>(st.lockContended);
    out.layers["store.cache.hit_rate"] =
        st.lookups > 0 ? static_cast<double>(st.hits) /
                             static_cast<double>(st.lookups)
                       : 0.0;

    if (cfg.trace) {
        SpanLog log;
        ReplayStats traced;
        replayHot(cfg.seconds, *serving.loop, serving.queries, hashes, rng,
                  latUs, &log, out, traced);
        probeHotLayers(cfg, *serving.loop, serving.queries, fixture, &log,
                       out);
        out.layers["service.loop.overhead_us"] =
            median(st.p50Us) - out.layers["service.run_one_us"];
        out.layers["trace.overhead"] =
            median(st.qps) / median(traced.qps) - 1.0;
        finishTrace(cfg, log);
    }
    serving.loop->shutdown();
    serving = {};
    removeDir(dir);
    return out;
}

// ------------------------------------------------------------ near-miss

namespace {

/** The canonical one-knob perturbation of every stored query: one more
 * micro-batch of NR-sweep headroom, a guaranteed fingerprint miss whose
 * nearest stored neighbor is its own base instance. Searches run
 * serially so every round does identical work (the parallel sweep's
 * candidate count varies with thread timing). */
std::vector<PlanQuery>
nearMissQueries()
{
    std::vector<PlanQuery> queries = referenceQueries(1);
    for (PlanQuery &q : queries) {
        q.options.maxRepetendMicrobatches += 1;
        q.label += "/nr-cap+1";
    }
    return queries;
}

/** One near-miss round: a fresh service on a fresh fixture copy
 * answers the 15 perturbations one at a time in seeded order. */
void
nearMissRound(const Config &cfg, Rng &rng,
              const std::map<std::string, FixturePlan> &fixture,
              Rounds &rounds, SpanLog *log, Outcome &out, Effort &effort,
              Probes &probe)
{
    const std::string dir = copyFixture(cfg, "miss");
    if (log)
        probeOpen(log, log->newRoot(), dir, probe);
    Serving serving = timedSetup(rounds.setup, [&] {
        return makeServing(nearMissQueries(), serviceOptions(dir, 1));
    });
    const std::vector<PlanQuery> bases = referenceQueries(1);
    std::vector<std::pair<size_t, TesselResult>> answers;
    double roundSec = 0.0;
    for (size_t i : rng.permutation(serving.queries.size())) {
        const PlanQuery &q = serving.queries[i];
        const uint64_t root = log ? log->newRoot() : 0;
        Span query(log, "query", root, q.label);
        if (log) {
            probeLowering(log, root, q, probe);
            const TesselOptions eff = q.effectiveOptions();
            const InstanceMeta meta = computeInstanceMeta(q.placement, eff);
            {
                Span s(log, "store.neighbor.lookup", root);
                probe["lookup_us"].push_back(timeUs([&] {
                    keep(serving.service->cache().neighbors(meta, 4));
                }));
            }
            const bool phases =
                phaseOptionsDigest(bases[i].effectiveOptions()) ==
                phaseOptionsDigest(eff);
            Span s(log, "store.adapt", root);
            probe["adapt_ms"].push_back(
                timeUs([&] {
                    keep(adaptResultToQuery(q.placement, eff,
                                            fixture.at(bases[i].label).result,
                                            phases));
                }) /
                1e3);
        }
        TesselResult r;
        QueryReport rep;
        double wall = 0.0;
        {
            Span s(log, "service.run_one", root, q.label);
            wall = timeUs([&] { r = serving.service->runOne(q, &rep); }) / 1e6;
            annotateSearch(s, r);
            s.arg("seeded", rep.seededFrom.empty() ? 0.0 : 1.0);
        }
        roundSec += wall;
        rounds.answerSec.push_back(wall);
        effort.add(r, wall, q.options);
        probe["seeded"].push_back(rep.seededFrom.empty() ? 0.0 : 1.0);
        out.check(std::string(rep.source) == "search",
                  "near-miss query was not a store miss: " + q.label);
        answers.emplace_back(i, std::move(r));
    }

    double makespan = 0.0;
    for (const auto &[i, r] : answers) {
        checkVerified(nullptr, 0, out, probe, serving.queries[i], r,
                      "near-miss");
        makespan += planMakespan(r);
    }
    rounds.endRound(roundSec, answers.size(), makespan);
    if (log) {
        // The store writes each miss made inside runOne, repeated in
        // isolation on a scratch store.
        const std::string scratch = freshDir(cfg, "miss-put");
        {
            PlanCache cache(scratch);
            const uint64_t root = log->newRoot();
            Span top(log, "probe.store", root);
            double bytes = 0.0;
            for (const auto &[i, r] : answers) {
                const PlanQuery &q = serving.queries[i];
                const TesselOptions eff = q.effectiveOptions();
                const Hash128 fp = fingerprintQuery(q.placement, eff);
                Span s(log, "store.cache.put", root, q.label);
                probe["put_ms"].push_back(
                    timeUs([&] { cache.put(fp, q.placement, eff, r); }) / 1e3);
                bytes += static_cast<double>(serializeResult(r, fp).size());
            }
            probe["bytes"].push_back(bytes);
        }
        removeDir(scratch);
    }
    serving = {};
    removeDir(dir);
}

} // namespace

Outcome
runNearMiss(const Config &cfg)
{
    Outcome out;
    const auto fixture = loadFixture(cfg, referenceQueries(1), out);
    if (fixture.size() != kQueries)
        return out;
    Rng rng(cfg.seed);

    // Each round also takes a second set-up occasion, on a fixture copy
    // no round writes to, so set-up is sampled across the run.
    const std::string setupDir = copyFixture(cfg, "miss-setup");
    auto pass = [&](SpanLog *log, Rounds &rounds, Effort &effort,
                    Probes &probe) {
        const auto t0 = Clock::now();
        while (rounds.another(cfg, t0, 5)) {
            nearMissRound(cfg, rng, fixture, rounds, log, out, effort, probe);
            timedSetup(rounds.setup, [&] {
                return makeServing(nearMissQueries(),
                                   serviceOptions(setupDir, 1));
            });
        }
    };

    Rounds rounds;
    Effort effort;
    Probes probe;
    pass(nullptr, rounds, effort, probe);
    rounds.report(out);

    if (cfg.trace) {
        Probes traced = tracedRounds(cfg, rounds, out, pass);
        out.layers["store.neighbor.lookup_us"] = median(traced["lookup_us"]);
        out.layers["store.adapt.ms"] = median(traced["adapt_ms"]);
        out.layers["store.adapt.seeded_share"] = mean(traced["seeded"]);
        out.layers["store.cache.put_ms"] = median(traced["put_ms"]);
        out.layers["store.serialize.bytes"] = median(traced["bytes"]);
    }
    removeDir(setupDir);
    return out;
}

// --------------------------------------------------------- drift-replan

namespace {

constexpr double kReplanBudgetSec = 0.25;

/** One fault injection against one shape's heterogeneous instance. */
struct Injection
{
    ReplanRequest request;
    bool removal = false;
};

/** Speed x2 on device 1, link (0,1) drift, and failure of device 1,
 * for each of V/X/M/NN/K hetero (the `bench_replan` injections). */
std::vector<Injection>
injections(int threads)
{
    static const char *const kShapes[] = {"V", "X", "M", "NN", "K"};
    std::vector<Injection> out;
    for (const char *shape : kShapes) {
        PlanQuery base =
            *referenceShapeQuery(shape, "hetero", kDevices, kBudgetSec);
        base.options.numThreads = threads;
        Injection speed;
        speed.request.base = base;
        speed.request.delta.speedFactor[1] = 2.0;
        out.push_back(std::move(speed));

        Injection link;
        link.request.base = base;
        LinkParams lp;
        lp.latency = 2.0;
        lp.timePerMB = 0.5;
        link.request.delta.link[{0, 1}] = lp;
        out.push_back(std::move(link));

        Injection fail;
        fail.removal = true;
        fail.request.base = base;
        std::vector<DeviceId> removed;
        HeteroShape hs = makeDegradedHeteroShapeByName(
            shape, kDevices, /*failed=*/1, {}, {}, &removed);
        PlanQuery degraded = base;
        degraded.label += "/fail=1";
        degraded.placement = std::move(hs.placement);
        degraded.options.edgeMB = std::move(hs.edgeMB);
        degraded.cluster =
            std::make_shared<ClusterModel>(std::move(hs.cluster));
        fail.request.delta.removedDevices = std::move(removed);
        fail.request.degraded = std::move(degraded);
        out.push_back(std::move(fail));
    }
    return out;
}

struct DriftServing
{
    std::vector<Injection> injected;
    std::unique_ptr<PlanningService> service;
};

/** Set-up of a drift round: the injections and a replanning service on
 * the fixture copy @p dir whose cancel token is @p cancel. */
DriftServing
makeDriftServing(const std::string &dir, const CancelToken &cancel)
{
    const int threads = workerThreads();
    DriftServing s;
    s.injected = injections(threads);
    ServiceOptions so = serviceOptions(dir, threads);
    so.replanBudgetSec = kReplanBudgetSec;
    so.cancel = cancel;
    s.service = std::make_unique<PlanningService>(std::move(so));
    return s;
}

/** Time the replan seed preparation the service runs for a drift row
 * (retime of the served fixture plan under the drifted costs). */
void
probePrepare(SpanLog *log, uint64_t root, const Injection &inj,
             const PlanQuery &drifted,
             const std::map<std::string, FixturePlan> &fixture, Probes &probe)
{
    const TesselOptions eff = drifted.effectiveOptions();
    const bool phases =
        phaseOptionsDigest(inj.request.base.effectiveOptions()) ==
        phaseOptionsDigest(eff);
    ReplanSeed seed;
    Span s(log, "core.replan.prepare", root, drifted.label);
    probe["prepare_ms"].push_back(
        timeUs([&] {
            seed = prepareReplanSeed(drifted.placement, eff,
                                     fixture.at(inj.request.base.label).result,
                                     &inj.request.delta, phases);
        }) /
        1e3);
    probe["incremental"].push_back(seed.incrementalLower ? 1.0 : 0.0);
    probe["retimed"].push_back(seed.retimed ? 1.0 : 0.0);
}

/**
 * One drift round: a fresh service on a fresh fixture copy serves the
 * 15 injections one at a time in seeded order with a 0.25 s serving
 * budget. After the last serve the service's cancel token trips, so
 * searches left running in the background stop.
 */
void
driftRound(const Config &cfg, Rng &rng,
           const std::map<std::string, FixturePlan> &fixture, Rounds &rounds,
           SpanLog *log, Outcome &out, Effort &effort, Probes &probe)
{
    const std::string dir = copyFixture(cfg, "drift");
    if (log)
        probeOpen(log, log->newRoot(), dir, probe);
    CancelSource cancel;
    DriftServing serving = timedSetup(
        rounds.setup, [&] { return makeDriftServing(dir, cancel.token()); });
    std::vector<std::pair<PlanQuery, TesselResult>> answers;
    double roundSec = 0.0;
    for (size_t i : rng.permutation(serving.injected.size())) {
        const Injection &inj = serving.injected[i];
        const PlanQuery drifted = makeDriftedQuery(inj.request);
        const uint64_t root = log ? log->newRoot() : 0;
        Span query(log, "query", root, drifted.label);
        if (log) {
            probeLowering(log, root, drifted, probe);
            if (!inj.removal)
                probePrepare(log, root, inj, drifted, fixture, probe);
        }
        TesselResult r;
        QueryReport rep;
        double wall = 0.0;
        {
            Span s(log, "service.replan", root, drifted.label);
            wall = timeUs([&] { r = serving.service->replan(inj.request,
                                                            &rep); }) /
                   1e6;
            annotateSearch(s, r);
            s.arg("stale", rep.stale ? 1.0 : 0.0);
            s.arg("degraded", rep.degraded ? 1.0 : 0.0);
        }
        roundSec += wall;
        rounds.stale += rep.stale ? 1.0 : 0.0;
        rounds.answerSec.push_back(wall);
        effort.add(r, wall, drifted.options);
        answers.emplace_back(drifted, std::move(r));
    }
    cancel.cancel();
    serving.service->waitBackgroundReplans();

    double makespan = 0.0;
    for (const auto &[q, r] : answers) {
        checkVerified(nullptr, 0, out, probe, q, r, "drift-replan");
        makespan += planMakespan(r);
    }
    rounds.endRound(roundSec, answers.size(), makespan);
    serving = {};
    removeDir(dir);
}

} // namespace

Outcome
runDriftReplan(const Config &cfg)
{
    Outcome out;
    const auto fixture =
        loadFixture(cfg, referenceQueries(workerThreads()), out);
    if (fixture.size() != kQueries)
        return out;
    Rng rng(cfg.seed);

    // Each round also takes a second set-up occasion, on a fixture copy
    // no round writes to, so set-up is sampled across the run.
    const std::string setupDir = copyFixture(cfg, "drift-setup");
    auto pass = [&](SpanLog *log, Rounds &rounds, Effort &effort,
                    Probes &probe) {
        const auto t0 = Clock::now();
        while (rounds.another(cfg, t0, 2)) {
            driftRound(cfg, rng, fixture, rounds, log, out, effort, probe);
            timedSetup(rounds.setup,
                       [&] { return makeDriftServing(setupDir, {}); });
        }
    };

    Rounds rounds;
    Effort effort;
    Probes probe;
    pass(nullptr, rounds, effort, probe);
    rounds.report(out);
    out.layers["service.replan.stale_share"] =
        rounds.stale / static_cast<double>(rounds.answerSec.size());

    if (cfg.trace) {
        Probes traced = tracedRounds(cfg, rounds, out, pass);
        out.layers["core.replan.prepare_ms"] = median(traced["prepare_ms"]);
        out.layers["core.replan.incremental_share"] =
            mean(traced["incremental"]);
        out.layers["core.replan.retimed_share"] = mean(traced["retimed"]);
    }
    removeDir(setupDir);
    return out;
}

} // namespace e2e
