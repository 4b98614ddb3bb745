/**
 * @file
 * Planning-service front-end: answer a batch of schedule-search queries
 * (the five reference shapes x homogeneous/memory-capped/heterogeneous
 * option sweeps) through the plan store, reporting per-query source
 * (memory / disk / fresh search), batch throughput, and cache hit rate.
 *
 * Typical uses:
 *
 *   # Cold run: searches everything, populates the cache directory.
 *   tessel_service --cache-dir /tmp/plans --json stats1.json
 *
 *   # Warm run (same dir, new process): ~100% disk hits, bit-identical
 *   # plans; nonzero exit if the hit rate disappoints.
 *   tessel_service --cache-dir /tmp/plans --json stats2.json \
 *       --min-hit-rate 0.99
 *
 *   # Daemon mode: stream line-delimited JSON queries on stdin, one
 *   # JSON response per line on stdout (order may differ from input;
 *   # match on "id"). --emit-trace prints the reference batch in the
 *   # trace format, so the two compose into an end-to-end smoke:
 *   tessel_service --emit-trace | \
 *       tessel_service --serve --cache-dir /tmp/plans
 *
 * The stats JSON carries one object per query with its canonical
 * fingerprint and the digest of the serialized result (`plan_hash`);
 * equal plan hashes across runs certify bit-identical plans.
 */

#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "service/service.h"
#include "service/trace.h"
#include "store/serialize.h"
#include "support/io.h"
#include "support/metrics.h"
#include "support/table.h"
#include "support/tracing.h"

using namespace tessel;

namespace {

struct Args
{
    std::string cacheDir = "tessel-plan-cache";
    std::string jsonPath;
    int devices = 4;
    int threads = 0;
    double budgetSec = 10.0;
    bool hetero = true;
    double minHitRate = -1.0;
    bool neighborSeed = true;
    bool serve = false;
    bool emitTrace = false;
    bool chaos = false;
    size_t queueDepth = 64;
    int workers = 2;
    double tenantRate = 0.0;
    double tenantBurst = 8.0;
    double revalidateSec = 0.0;
    double replanBudgetSec = 1.0;
    std::string metricsOut;
    std::string traceOut;
    double metricsIntervalSec = 1.0;
};

void
usage()
{
    std::cout
        << "usage: tessel_service [options]\n"
           "  --cache-dir DIR    plan cache directory "
           "(default: tessel-plan-cache)\n"
           "  --devices N        devices per reference shape (default 4)\n"
           "  --threads N        miss fan-out workers (0 = hardware)\n"
           "  --budget-sec S     per-query wall deadline; answers it cuts "
           "short are served\n"
           "                     but not cached (<= 0: none; default 10)\n"
           "  --no-hetero        skip the heterogeneous comm-aware "
           "variants\n"
           "  --json PATH        write batch stats as JSON\n"
           "  --min-hit-rate F   exit 1 unless batch hit rate >= F\n"
           "  --neighbor-seed on|off\n"
           "                     warm-start store misses from adapted "
           "neighbor plans (default on)\n"
           "  --serve            daemon mode: line-delimited JSON queries "
           "on stdin,\n"
           "                     one JSON response per line on stdout\n"
           "  --emit-trace       print the reference batch in the daemon "
           "trace format\n"
           "  --chaos            with --emit-trace: overlay drift/failure "
           "knobs on each line\n"
           "  --replan-budget-sec S\n"
           "                     --serve replan wait budget; a replan "
           "missing it serves the\n"
           "                     old plan retimed (stale) while the full "
           "search finishes in\n"
           "                     the background (<= 0 always waits; "
           "default 1)\n"
           "  --queue-depth N    --serve admission queue capacity "
           "(default 64)\n"
           "  --workers N        --serve dispatch workers (default 2)\n"
           "  --tenant-rate F    per-tenant sustained queries/sec "
           "(0 = unlimited)\n"
           "  --tenant-burst F   per-tenant token-bucket burst "
           "(default 8)\n"
           "  --revalidate-sec S background store revalidation interval "
           "(0 = off)\n"
           "  --metrics-out FILE periodic + final metrics snapshot: "
           "Prometheus text at\n"
           "                     FILE, JSON at FILE.json; the last "
           "periodic snapshot is\n"
           "                     kept as FILE.prev\n"
           "  --metrics-interval-sec S\n"
           "                     periodic snapshot interval (default 1)\n"
           "  --trace-out FILE   record spans; write Chrome trace-event "
           "JSON (Perfetto-\n"
           "                     loadable) at exit\n";
}

bool
parseArgs(int argc, char **argv, Args *args)
{
    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        auto next = [&](const char *what) -> const char * {
            if (i + 1 >= argc) {
                std::cerr << "tessel_service: " << what
                          << " needs a value\n";
                return nullptr;
            }
            return argv[++i];
        };
        if (a == "--cache-dir") {
            const char *v = next("--cache-dir");
            if (!v)
                return false;
            args->cacheDir = v;
        } else if (a == "--devices") {
            const char *v = next("--devices");
            if (!v)
                return false;
            args->devices = std::atoi(v);
        } else if (a == "--threads") {
            const char *v = next("--threads");
            if (!v)
                return false;
            args->threads = std::atoi(v);
        } else if (a == "--budget-sec") {
            const char *v = next("--budget-sec");
            if (!v)
                return false;
            args->budgetSec = std::atof(v);
        } else if (a == "--no-hetero") {
            args->hetero = false;
        } else if (a == "--json") {
            const char *v = next("--json");
            if (!v)
                return false;
            args->jsonPath = v;
        } else if (a == "--min-hit-rate") {
            const char *v = next("--min-hit-rate");
            if (!v)
                return false;
            args->minHitRate = std::atof(v);
        } else if (a == "--neighbor-seed") {
            const char *v = next("--neighbor-seed");
            if (!v)
                return false;
            const std::string mode = v;
            if (mode != "on" && mode != "off") {
                std::cerr << "tessel_service: --neighbor-seed takes "
                             "'on' or 'off'\n";
                return false;
            }
            args->neighborSeed = mode == "on";
        } else if (a == "--serve") {
            args->serve = true;
        } else if (a == "--emit-trace") {
            args->emitTrace = true;
        } else if (a == "--chaos") {
            args->chaos = true;
        } else if (a == "--replan-budget-sec") {
            const char *v = next("--replan-budget-sec");
            if (!v)
                return false;
            args->replanBudgetSec = std::atof(v);
        } else if (a == "--queue-depth") {
            const char *v = next("--queue-depth");
            if (!v)
                return false;
            args->queueDepth = static_cast<size_t>(std::atol(v));
        } else if (a == "--workers") {
            const char *v = next("--workers");
            if (!v)
                return false;
            args->workers = std::atoi(v);
        } else if (a == "--tenant-rate") {
            const char *v = next("--tenant-rate");
            if (!v)
                return false;
            args->tenantRate = std::atof(v);
        } else if (a == "--tenant-burst") {
            const char *v = next("--tenant-burst");
            if (!v)
                return false;
            args->tenantBurst = std::atof(v);
        } else if (a == "--revalidate-sec") {
            const char *v = next("--revalidate-sec");
            if (!v)
                return false;
            args->revalidateSec = std::atof(v);
        } else if (a == "--metrics-out") {
            const char *v = next("--metrics-out");
            if (!v)
                return false;
            args->metricsOut = v;
        } else if (a == "--metrics-interval-sec") {
            const char *v = next("--metrics-interval-sec");
            if (!v)
                return false;
            args->metricsIntervalSec = std::atof(v);
        } else if (a == "--trace-out") {
            const char *v = next("--trace-out");
            if (!v)
                return false;
            args->traceOut = v;
        } else if (a == "--help" || a == "-h") {
            usage();
            std::exit(0);
        } else {
            std::cerr << "tessel_service: unknown option '" << a << "'\n";
            usage();
            return false;
        }
    }
    if (args->devices < 2 || args->devices % 2 != 0) {
        std::cerr << "tessel_service: --devices must be even and >= 2 "
                     "(K-Shape constraint)\n";
        return false;
    }
    return true;
}

void
printReport(const BatchReport &report, const std::string &caption)
{
    Table table(caption);
    table.setHeader({"query", "source", "found", "period", "wall (ms)",
                     "plan hash", "seeded from"});
    for (const QueryReport &q : report.queries) {
        table.addRow({q.label, q.source, q.found ? "yes" : "no",
                      std::to_string(q.period),
                      fmtDouble(q.wallSec * 1e3, 2),
                      q.planHash.substr(0, 12),
                      q.seededFrom.empty() ? "-"
                                           : q.seededFrom.substr(0, 12)});
    }
    table.print(std::cout);
    std::cout << report.queries.size() << " queries, "
              << report.uniqueInstances << " unique instances: "
              << report.memoryHits << " memory hits, " << report.diskHits
              << " disk hits, " << report.searches << " searches; "
              << "hit rate " << fmtPercent(report.hitRate())
              << ", wall " << fmtDouble(report.wallSec, 3) << " s, "
              << fmtDouble(report.throughputQps, 1) << " queries/s\n";
    const StoreStats &cs = report.cacheStats;
    std::cout << "cache lifetime: " << cs.memoryHits << " mem / "
              << cs.diskHits << " disk hits, " << cs.misses << " misses, "
              << cs.stores << " stores, " << cs.verifyFailures
              << " verify failures, " << cs.evictions << " evictions\n\n";
}

bool
writeStatsJson(const std::string &path, const BatchReport &report)
{
    std::ofstream out(path);
    if (!out)
        return false;
    out << "{\n  \"queries\": [\n";
    for (size_t i = 0; i < report.queries.size(); ++i) {
        const QueryReport &q = report.queries[i];
        out << "    {\"label\": \"" << jsonEscape(q.label)
            << "\", \"fingerprint\": \"" << q.fingerprint
            << "\", \"plan_hash\": \"" << q.planHash << "\", \"source\": \""
            << q.source << "\", \"found\": " << (q.found ? "true" : "false")
            << ", \"period\": " << q.period
            << ", \"wall_sec\": " << q.wallSec << ", \"seeded_from\": \""
            << q.seededFrom << "\", \"seed_makespan\": " << q.seedMakespan
            << ", \"seed_nodes_pruned\": " << q.seedNodesPruned
            << ", \"value_sweeps\": " << q.valueSweeps
            << ", \"policy_improvements\": " << q.policyImprovements
            << ", \"solver_nodes\": " << q.solverNodes
            << ", \"sweep_ms\": " << q.sweepMs
            << ", \"warmup_ms\": " << q.warmupMs
            << ", \"cooldown_ms\": " << q.cooldownMs
            << ", \"phase_cap_hits\": " << q.phaseCapHits
            << (q.deadlineHit ? ", \"deadline_hit\": true" : "") << "}"
            << (i + 1 < report.queries.size() ? "," : "") << "\n";
    }
    const StoreStats &cs = report.cacheStats;
    out << "  ],\n"
        << "  \"unique_instances\": " << report.uniqueInstances << ",\n"
        << "  \"memory_hits\": " << report.memoryHits << ",\n"
        << "  \"disk_hits\": " << report.diskHits << ",\n"
        << "  \"searches\": " << report.searches << ",\n"
        << "  \"hit_rate\": " << report.hitRate() << ",\n"
        << "  \"wall_sec\": " << report.wallSec << ",\n"
        << "  \"throughput_qps\": " << report.throughputQps << ",\n"
        << "  \"cache\": {\"memory_hits\": " << cs.memoryHits
        << ", \"disk_hits\": " << cs.diskHits
        << ", \"misses\": " << cs.misses << ", \"stores\": " << cs.stores
        << ", \"verify_failures\": " << cs.verifyFailures
        << ", \"evictions\": " << cs.evictions
        << ", \"lock_contended\": " << cs.lockContended
        << ", \"neighbor_fetches\": " << cs.neighborFetches << "}\n}\n";
    return static_cast<bool>(out);
}

/**
 * Print the reference batch as daemon trace lines (one per query).
 * --chaos overlays a drift or failure knob on every line, one injection
 * class per variant so a single replayed trace walks every replan path:
 * device failure on the hetero V line, speed drift on the remaining
 * hetero lines, a link-parameter drift on the mem-capped lines (the
 * charged link adds comm blocks), and a mild speed drift on the
 * homogeneous lines (trivial base cluster turning non-trivial).
 */
int
runEmitTrace(const Args &args)
{
    static const char *kShapes[] = {"V", "X", "M", "NN", "K"};
    static const char *kVariants[] = {"homogeneous", "mem-capped",
                                      "hetero"};
    int n = 0;
    for (const char *shape : kShapes) {
        for (const char *variant : kVariants) {
            const std::string v = variant;
            if (!args.hetero && v == "hetero")
                continue;
            TraceQuery q;
            q.id = "q" + std::to_string(++n);
            q.shape = shape;
            q.variant = variant;
            q.devices = args.devices;
            q.budgetSec = args.budgetSec;
            if (args.chaos) {
                if (v == "hetero" && std::string(shape) == "V") {
                    q.failDevice = 1;
                } else if (v == "hetero") {
                    q.driftDevice = 1;
                    q.driftSpeed = 2.0;
                } else if (v == "mem-capped") {
                    q.driftSrc = 0;
                    q.driftDst = 1;
                    q.driftLatency = 2.0;
                    q.driftTimePerMB = 0.5;
                } else {
                    q.driftDevice = 0;
                    q.driftSpeed = 1.25;
                }
            }
            std::cout << formatTraceLine(q) << "\n";
        }
    }
    return 0;
}

/**
 * Write one metrics snapshot: Prometheus text exposition at @p path,
 * the same snapshot as JSON at @p path.json. Both writes are atomic
 * (tmp + rename), so a reader never sees a torn exposition.
 */
bool
writeMetricsSnapshot(const std::string &path)
{
    const MetricsSnapshot snap = MetricsRegistry::instance().snapshot();
    std::string err;
    bool ok = writeFileAtomic(path, toPrometheus(snap), &err);
    if (!ok)
        std::cerr << "tessel_service: cannot write " << path << ": "
                  << err << "\n";
    std::string jerr;
    if (!writeFileAtomic(path + ".json", toJson(snap) + "\n", &jerr)) {
        std::cerr << "tessel_service: cannot write " << path
                  << ".json: " << jerr << "\n";
        ok = false;
    }
    return ok;
}

/**
 * Periodic metrics writer plus final-snapshot handling for --metrics-out.
 * start() spawns the writer thread; finish() stops it, preserves the
 * last periodic snapshot as FILE.prev (two same-process snapshots let
 * tools/metrics_lint.py check counter monotonicity), and writes the
 * final snapshot.
 */
class MetricsWriter
{
  public:
    explicit MetricsWriter(std::string path, double intervalSec)
        : path_(std::move(path)),
          intervalSec_(intervalSec > 0.0 ? intervalSec : 1.0)
    {
    }

    void
    start()
    {
        if (path_.empty())
            return;
        thread_ = std::thread([this] { run(); });
    }

    bool
    finish()
    {
        if (path_.empty())
            return true;
        stop_.store(true, std::memory_order_release);
        if (thread_.joinable())
            thread_.join();
        if (wrote_.load(std::memory_order_relaxed))
            std::rename(path_.c_str(), (path_ + ".prev").c_str());
        return writeMetricsSnapshot(path_);
    }

  private:
    void
    run()
    {
        using clock = std::chrono::steady_clock;
        auto nextDue = clock::now() +
                       std::chrono::duration_cast<clock::duration>(
                           std::chrono::duration<double>(intervalSec_));
        while (!stop_.load(std::memory_order_acquire)) {
            std::this_thread::sleep_for(std::chrono::milliseconds(50));
            if (clock::now() < nextDue)
                continue;
            if (writeMetricsSnapshot(path_))
                wrote_.store(true, std::memory_order_relaxed);
            nextDue = clock::now() +
                      std::chrono::duration_cast<clock::duration>(
                          std::chrono::duration<double>(intervalSec_));
        }
    }

    const std::string path_;
    const double intervalSec_;
    std::atomic<bool> stop_{false};
    std::atomic<bool> wrote_{false};
    std::thread thread_;
};

/** Flush the flight recorder as Chrome trace-event JSON (--trace-out). */
void
writeTraceFile(const std::string &path)
{
    if (path.empty())
        return;
    std::string err;
    if (!writeChromeTrace(TraceRecorder::instance(), path, &err))
        std::cerr << "tessel_service: cannot write " << path << ": "
                  << err << "\n";
}

/**
 * Signal plumbing for --serve (async-signal-safe: the handler only
 * bumps a counter). The first SIGINT/SIGTERM stops admitting input and
 * drains in-flight queries — every accepted query still gets its
 * response, and nothing mid-search is cancelled, so the store never
 * sees a truncated plan. A second signal escalates: in-flight searches
 * are cancelled (answers flagged, not cached) so the process exits
 * promptly. sa_flags deliberately omits SA_RESTART so a signal breaks
 * the blocking stdin read instead of waiting for the next trace line.
 */
std::atomic<int> g_signals{0};

extern "C" void
onStopSignal(int)
{
    g_signals.fetch_add(1, std::memory_order_relaxed);
}

void
installStopHandlers()
{
    struct sigaction sa;
    std::memset(&sa, 0, sizeof sa);
    sa.sa_handler = onStopSignal;
    sigemptyset(&sa.sa_mask);
    sa.sa_flags = 0;
    sigaction(SIGINT, &sa, nullptr);
    sigaction(SIGTERM, &sa, nullptr);
}

/**
 * Daemon mode: read one JSON query per stdin line, answer through a
 * ServiceLoop, and emit one JSON response per line on stdout (stdout is
 * shared by the workers and by resident hits answered inline on this
 * thread, so emission is serialized under a lock never held across
 * submit(); responses may interleave out of input order — match on
 * "id"). Malformed lines
 * and unknown coordinates get an error response, never a crash. EOF
 * drains in-flight queries, prints a summary to stderr, and exits 0.
 */
int
runServe(const Args &args)
{
    ServiceLoopOptions loop_opts;
    loop_opts.service.cacheDir = args.cacheDir;
    loop_opts.service.numThreads = args.threads;
    loop_opts.service.neighborSeed = args.neighborSeed;
    loop_opts.service.replanBudgetSec = args.replanBudgetSec;
    loop_opts.queueDepth = args.queueDepth;
    loop_opts.workers = args.workers;
    loop_opts.defaultBudget.ratePerSec = args.tenantRate;
    loop_opts.defaultBudget.burst = args.tenantBurst;
    loop_opts.revalidateIntervalSec = args.revalidateSec;
    if (!args.traceOut.empty())
        TraceRecorder::instance().setEnabled(true);
    ServiceLoop loop(std::move(loop_opts));

    MetricsWriter metrics_writer(args.metricsOut, args.metricsIntervalSec);
    metrics_writer.start();

    installStopHandlers();
    // Escalation watcher: a second SIGINT/SIGTERM during the drain
    // cancels in-flight searches instead of waiting them out.
    std::atomic<bool> serve_done{false};
    std::thread watcher([&loop, &serve_done] {
        bool escalated = false;
        while (!serve_done.load(std::memory_order_acquire)) {
            if (!escalated &&
                g_signals.load(std::memory_order_relaxed) >= 2) {
                escalated = true;
                std::cerr << "tessel_service --serve: second signal, "
                             "cancelling in-flight searches\n";
                loop.shutdown(/*cancel_in_flight=*/true);
            }
            std::this_thread::sleep_for(std::chrono::milliseconds(20));
        }
    });

    std::mutex out_mu;
    auto emit = [&](const ServiceLoop::Response &resp,
                    const std::string &id) {
        const std::string line = formatResponseLine(id, resp);
        std::lock_guard<std::mutex> lock(out_mu);
        std::cout << line << "\n" << std::flush;
    };
    auto emitError = [&](const std::string &id, const std::string &what) {
        ServiceLoop::Response resp;
        resp.admission = Admission::Accepted;
        resp.report.source = "error";
        resp.error = what;
        emit(resp, id);
    };

    std::string line;
    uint64_t lineno = 0;
    while (g_signals.load(std::memory_order_relaxed) == 0 &&
           std::getline(std::cin, line)) {
        ++lineno;
        if (line.find_first_not_of(" \t\r") == std::string::npos)
            continue;
        TraceQuery tq;
        std::string err;
        if (!parseTraceLine(line, &tq, &err)) {
            emitError(tq.id, "parse error (line " +
                                 std::to_string(lineno) + "): " + err);
            continue;
        }
        const std::string id = tq.id;
        if (tq.isControl()) {
            if (tq.cmd == "stats") {
                // Live snapshot in-band: answered inline (not queued),
                // so it reflects the daemon state at the moment the
                // control line was read.
                const std::string stats_json =
                    toJson(MetricsRegistry::instance().snapshot());
                std::lock_guard<std::mutex> lock(out_mu);
                std::cout << "{";
                if (!id.empty())
                    std::cout << "\"id\": \"" << jsonEscape(id)
                              << "\", ";
                std::cout << "\"cmd\": \"stats\", \"stats\": "
                          << stats_json << "}\n"
                          << std::flush;
            } else {
                emitError(id, "unknown cmd \"" + tq.cmd + "\"");
            }
            continue;
        }
        auto done = [&emit, id](const ServiceLoop::Response &resp) {
            emit(resp, id);
        };
        if (tq.isReplan()) {
            std::optional<ReplanRequest> req = makeTraceReplan(tq, &err);
            if (!req) {
                emitError(id, err);
                continue;
            }
            loop.submit(std::move(*req), tq.tenant, std::move(done));
            continue;
        }
        std::optional<PlanQuery> query = makeTraceQuery(tq, &err);
        if (!query) {
            emitError(id, err);
            continue;
        }
        loop.submit(std::move(*query), tq.tenant, std::move(done));
    }
    if (g_signals.load(std::memory_order_relaxed) > 0)
        std::cerr << "tessel_service --serve: signal received, draining "
                     "in-flight queries (signal again to cancel)\n";
    loop.drain();
    const LoopStats stats = loop.stats();
    const ServiceStats served = loop.service().stats();
    const uint64_t lock_contended =
        loop.service().cache().stats().lockContended;
    loop.shutdown();
    serve_done.store(true, std::memory_order_release);
    watcher.join();
    std::cerr << "tessel_service --serve: " << stats.submitted
              << " submitted, " << stats.completed << " answered ("
              << stats.answeredInline << " inline, " << served.staleServed
              << " stale, " << served.degradedServed
              << " degraded), rejected " << stats.rejectedQueueFull
              << " queue-full / " << stats.rejectedThrottled
              << " throttled / " << stats.rejectedShutdown
              << " shutting-down, queue high water "
              << stats.queueHighWater
              << ", lock_contended=" << lock_contended << "\n";
    if (!stats.throttledByTenant.empty()) {
        std::cerr << "tessel_service --serve: throttled by tenant:";
        for (const auto &kv : stats.throttledByTenant)
            std::cerr << " "
                      << (kv.first.empty() ? "(anonymous)" : kv.first)
                      << "=" << kv.second;
        std::cerr << "\n";
    }
    const bool metrics_ok = metrics_writer.finish();
    writeTraceFile(args.traceOut);
    return metrics_ok ? 0 : 1;
}

} // namespace

int
main(int argc, char **argv)
{
    Args args;
    if (!parseArgs(argc, argv, &args))
        return 2;
    if (args.emitTrace)
        return runEmitTrace(args);
    if (args.serve)
        return runServe(args);

    const std::vector<PlanQuery> batch =
        referenceShapeQueries(args.devices, args.hetero, args.budgetSec);

    ServiceOptions service_opts;
    service_opts.cacheDir = args.cacheDir;
    service_opts.numThreads = args.threads;
    service_opts.neighborSeed = args.neighborSeed;
    if (!args.traceOut.empty())
        TraceRecorder::instance().setEnabled(true);
    PlanningService service(service_opts);

    const BatchReport report = service.runBatch(batch);
    printReport(report, "Planning service batch (" + args.cacheDir + ")");

    // Batch mode has no periodic writer; --metrics-out / --trace-out
    // still produce a final snapshot for offline inspection.
    if (!args.metricsOut.empty() && !writeMetricsSnapshot(args.metricsOut))
        return 1;
    writeTraceFile(args.traceOut);

    if (!args.jsonPath.empty() &&
        !writeStatsJson(args.jsonPath, report)) {
        std::cerr << "tessel_service: cannot write " << args.jsonPath
                  << "\n";
        return 1;
    }
    if (args.minHitRate >= 0.0 && report.hitRate() < args.minHitRate) {
        std::cerr << "tessel_service: hit rate "
                  << fmtPercent(report.hitRate()) << " below required "
                  << fmtPercent(args.minHitRate) << "\n";
        return 1;
    }
    return 0;
}
