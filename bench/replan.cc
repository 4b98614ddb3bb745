/**
 * @file
 * Fault-injection replanning study: how quickly the service *serves*
 * through cluster drift and device failure, and that what it
 * eventually publishes is bit-identical to planning the drifted
 * instance from scratch.
 *
 * Protocol: populate a cache directory with the reference-shape batch,
 * then sweep three single-knob fault injections of every shape's
 * heterogeneous instance:
 *
 *   speed — device 1 slows to 2x its span cost,
 *   link  — link (0, 1) drifts to latency 2 / 0.5 time-per-MB,
 *   fail  — device 1 drops out (replan onto the survivor placement).
 *
 * Each injection is answered through PlanningService::replan on the
 * populated directory with a serving budget (replanBudgetSec): a
 * search that beats the budget answers fresh; one that misses it
 * answers with the served plan conservatively retimed (stale) while
 * the full search publishes to the store in the background. The same
 * drifted/degraded query also runs cold — a seeding-disabled service
 * on an empty directory — as the baseline.
 *
 * Each drift row also times, once its replan has settled, the retime
 * the replan runs in the foreground: prepareReplanSeed of the served
 * base plan under the drift (`prepare`, and whether it took the retime
 * path). `seeded` says whether the replan's search, in the foreground
 * or behind a stale answer, started from a seed.
 *
 * Gates (exit nonzero on any violation):
 *   - every served answer (fresh, stale, or degraded) passes the
 *     verification oracle;
 *   - drift rows serve within TESSEL_REPLAN_MAX_MS — cold searches of
 *     the same instances are unbounded (they routinely take seconds);
 *   - once the background search lands, a repeat of the injection is
 *     a plain store hit, bit-identical to the cold plan (seed only
 *     prunes, so the published replan IS the cold answer);
 *   - failure rows produce a found, verified survivor plan — never an
 *     error. No latency gate: with the failed device gone there is no
 *     old plan to serve, so the search must run in the foreground.
 *
 * Env knobs:
 *   TESSEL_REPLAN_BENCH_DEVICES     devices per shape (default 4)
 *   TESSEL_REPLAN_BENCH_BUDGET_SEC  per-query search budget (default 10)
 *   TESSEL_REPLAN_SERVE_BUDGET_SEC  serving budget before going stale
 *                                   (default 0.25)
 *   TESSEL_REPLAN_MAX_MS            drift serving-latency ceiling
 *                                   (default 2000; 0 disables — covers
 *                                   the worst case of a retiming that
 *                                   burns its full repetend budget
 *                                   before falling back to a search)
 *
 * `--json PATH` archives per-injection numbers (BENCH_replan.json in
 * CI).
 */

#include <cstdlib>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "placement/shapes.h"
#include "service/service.h"
#include "store/adapt.h"
#include "store/fingerprint.h"
#include "store/serialize.h"
#include "store/store.h"
#include "support/io.h"
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

/** One fault injection against one shape's hetero instance. */
struct Injection
{
    std::string label;
    ReplanRequest request;
    bool removal = false;
};

std::vector<Injection>
injections(int devices, double budget_sec)
{
    static const char *const kShapes[] = {"V", "X", "M", "NN", "K"};
    std::vector<Injection> out;
    for (const char *shape : kShapes) {
        const PlanQuery base =
            *referenceShapeQuery(shape, "hetero", devices, budget_sec);
        {
            Injection inj;
            inj.label = std::string(shape) + "/speed";
            inj.request.base = base;
            inj.request.delta.speedFactor[1] = 2.0;
            out.push_back(std::move(inj));
        }
        {
            Injection inj;
            inj.label = std::string(shape) + "/link";
            inj.request.base = base;
            LinkParams lp;
            lp.latency = 2.0;
            lp.timePerMB = 0.5;
            inj.request.delta.link[{0, 1}] = lp;
            out.push_back(std::move(inj));
        }
        {
            Injection inj;
            inj.label = std::string(shape) + "/fail";
            inj.removal = true;
            inj.request.base = base;
            std::vector<DeviceId> removed;
            HeteroShape hs = makeDegradedHeteroShapeByName(
                shape, devices, /*failed=*/1, {}, {}, &removed);
            PlanQuery degraded = base;
            degraded.label += "/fail=1";
            degraded.placement = std::move(hs.placement);
            degraded.options.edgeMB = std::move(hs.edgeMB);
            degraded.cluster =
                std::make_shared<ClusterModel>(std::move(hs.cluster));
            inj.request.delta.removedDevices = std::move(removed);
            inj.request.degraded = std::move(degraded);
            out.push_back(std::move(inj));
        }
    }
    return out;
}

struct Row
{
    std::string label;
    double coldSec = 0.0;
    double serveSec = 0.0;
    /** prepareReplanSeed wall time (drift rows only). */
    double prepareMs = 0.0;
    bool retimed = false;
    bool seeded = false;
    bool stale = false;
    bool identical = false;
    bool removal = false;
    bool verified = false;
    bool repeatHit = false;
};

bool
writeJson(const std::string &path, const std::vector<Row> &rows,
          double cold_sec, double serve_sec, double max_ms, bool pass)
{
    std::ofstream out(path);
    if (!out)
        return false;
    out << "{\n  \"injections\": [\n";
    for (size_t i = 0; i < rows.size(); ++i) {
        const Row &r = rows[i];
        out << "    {\"label\": \"" << r.label
            << "\", \"cold_sec\": " << r.coldSec
            << ", \"serve_sec\": " << r.serveSec << ", \"prepare_ms\": ";
        if (r.removal)
            out << "null";
        else
            out << r.prepareMs;
        out << ", \"retimed\": " << (r.retimed ? "true" : "false")
            << ", \"seeded\": " << (r.seeded ? "true" : "false")
            << ", \"stale\": "
            << (r.stale ? "true" : "false") << ", \"identical\": "
            << (r.identical ? "true" : "false") << ", \"removal\": "
            << (r.removal ? "true" : "false") << ", \"verified\": "
            << (r.verified ? "true" : "false") << ", \"repeat_hit\": "
            << (r.repeatHit ? "true" : "false") << "}"
            << (i + 1 < rows.size() ? "," : "") << "\n";
    }
    out << "  ],\n"
        << "  \"cold_sec\": " << cold_sec << ",\n"
        << "  \"serve_sec\": " << serve_sec << ",\n"
        << "  \"max_ms\": " << max_ms << ",\n"
        << "  \"pass\": " << (pass ? "true" : "false") << "\n}\n";
    return static_cast<bool>(out);
}

/**
 * Time the retime a replan of @p inj runs before its search: the plan
 * @p service serves for the base instance, adapted to the drifted
 * query by prepareReplanSeed with the exact-phase license the service
 * computes. Sets @p row's prepareMs and retimed.
 */
void
timePrepare(PlanningService &service, const Injection &inj,
            const PlanQuery &drifted, Row &row)
{
    const PlanQuery &base = inj.request.base;
    const TesselOptions base_eff = base.effectiveOptions();
    const SharedPlan served = service.cache().getShared(
        service.fingerprint(base), base.placement, base_eff);
    if (!served)
        return;
    const TesselOptions eff = drifted.effectiveOptions();
    const Stopwatch watch;
    const ReplanSeed seed = prepareReplanSeed(
        drifted.placement, eff, *served.result, &inj.request.delta,
        phaseOptionsDigest(base_eff) == phaseOptionsDigest(eff));
    row.prepareMs = watch.seconds() * 1e3;
    row.retimed = seed.retimed;
}

} // namespace

int
main(int argc, char **argv)
{
    std::string json_path;
    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        if (a == "--json" && i + 1 < argc) {
            json_path = argv[++i];
        } else {
            std::cerr << "usage: bench_replan [--json PATH]\n";
            return 2;
        }
    }

    const int devices =
        static_cast<int>(envDouble("TESSEL_REPLAN_BENCH_DEVICES", 4));
    const double budget =
        envDouble("TESSEL_REPLAN_BENCH_BUDGET_SEC", 10.0);
    const double serve_budget =
        envDouble("TESSEL_REPLAN_SERVE_BUDGET_SEC", 0.25);
    const double max_ms = envDouble("TESSEL_REPLAN_MAX_MS", 2000.0);

    std::string base_dir, cold_dir;
    if (!makeTempDir("tessel-replan-base-", &base_dir) ||
        !makeTempDir("tessel-replan-cold-", &cold_dir)) {
        std::cerr << "cannot create temp cache dirs\n";
        return 1;
    }

    // Populate the store with the unperturbed batch (all variants, so
    // neighbor seeding on the failure path has material too).
    {
        ServiceOptions opts;
        opts.cacheDir = base_dir;
        PlanningService seed_service(opts);
        seed_service.runBatch(
            referenceShapeQueries(devices, /*include_hetero=*/true,
                                  budget));
    }

    ServiceOptions replan_opts;
    replan_opts.cacheDir = base_dir;
    replan_opts.replanBudgetSec = serve_budget;
    PlanningService replan_service(replan_opts);

    // Cold: seeding off, empty directory — planning from scratch.
    ServiceOptions cold_opts;
    cold_opts.cacheDir = cold_dir;
    cold_opts.neighborSeed = false;
    PlanningService cold_service(cold_opts);

    std::vector<Row> rows;
    double cold_total = 0.0, serve_total = 0.0;
    size_t stale_count = 0;
    bool all_identical = true, all_verified = true, all_hits = true,
         all_fast = true;
    for (Injection &inj : injections(devices, budget)) {
        Row row;
        row.label = inj.label;
        row.removal = inj.removal;

        const PlanQuery drifted = makeDriftedQuery(inj.request);

        QueryReport serve_report;
        const TesselResult served =
            replan_service.replan(inj.request, &serve_report);
        row.serveSec = serve_report.wallSec;
        row.stale = serve_report.stale;
        // A stale answer reports no seed, but only a seeded search can
        // run behind one.
        row.seeded = row.stale || !serve_report.seededFrom.empty();

        QueryReport cold_report;
        cold_service.runOne(drifted, &cold_report);
        row.coldSec = cold_report.wallSec;

        // Every served answer — fresh, stale, or degraded — must pass
        // the oracle against the instance it was served for.
        const VerifyOutcome ok = verifyResultAgainstQuery(
            drifted.placement, drifted.effectiveOptions(), served);
        row.verified = served.found && ok.ok;
        if (!row.verified)
            std::cout << row.label << ": verification failed: "
                      << ok.reason << "\n";

        // Once the background search lands, a repeat of the injection
        // is a store hit — and for drift rows, bit-identical to cold
        // (seed only prunes; the published replan IS the cold answer).
        replan_service.waitBackgroundReplans();
        QueryReport repeat_report;
        replan_service.replan(inj.request, &repeat_report);
        const std::string repeat_source = repeat_report.source;
        row.repeatHit =
            repeat_source == "memory" || repeat_source == "disk";
        row.identical = repeat_report.planHash == cold_report.planHash;
        if (!row.removal)
            timePrepare(replan_service, inj, drifted, row);

        all_identical = all_identical && (row.removal || row.identical);
        all_verified = all_verified && row.verified;
        all_hits = all_hits && row.repeatHit;
        all_fast = all_fast &&
                   (row.removal || max_ms <= 0.0 ||
                    row.serveSec * 1e3 <= max_ms);
        stale_count += row.stale ? 1 : 0;
        cold_total += row.coldSec;
        serve_total += row.serveSec;
        rows.push_back(std::move(row));
    }

    Table table("Elastic replanning: fault injection, time to serve vs "
                "cold search (" +
                std::to_string(devices) + " devices)");
    table.setHeader({"injection", "cold (ms)", "serve (ms)", "speedup",
                     "prepare (ms)", "seeded", "stale", "identical",
                     "verified", "repeat hit"});
    for (const Row &r : rows) {
        const double ratio =
            r.serveSec > 0.0 ? r.coldSec / r.serveSec : 0.0;
        table.addRow({r.label, fmtDouble(r.coldSec * 1e3, 2),
                      fmtDouble(r.serveSec * 1e3, 2),
                      fmtDouble(ratio, 1),
                      r.removal ? "n/a" : fmtDouble(r.prepareMs, 2),
                      r.seeded ? "yes" : "no", r.stale ? "yes" : "no",
                      r.removal ? "n/a" : (r.identical ? "yes" : "NO"),
                      r.verified ? "yes" : "NO",
                      r.repeatHit ? "yes" : "NO"});
    }
    table.print(std::cout);
    std::cout << "cold " << fmtDouble(cold_total, 3)
              << " s vs time-to-serve " << fmtDouble(serve_total, 3)
              << " s => "
              << fmtDouble(serve_total > 0.0 ? cold_total / serve_total
                                             : 0.0,
                           1)
              << "x; " << stale_count << "/" << rows.size()
              << " served stale\n";

    bool ok = all_identical && all_verified && all_hits && all_fast;
    if (!all_identical)
        std::cout << "FAIL: a published replan differs from its cold "
                     "plan (seed-only-prunes violated)\n";
    if (!all_verified)
        std::cout << "FAIL: a served plan failed oracle verification\n";
    if (!all_hits)
        std::cout << "FAIL: a repeated injection missed the store\n";
    if (!all_fast)
        std::cout << "FAIL: a drift replan served slower than "
                  << fmtDouble(max_ms, 0) << " ms\n";

    if (!json_path.empty() &&
        !writeJson(json_path, rows, cold_total, serve_total, max_ms,
                   ok)) {
        std::cerr << "cannot write " << json_path << "\n";
        return 1;
    }
    return ok ? 0 : 1;
}
