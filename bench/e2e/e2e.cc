/**
 * @file
 * `tessel_e2e`: one workload of the end-to-end planner benchmark per
 * process. Normally started by bench/e2e/run.py, which builds it, keeps
 * the fixture store, and turns the result file into the benchmark's
 * report; see README.md in this directory.
 *
 *   tessel_e2e --build-fixture DIR --out FILE
 *   tessel_e2e --workload NAME --seed N --seconds S --trace 0|1
 *              --work-dir DIR --fixture DIR --out FILE [--trace-out FILE]
 *
 * Exit status: 0 when every answer checked out, 1 when any check
 * failed (the result file is still written), 2 on a usage or set-up
 * error (no result file).
 */

#include "e2e.h"

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <thread>

#include "store/serialize.h"
#include "store/store.h"
#include "support/timer.h"

namespace fs = std::filesystem;
using namespace tessel;

namespace e2e {

int
workerThreads()
{
    const unsigned hw = std::thread::hardware_concurrency();
    return static_cast<int>(std::clamp(hw, 1u, 4u));
}

void
Outcome::check(bool ok, const std::string &what)
{
    ++attempted;
    if (ok)
        return;
    ++failed;
    if (failures.size() < 20)
        failures.push_back(what);
}

uint64_t
Rng::next()
{
    uint64_t z = (state_ += 0x9e3779b97f4a7c15ull);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
}

std::vector<size_t>
Rng::permutation(size_t n)
{
    std::vector<size_t> p(n);
    for (size_t i = 0; i < n; ++i)
        p[i] = i;
    for (size_t i = n; i > 1; --i)
        std::swap(p[i - 1], p[next() % i]);
    return p;
}

double
median(std::vector<double> v)
{
    return quantile(std::move(v), 0.5);
}

double
quantile(std::vector<double> v, double q)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const double pos = q * static_cast<double>(v.size() - 1);
    const size_t lo = static_cast<size_t>(std::floor(pos));
    const size_t hi = std::min(lo + 1, v.size() - 1);
    return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

std::vector<PlanQuery>
referenceQueries(int threads)
{
    std::vector<PlanQuery> queries =
        referenceShapeQueries(kDevices, /*include_hetero=*/true, kBudgetSec);
    for (PlanQuery &q : queries)
        q.options.numThreads = threads;
    return queries;
}

double
planMakespan(const TesselResult &result)
{
    if (!result.found)
        return 0.0;
    return static_cast<double>(result.plan.makespanFor(
        std::max(16, result.plan.minMicrobatches())));
}

bool
verified(const PlanQuery &query, const TesselResult &result)
{
    return result.found &&
           verifyResultAgainstQuery(query.placement, query.effectiveOptions(),
                                    result)
               .ok;
}

namespace {

std::string
uniqueName(const Config &cfg, const std::string &tag)
{
    static uint64_t counter = 0;
    return cfg.workDir + "/" + tag + "-" + std::to_string(++counter);
}

} // namespace

std::string
copyFixture(const Config &cfg, const std::string &tag)
{
    const std::string dir = uniqueName(cfg, tag);
    fs::remove_all(dir);
    fs::copy(cfg.fixtureDir + "/store", dir, fs::copy_options::recursive);
    return dir;
}

std::string
freshDir(const Config &cfg, const std::string &tag)
{
    const std::string dir = uniqueName(cfg, tag);
    fs::remove_all(dir);
    fs::create_directories(dir);
    return dir;
}

void
removeDir(const std::string &dir)
{
    std::error_code ec;
    fs::remove_all(dir, ec);
}

std::map<std::string, FixturePlan>
loadFixture(const Config &cfg, const std::vector<PlanQuery> &queries,
            Outcome &out)
{
    std::map<std::string, FixturePlan> plans;
    const std::string dir = copyFixture(cfg, "fixture-load");
    {
        PlanCache cache(dir);
        for (const PlanQuery &q : queries) {
            const TesselOptions eff = q.effectiveOptions();
            FixturePlan fp;
            fp.fingerprint = fingerprintQuery(q.placement, eff);
            PlanCache::Source source = PlanCache::Source::Miss;
            std::optional<TesselResult> r =
                cache.get(fp.fingerprint, q.placement, eff, &source);
            const bool ok = r && source == PlanCache::Source::Disk &&
                            verified(q, *r);
            out.check(ok, "fixture entry missing or unverified: " + q.label);
            if (!ok)
                continue;
            fp.result = std::move(*r);
            fp.planHash = resultPlanDigest(fp.result).hex();
            plans.emplace(q.label, std::move(fp));
        }
    }
    removeDir(dir);
    return plans;
}

namespace {

/** Search the reference batch cold into @p storeDir (the fixture).
 * @return batch wall seconds, or a negative value on failure. */
double
buildFixtureStore(const std::string &storeDir)
{
    const int threads = workerThreads();
    ServiceOptions so;
    so.cacheDir = storeDir;
    so.numThreads = threads;
    PlanningService service(so);
    const std::vector<PlanQuery> queries = referenceQueries(threads);
    const Stopwatch watch;
    const BatchReport report = service.runBatch(queries);
    const double wall = watch.seconds();
    for (const QueryReport &q : report.queries) {
        if (!q.found) {
            std::cerr << "fixture: no plan for " << q.label << "\n";
            return -1.0;
        }
    }
    return wall;
}

} // namespace

} // namespace e2e

namespace {

using e2e::Config;
using e2e::Outcome;

void
writeNumber(std::ostream &os, double v)
{
    if (!std::isfinite(v)) {
        os << "null";
        return;
    }
    char buf[32];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    os << buf;
}

void
writeMap(std::ostream &os, const std::map<std::string, double> &m)
{
    os << "{";
    bool first = true;
    for (const auto &[k, v] : m) {
        os << (first ? "" : ", ") << "\"" << k << "\": ";
        writeNumber(os, v);
        first = false;
    }
    os << "}";
}

std::string
jsonString(const std::string &s)
{
    return "\"" + e2e::jsonEscape(s) + "\"";
}

bool
writeOutcome(const std::string &path, const Config &cfg, const Outcome &o)
{
    std::ofstream os(path);
    if (!os)
        return false;
    os << "{\"workload\": " << jsonString(cfg.workload)
       << ", \"seed\": " << cfg.seed << ", \"trace\": " << (cfg.trace ? 1 : 0)
       << ", \"threads\": " << e2e::workerThreads()
       << ", \"correct\": " << (o.failed == 0 ? "true" : "false")
       << ", \"attempted\": " << o.attempted << ", \"failed\": " << o.failed
       << ", \"failures\": [";
    for (size_t i = 0; i < o.failures.size(); ++i)
        os << (i ? ", " : "") << jsonString(o.failures[i]);
    os << "], \"e2e\": ";
    writeMap(os, o.e2e);
    os << ", \"layers\": ";
    writeMap(os, o.layers);
    os << ", \"info\": ";
    writeMap(os, o.info);
    os << "}\n";
    return static_cast<bool>(os);
}

double
peakRssMb()
{
    struct rusage ru {};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0; // ru_maxrss is KiB
}

/**
 * Milliseconds a fixed integer kernel, independent of the library,
 * takes right now: a reading of how fast the host runs this process.
 * It is recorded beside the metrics and never used to adjust them, so a
 * comparison can tell a host that slowed down from a slower program.
 */
double
hostCalibrationMs()
{
    std::vector<double> ms;
    for (uint64_t rep = 0; rep < 5; ++rep) {
        const auto t0 = std::chrono::steady_clock::now();
        e2e::Rng rng(rep);
        uint64_t acc = 0;
        for (int i = 0; i < (1 << 21); ++i)
            acc += rng.next() >> 7;
        e2e::keep(acc);
        ms.push_back(std::chrono::duration<double, std::milli>(
                         std::chrono::steady_clock::now() - t0)
                         .count());
    }
    return e2e::median(ms);
}

int
usage()
{
    std::cerr << "usage: tessel_e2e --build-fixture DIR --out FILE\n"
                 "       tessel_e2e --workload NAME --seed N --seconds S "
                 "--trace 0|1 --work-dir DIR --fixture DIR --out FILE "
                 "[--trace-out FILE]\n";
    return 2;
}

} // namespace

int
main(int argc, char **argv)
{
    Config cfg;
    std::string out_path, fixture_build;
    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        if (i + 1 >= argc)
            return usage();
        const std::string v = argv[++i];
        if (a == "--workload")
            cfg.workload = v;
        else if (a == "--seed")
            cfg.seed = std::strtoull(v.c_str(), nullptr, 10);
        else if (a == "--seconds")
            cfg.seconds = std::atof(v.c_str());
        else if (a == "--trace")
            cfg.trace = v == "1";
        else if (a == "--work-dir")
            cfg.workDir = v;
        else if (a == "--fixture")
            cfg.fixtureDir = v;
        else if (a == "--trace-out")
            cfg.traceOut = v;
        else if (a == "--out")
            out_path = v;
        else if (a == "--build-fixture")
            fixture_build = v;
        else
            return usage();
    }
    if (out_path.empty())
        return usage();

    if (!fixture_build.empty()) {
        const double wall = e2e::buildFixtureStore(fixture_build + "/store");
        if (wall < 0.0)
            return 1;
        std::ofstream os(out_path);
        os << "{\"fixture_batch_s\": ";
        writeNumber(os, wall);
        os << "}\n";
        return os ? 0 : 2;
    }

    if (cfg.workDir.empty() || cfg.fixtureDir.empty() || cfg.seconds <= 0.0)
        return usage();
    std::error_code ec;
    fs::create_directories(cfg.workDir, ec);
    if (ec || !fs::exists(cfg.fixtureDir + "/store")) {
        std::cerr << "tessel_e2e: missing work dir or fixture store\n";
        return 2;
    }

    const double calibrationBefore = hostCalibrationMs();
    Outcome outcome;
    if (cfg.workload == "cold-plan")
        outcome = e2e::runColdPlan(cfg);
    else if (cfg.workload == "hot-serve")
        outcome = e2e::runHotServe(cfg);
    else if (cfg.workload == "near-miss")
        outcome = e2e::runNearMiss(cfg);
    else if (cfg.workload == "drift-replan")
        outcome = e2e::runDriftReplan(cfg);
    else
        return usage();
    outcome.layers["process.peak_rss_mb"] = peakRssMb();
    outcome.info["host_calibration_ms"] =
        (calibrationBefore + hostCalibrationMs()) / 2.0;

    if (!writeOutcome(out_path, cfg, outcome)) {
        std::cerr << "tessel_e2e: cannot write " << out_path << "\n";
        return 2;
    }
    for (const std::string &f : outcome.failures)
        std::cerr << "FAIL: " << f << "\n";
    return outcome.failed == 0 ? 0 : 1;
}
