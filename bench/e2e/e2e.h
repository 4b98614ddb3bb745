/**
 * @file
 * Shared definitions of the end-to-end planner benchmark binary: the
 * run configuration, the outcome a workload reports, and the small
 * statistics and fixture helpers every workload uses.
 *
 * The benchmark talks to the planner only through its public functions
 * (PlanningService, ServiceLoop, PlanCache, fingerprint/serialize/
 * verify/adapt/replan entry points) and through fields those functions
 * already return. It adds no instrumentation to the library.
 */

#ifndef TESSEL_BENCH_E2E_E2E_H
#define TESSEL_BENCH_E2E_E2E_H

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "service/service.h"
#include "spans.h"

namespace e2e {

/** Devices per reference shape and the per-query search budget: the
 * `tessel_service` defaults. */
constexpr int kDevices = 4;
constexpr double kBudgetSec = 10.0;

/** Worker threads a workload may use: min(nproc, 4). */
int workerThreads();

struct Config
{
    std::string workload;
    uint64_t seed = 1;
    /** How long one run measures. */
    double seconds = 20.0;
    /** Run the traced pass (per-layer metrics) after the untraced one. */
    bool trace = false;
    /** Scratch directory for per-round stores (inside the checkout). */
    std::string workDir;
    /** Read-only fixture store: the reference batch, searched cold. */
    std::string fixtureDir;
    /** Chrome trace-event JSON output of the traced pass. */
    std::string traceOut;
};

/** What one workload run reports. */
struct Outcome
{
    /** End-to-end metrics (untraced pass only). */
    std::map<std::string, double> e2e;
    /** Per-layer metrics (traced pass; a few come from the untraced). */
    std::map<std::string, double> layers;
    /** Answers and invariants checked, and how many failed. */
    uint64_t attempted = 0;
    uint64_t failed = 0;
    /** First few failure descriptions. */
    std::vector<std::string> failures;
    /** Free-form run facts (round counts, percentile sample sizes). */
    std::map<std::string, double> info;

    /** Count one correctness check. */
    void check(bool ok, const std::string &what);
};

/** Deterministic 64-bit generator (splitmix64): the same seed yields
 * the same inputs on every platform. */
class Rng
{
  public:
    explicit Rng(uint64_t seed) : state_(seed) {}

    uint64_t next();

    /** A permutation of [0, n). */
    std::vector<size_t> permutation(size_t n);

  private:
    uint64_t state_;
};

/** Keep a computed value alive so the optimizer cannot drop the timed
 * call that produced it (the library is built with LTO). */
template <typename T>
inline void
keep(const T &value)
{
    asm volatile("" : : "g"(&value) : "memory");
}

/** Median of @p v (0 when empty). */
double median(std::vector<double> v);

/** Linearly interpolated @p q-quantile of @p v, q in [0, 1]. */
double quantile(std::vector<double> v, double q);

/** The 15 reference queries (`referenceShapeQueries(4, true, 10)`)
 * with the search's worker count pinned to @p threads. */
std::vector<tessel::PlanQuery> referenceQueries(int threads);

/** Whole-run makespan of a served plan at max(16, NR) micro-batches:
 * the quality of the schedule a caller would execute. */
double planMakespan(const tessel::TesselResult &result);

/** Whether @p result is found and passes the store's verification
 * oracle against the instance @p query describes. */
bool verified(const tessel::PlanQuery &query,
              const tessel::TesselResult &result);

/** Copy the fixture store into a fresh directory under the work dir
 * and return its path (the fixture itself is never opened). */
std::string copyFixture(const Config &cfg, const std::string &tag);

/** Fresh empty directory under the work dir. */
std::string freshDir(const Config &cfg, const std::string &tag);

/** Recursively delete a directory made by copyFixture/freshDir. */
void removeDir(const std::string &dir);

/** The fixture's answer to one reference query. */
struct FixturePlan
{
    tessel::Hash128 fingerprint;
    std::string planHash;
    tessel::TesselResult result;
};

/**
 * Load every reference query's plan from a copy of the fixture with
 * verification on load, checking each is present and verified.
 * @return plans keyed by query label.
 */
std::map<std::string, FixturePlan>
loadFixture(const Config &cfg, const std::vector<tessel::PlanQuery> &queries,
            Outcome &out);

Outcome runColdPlan(const Config &cfg);
Outcome runHotServe(const Config &cfg);
Outcome runNearMiss(const Config &cfg);
Outcome runDriftReplan(const Config &cfg);

} // namespace e2e

#endif // TESSEL_BENCH_E2E_E2E_H
