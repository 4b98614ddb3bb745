/**
 * @file
 * Neighbor-seeding study: how much cheaper a plan-store *miss* becomes
 * when the store holds a similar — not identical — instance.
 *
 * Protocol: populate a cache directory with the reference-shape batch,
 * then sweep the canonical one-knob perturbation of every stored query:
 * one more micro-batch of NR-sweep headroom (maxRepetendMicrobatches
 * + 1). Each perturbed query fingerprints differently from everything
 * stored (the NR cap is hashed), so it can never be a cache hit; it is
 * answered twice:
 *
 *   cold — a service with seeding disabled on an empty directory
 *          (the full Algorithm 1 sweep), and
 *   warm — a fresh service on the populated directory with seeding
 *          enabled (neighbor lookup -> plan adaptation -> seeded
 *          search).
 *
 * Both paths end in a real search, so equal plan digests per query
 * certify the seed-only-prunes invariant end to end: the warm answer
 * must be bit-identical to cold, just cheaper to reach. Exits nonzero
 * when any plan differs, any perturbed query fails to seed, or the
 * aggregate cold/warm speedup falls below TESSEL_NEIGHBOR_MIN_SPEEDUP
 * (default 5; set 0 to only report).
 *
 * A second, counter pass answers the same perturbed queries on fresh
 * stores with no deadline and one sweep thread, cold and seeded, and
 * sums their value sweeps and solved candidates. At one sweep thread
 * those sums are a pure function of the instances, so the cold/seeded
 * counter ratios gate what seeding saves without the host noise of the
 * wall ratio; the bench also exits nonzero when either falls below its
 * floor (kMinSweepRatio, kMinCandidateRatio).
 *
 * Env knobs:
 *   TESSEL_NEIGHBOR_BENCH_DEVICES     devices per shape (default 4)
 *   TESSEL_NEIGHBOR_BENCH_BUDGET_SEC  per-query budget (default 10)
 *   TESSEL_NEIGHBOR_MIN_SPEEDUP       minimum cold/warm ratio (default 5)
 *
 * `--json PATH` archives the per-query numbers (BENCH_neighbor.json in
 * CI, uploaded next to BENCH_solver.json).
 */

#include <cstdlib>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "service/service.h"
#include "store/serialize.h"
#include "support/io.h"
#include "support/table.h"

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

/** The canonical one-knob perturbation of every stored query: one more
 * micro-batch of NR-sweep headroom. The placement, cluster, memory
 * model, node cap and deadlines all stay put, so the neighbor index
 * maps each perturbed query straight back to its base instance and
 * adaptation takes the fast path with exactly-reusable phase
 * schedules; the deeper sweep itself still runs for real on both
 * sides. (Cost-moving knobs — link speeds, an extra stage — are
 * exercised by tests/test_neighbor.cc; this bench measures the
 * sweep-dominated regime its speedup floor gates.) */
std::vector<PlanQuery>
perturbedQueries(int devices, double budget_sec)
{
    std::vector<PlanQuery> out;
    for (const PlanQuery &base :
         referenceShapeQueries(devices, /*include_hetero=*/true,
                               budget_sec)) {
        PlanQuery q = base;
        q.options.maxRepetendMicrobatches += 1;
        q.label = base.label + "/nr-cap+1";
        out.push_back(std::move(q));
    }
    return out;
}

/**
 * Floors of the counter pass's cold/seeded ratios. Measured on the 15
 * perturbed reference queries at 4 devices: value sweeps 2,413,133 cold
 * vs 1,831,510 seeded (1.32x); candidates 60,348 on both sides (1.00x:
 * a seed prunes inside each candidate's solve but skips none of them).
 */
constexpr double kMinSweepRatio = 1.3;
constexpr double kMinCandidateRatio = 1.0;

/** Search effort summed over one pass of queries. */
struct Effort
{
    uint64_t valueSweeps = 0;
    uint64_t candidates = 0;
};

double
ratio(uint64_t cold, uint64_t seeded)
{
    return seeded > 0 ? static_cast<double>(cold) / seeded : 0.0;
}

/**
 * Counter pass: answer @p queries, with no deadline and one sweep
 * thread, on a fresh empty store with seeding off (cold) and on a fresh
 * store holding the unperturbed batch with seeding on (seeded). Sets
 * @p cold and @p seeded; false when a temp store cannot be created.
 */
bool
counterPass(int devices, const std::vector<PlanQuery> &queries,
            Effort *cold, Effort *seeded)
{
    std::string base_dir, cold_dir;
    if (!makeTempDir("tessel-neighbor-count-base-", &base_dir) ||
        !makeTempDir("tessel-neighbor-count-cold-", &cold_dir))
        return false;
    {
        ServiceOptions opts;
        opts.cacheDir = base_dir;
        PlanningService(opts).runBatch(referenceShapeQueries(
            devices, /*include_hetero=*/true, /*budget_sec=*/0.0));
    }
    ServiceOptions cold_opts;
    cold_opts.cacheDir = cold_dir;
    cold_opts.neighborSeed = false;
    ServiceOptions seeded_opts;
    seeded_opts.cacheDir = base_dir;
    seeded_opts.neighborSeed = true;
    PlanningService cold_service(cold_opts), seeded_service(seeded_opts);
    auto add = [](Effort *e, const TesselResult &r) {
        e->valueSweeps += r.breakdown.valueSweeps;
        e->candidates += r.breakdown.candidatesSolved;
    };
    for (PlanQuery q : queries) {
        q.options.numThreads = 1;
        add(cold, cold_service.runOne(q));
        add(seeded, seeded_service.runOne(q));
    }
    return true;
}

struct Row
{
    std::string label;
    double coldSec = 0.0;
    double warmSec = 0.0;
    bool identical = false;
    bool seeded = false;
    uint64_t seedNodesPruned = 0;
};

bool
writeJson(const std::string &path, const std::vector<Row> &rows,
          double cold_sec, double warm_sec, double speedup,
          double min_speedup, const Effort &cold, const Effort &seeded,
          bool pass)
{
    std::ofstream out(path);
    if (!out)
        return false;
    out << "{\n  \"queries\": [\n";
    for (size_t i = 0; i < rows.size(); ++i) {
        const Row &r = rows[i];
        out << "    {\"label\": \"" << r.label
            << "\", \"cold_sec\": " << r.coldSec
            << ", \"warm_sec\": " << r.warmSec << ", \"identical\": "
            << (r.identical ? "true" : "false")
            << ", \"seeded\": " << (r.seeded ? "true" : "false")
            << ", \"seed_nodes_pruned\": " << r.seedNodesPruned << "}"
            << (i + 1 < rows.size() ? "," : "") << "\n";
    }
    out << "  ],\n"
        << "  \"cold_sec\": " << cold_sec << ",\n"
        << "  \"warm_sec\": " << warm_sec << ",\n"
        << "  \"speedup\": " << speedup << ",\n"
        << "  \"min_speedup\": " << min_speedup << ",\n"
        << "  \"counters\": {\"cold_value_sweeps\": " << cold.valueSweeps
        << ", \"seeded_value_sweeps\": " << seeded.valueSweeps
        << ", \"sweep_ratio\": "
        << ratio(cold.valueSweeps, seeded.valueSweeps)
        << ", \"min_sweep_ratio\": " << kMinSweepRatio
        << ", \"cold_candidates\": " << cold.candidates
        << ", \"seeded_candidates\": " << seeded.candidates
        << ", \"candidate_ratio\": "
        << ratio(cold.candidates, seeded.candidates)
        << ", \"min_candidate_ratio\": " << kMinCandidateRatio << "},\n"
        << "  \"pass\": " << (pass ? "true" : "false") << "\n}\n";
    return static_cast<bool>(out);
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
            std::cerr << "usage: bench_neighbor_seed [--json PATH]\n";
            return 2;
        }
    }

    const int devices = static_cast<int>(
        envDouble("TESSEL_NEIGHBOR_BENCH_DEVICES", 4));
    const double budget =
        envDouble("TESSEL_NEIGHBOR_BENCH_BUDGET_SEC", 10.0);
    const double min_speedup =
        envDouble("TESSEL_NEIGHBOR_MIN_SPEEDUP", 5.0);

    std::string base_dir, cold_dir;
    if (!makeTempDir("tessel-neighbor-base-", &base_dir) ||
        !makeTempDir("tessel-neighbor-cold-", &cold_dir)) {
        std::cerr << "cannot create temp cache dirs\n";
        return 1;
    }

    // Populate the store with the unperturbed batch.
    {
        ServiceOptions opts;
        opts.cacheDir = base_dir;
        PlanningService seed_service(opts);
        seed_service.runBatch(
            referenceShapeQueries(devices, /*include_hetero=*/true,
                                  budget));
    }

    const std::vector<PlanQuery> perturbed =
        perturbedQueries(devices, budget);

    // Cold: seeding off, empty directory — the pure Algorithm 1 cost.
    ServiceOptions cold_opts;
    cold_opts.cacheDir = cold_dir;
    cold_opts.neighborSeed = false;
    PlanningService cold_service(cold_opts);

    // Warm: seeding on, sharing the populated directory. A fresh
    // service, so even its memory tier starts empty — everything the
    // warm path saves comes from the neighbor index and adaptation.
    ServiceOptions warm_opts;
    warm_opts.cacheDir = base_dir;
    warm_opts.neighborSeed = true;
    PlanningService warm_service(warm_opts);

    std::vector<Row> rows;
    double cold_total = 0.0, warm_total = 0.0;
    size_t seeded = 0;
    bool all_identical = true, all_seeded = true;
    for (const PlanQuery &q : perturbed) {
        Row row;
        row.label = q.label;

        QueryReport cold_report;
        cold_service.runOne(q, &cold_report);
        row.coldSec = cold_report.wallSec;

        QueryReport warm_report;
        warm_service.runOne(q, &warm_report);
        row.warmSec = warm_report.wallSec;

        row.identical = cold_report.planHash == warm_report.planHash;
        row.seeded = !warm_report.seededFrom.empty();
        row.seedNodesPruned = warm_report.seedNodesPruned;
        all_identical = all_identical && row.identical;
        all_seeded = all_seeded && row.seeded;
        seeded += row.seeded ? 1 : 0;
        cold_total += row.coldSec;
        warm_total += row.warmSec;
        rows.push_back(std::move(row));
    }

    Table table("Neighbor-seeded search: cold miss vs warm-neighbor "
                "miss (" +
                std::to_string(devices) + " devices)");
    table.setHeader({"query", "cold (ms)", "warm (ms)", "speedup",
                     "seeded", "seed prunes", "plan identical"});
    for (const Row &r : rows) {
        const double ratio = r.warmSec > 0.0 ? r.coldSec / r.warmSec : 0.0;
        table.addRow({r.label, fmtDouble(r.coldSec * 1e3, 2),
                      fmtDouble(r.warmSec * 1e3, 2), fmtDouble(ratio, 1),
                      r.seeded ? "yes" : "NO",
                      std::to_string(r.seedNodesPruned),
                      r.identical ? "yes" : "NO"});
    }
    table.print(std::cout);

    const double speedup =
        warm_total > 0.0 ? cold_total / warm_total : 0.0;
    std::cout << "cold " << fmtDouble(cold_total, 3) << " s vs warm "
              << fmtDouble(warm_total, 3) << " s => "
              << fmtDouble(speedup, 1) << "x; " << seeded << "/"
              << rows.size() << " queries seeded\n";

    bool ok = all_identical && all_seeded;
    if (!all_identical)
        std::cout << "FAIL: a warm plan differs from its cold plan "
                     "(seed-only-prunes violated)\n";
    if (!all_seeded)
        std::cout << "FAIL: a perturbed query failed to seed from its "
                     "base instance\n";
    if (min_speedup > 0.0 && speedup < min_speedup) {
        std::cout << "FAIL: speedup " << fmtDouble(speedup, 1)
                  << "x below required " << fmtDouble(min_speedup, 1)
                  << "x\n";
        ok = false;
    }

    Effort cold_effort, seeded_effort;
    if (!counterPass(devices, perturbedQueries(devices, 0.0), &cold_effort,
                     &seeded_effort)) {
        std::cerr << "cannot create temp cache dirs\n";
        return 1;
    }
    const double sweep_ratio =
        ratio(cold_effort.valueSweeps, seeded_effort.valueSweeps);
    const double candidate_ratio =
        ratio(cold_effort.candidates, seeded_effort.candidates);
    std::cout << "one sweep thread: value sweeps cold "
              << cold_effort.valueSweeps << " vs seeded "
              << seeded_effort.valueSweeps << " => "
              << fmtDouble(sweep_ratio, 2) << "x (floor "
              << fmtDouble(kMinSweepRatio, 2) << "x); candidates cold "
              << cold_effort.candidates << " vs seeded "
              << seeded_effort.candidates << " => "
              << fmtDouble(candidate_ratio, 2) << "x (floor "
              << fmtDouble(kMinCandidateRatio, 2) << "x)\n";
    if (sweep_ratio < kMinSweepRatio ||
        candidate_ratio < kMinCandidateRatio) {
        std::cout << "FAIL: seeding saves fewer value sweeps or "
                     "candidates than measured\n";
        ok = false;
    }

    if (!json_path.empty() &&
        !writeJson(json_path, rows, cold_total, warm_total, speedup,
                   min_speedup, cold_effort, seeded_effort, ok)) {
        std::cerr << "cannot write " << json_path << "\n";
        return 1;
    }
    return ok ? 0 : 1;
}
