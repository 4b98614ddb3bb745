/**
 * @file
 * google-benchmark microbenchmarks for the solver substrate: repetend
 * period solves, completion-phase solves, decision checks, and the
 * dominance-memo ablation. These quantify the per-candidate costs that
 * Fig. 10's breakdown aggregates.
 */

#include <benchmark/benchmark.h>

#include <string>
#include <vector>

#include "bench/common.h"
#include "core/repetend.h"
#include "core/repetend_solver.h"
#include "core/search.h"
#include "placement/shapes.h"
#include "solver/bnb.h"
#include "solver/from_ir.h"
#include "support/timer.h"

namespace tessel {
namespace {

void
BM_RepetendSolveVShape(benchmark::State &state)
{
    const Placement p = makeVShape(4);
    RepetendAssignment a;
    a.r = {3, 2, 1, 0, 0, 0, 0, 0};
    a.numMicrobatches = 4;
    for (auto _ : state) {
        auto sched = solveRepetend(p, a);
        benchmark::DoNotOptimize(sched.period);
    }
}
BENCHMARK(BM_RepetendSolveVShape);

void
BM_RepetendSolveMShape(benchmark::State &state)
{
    const Placement p = makeMShape(4);
    const auto all = allRepetends(p, static_cast<int>(state.range(0)));
    size_t i = 0;
    for (auto _ : state) {
        auto sched = solveRepetend(p, all[i++ % all.size()]);
        benchmark::DoNotOptimize(sched.feasible);
    }
}
BENCHMARK(BM_RepetendSolveMShape)->Arg(2)->Arg(4)->Arg(6);

void
BM_RepetendEnumeration(benchmark::State &state)
{
    const Placement p = makeNnShape(4);
    for (auto _ : state) {
        int count = enumerateRepetends(
            p, static_cast<int>(state.range(0)),
            [](const RepetendAssignment &) { return true; });
        benchmark::DoNotOptimize(count);
    }
}
BENCHMARK(BM_RepetendEnumeration)->Arg(3)->Arg(4)->Arg(5);

/**
 * The repetend constraint system of a placement under one assignment:
 * dependency edges (h = index gap, w = producer span) plus per-device
 * instance-separation pairs (h = 1) — the same static system
 * PeriodSearch roots its branch-and-bound on, here exposed raw so the
 * MCR kernel is measurable in isolation.
 */
struct KernelInstance
{
    int nodes = 0;
    std::vector<PeriodEdge> edges;
    Time hi = 0;
};

KernelInstance
kernelInstance(const Placement &p, const RepetendAssignment &a)
{
    KernelInstance k;
    k.nodes = p.numBlocks();
    for (int j = 0; j < k.nodes; ++j)
        for (int i : p.block(j).deps)
            k.edges.push_back({i, j, p.block(i).span, a.r[i] - a.r[j]});
    for (DeviceId d = 0; d < p.numDevices(); ++d) {
        const auto &on = p.blocksOnDevice(d);
        for (int b : on)
            for (int c : on)
                if (c != b)
                    k.edges.push_back({b, c, p.block(b).span, 1});
    }
    k.hi = p.totalWork();
    return k;
}

KernelInstance
kernelInstanceByShape(int shape)
{
    const Placement p = shape == 0   ? makeVShape(4)
                        : shape == 1 ? makeMShape(4)
                                     : makeNnShape(4);
    const auto all = allRepetends(p, 3);
    return kernelInstance(p, all[all.size() / 2]);
}

/** Isolated MCR kernel: Arg0 selects the shape (0=V, 1=M, 2=NN). */
void
BM_MinPeriodHoward(benchmark::State &state)
{
    const KernelInstance k =
        kernelInstanceByShape(static_cast<int>(state.range(0)));
    for (auto _ : state) {
        auto r = solveMinPeriod(k.nodes, k.edges, 1, k.hi);
        benchmark::DoNotOptimize(r.period);
    }
}
BENCHMARK(BM_MinPeriodHoward)->Arg(0)->Arg(1)->Arg(2);

/**
 * Warm kernel call on a grown system (the BnB child-probe pattern):
 * solve, append one ordering decision edge, re-solve seeded with the
 * parent's potentials + policy. Compare against BM_MinPeriodHoward for
 * the cold-vs-warm kernel gap.
 */
void
BM_MinPeriodHowardWarm(benchmark::State &state)
{
    KernelInstance k =
        kernelInstanceByShape(static_cast<int>(state.range(0)));
    const McrSolveResult parent =
        solveMinPeriod(k.nodes, k.edges, 1, k.hi);
    k.edges.push_back({0, 1, 1, 0});
    const McrWarmStart warm{&parent.start, parent.period,
                            &parent.policy};
    for (auto _ : state) {
        auto r =
            solveMinPeriod(k.nodes, k.edges, parent.period, k.hi, warm);
        benchmark::DoNotOptimize(r.period);
    }
}
BENCHMARK(BM_MinPeriodHowardWarm)->Arg(0)->Arg(1)->Arg(2);

void
BM_ToSolve(benchmark::State &state)
{
    Problem prob(makeVShape(4), static_cast<int>(state.range(0)));
    const SolverProblem sp = buildFullInstance(prob);
    for (auto _ : state) {
        BnbSolver solver(sp);
        auto r = solver.minimizeMakespan();
        benchmark::DoNotOptimize(r.makespan);
    }
}
BENCHMARK(BM_ToSolve)->Arg(2)->Arg(4)->Arg(6);

void
BM_ToSolveNoDominance(benchmark::State &state)
{
    Problem prob(makeVShape(4), static_cast<int>(state.range(0)));
    const SolverProblem sp = buildFullInstance(prob);
    SolverOptions opts;
    opts.useDominance = false;
    for (auto _ : state) {
        BnbSolver solver(sp, opts);
        auto r = solver.minimizeMakespan();
        benchmark::DoNotOptimize(r.makespan);
    }
}
// Larger instances without the dominance memo run for minutes (the
// blow-up the memo exists to prevent); keep the ablation tractable.
BENCHMARK(BM_ToSolveNoDominance)->Arg(2)->Arg(3);

void
BM_DecisionCheck(benchmark::State &state)
{
    Problem prob(makeVShape(4), 4);
    const SolverProblem sp = buildFullInstance(prob);
    for (auto _ : state) {
        BnbSolver solver(sp);
        auto r = solver.decide(21); // The known optimum for N=4.
        benchmark::DoNotOptimize(r.status);
    }
}
BENCHMARK(BM_DecisionCheck);

void
BM_FullSearchKShape(benchmark::State &state)
{
    const Placement p = makeKShape(4);
    for (auto _ : state) {
        TesselOptions opts;
        opts.totalBudgetSec = 30.0;
        auto r = tesselSearch(p, opts);
        benchmark::DoNotOptimize(r.period);
    }
}
BENCHMARK(BM_FullSearchKShape);

/**
 * Composite end-to-end search on the GPT M-shape, single-threaded so
 * per-iteration time tracks pure solver cost (the composite bench the
 * BENCH_solver.json trajectory locks).
 */
void
BM_FullSearchMShape(benchmark::State &state)
{
    const Placement p = makeMShape(4);
    for (auto _ : state) {
        TesselOptions opts;
        opts.totalBudgetSec = 30.0;
        opts.numThreads = 1;
        auto r = tesselSearch(p, opts);
        benchmark::DoNotOptimize(r.period);
    }
}
BENCHMARK(BM_FullSearchMShape)->Unit(benchmark::kMillisecond);

/**
 * One-thread vs pooled candidate sweep: Arg is
 * TesselOptions::numThreads (1 sweeps inline with no pool, 2 and 4
 * on a pool). Every thread count returns the identical plan, so the
 * per-iteration time difference is pure sweep speedup.
 */
void
BM_ParallelSearchMShape(benchmark::State &state)
{
    const Placement p = makeMShape(4);
    for (auto _ : state) {
        TesselOptions opts;
        opts.totalBudgetSec = 30.0;
        opts.numThreads = static_cast<int>(state.range(0));
        auto r = tesselSearch(p, opts);
        benchmark::DoNotOptimize(r.period);
    }
}
BENCHMARK(BM_ParallelSearchMShape)->Arg(1)->Arg(2)->Arg(4)
    ->Unit(benchmark::kMillisecond);

/**
 * --json mode: run the composite FullSearch workloads once each with
 * deterministic single-threaded settings and write wall time plus the
 * solver effort counters (nodes, period-kernel value sweeps) to
 * @p path in the BENCH_solver.json schema, then the isolated MCR kernel
 * and one BnB phase-sized solve. CI archives the file per commit, making
 * solver perf regressions diffable; a changed `nodes` on the BnB row
 * means a changed search tree.
 */
int
runJsonReport(const std::string &path)
{
    struct Work
    {
        const char *name;
        Placement placement;
    };
    const Work works[] = {
        {"FullSearchVShape", makeVShape(4)},
        {"FullSearchKShape", makeKShape(4)},
        {"FullSearchMShape", makeMShape(4)},
        {"FullSearchNnShape", makeNnShape(4)},
    };
    std::vector<bench::BenchJsonRow> rows;
    for (const Work &w : works) {
        TesselOptions opts;
        opts.totalBudgetSec = 60.0;
        opts.numThreads = 1;
        Stopwatch watch;
        const TesselResult r = tesselSearch(w.placement, opts);
        bench::BenchJsonRow row;
        row.bench = w.name;
        row.wallMs = watch.milliseconds();
        row.nodes = r.breakdown.solverNodes;
        row.valueSweeps = r.breakdown.valueSweeps;
        row.policyImprovements = r.breakdown.policyImprovements;
        rows.push_back(row);
        std::cout << row.bench << ": wall_ms=" << row.wallMs
                  << " nodes=" << row.nodes
                  << " value_sweeps=" << row.valueSweeps
                  << " policy_improvements=" << row.policyImprovements
                  << " period=" << r.period << "\n";
    }
    // Isolated MCR kernel rows.
    const struct
    {
        const char *name;
        int shape;
    } kernels[] = {
        {"MinPeriodHowardMShape", 1},
        {"MinPeriodHowardNnShape", 2},
    };
    for (const auto &kb : kernels) {
        const KernelInstance k = kernelInstanceByShape(kb.shape);
        constexpr int kReps = 2000;
        Stopwatch watch;
        McrSolveResult last;
        for (int i = 0; i < kReps; ++i) {
            last = solveMinPeriod(k.nodes, k.edges, 1, k.hi);
            benchmark::DoNotOptimize(last.period);
        }
        bench::BenchJsonRow row;
        row.bench = kb.name;
        row.wallMs = watch.milliseconds();
        row.valueSweeps = last.stats.valueSweeps;
        row.policyImprovements = last.stats.policyImprovements;
        rows.push_back(row);
        std::cout << row.bench << ": wall_ms=" << row.wallMs << " ("
                  << kReps << " solves) value_sweeps=" << row.valueSweeps
                  << " policy_improvements=" << row.policyImprovements
                  << " period=" << last.period << "\n";
    }
    // One BnB minimize on the 216-block NN-shape instance (12
    // micro-batches, memory cap 4): a warmup/cooldown-sized solve whose
    // scheduled sets span four key words.
    {
        Problem prob(makeNnShape(4), 12, 4);
        const SolverProblem sp = buildFullInstance(prob);
        Stopwatch watch;
        BnbSolver solver(sp);
        const SolveResult r = solver.minimizeMakespan();
        bench::BenchJsonRow row;
        row.bench = "PhaseSolveNnShape12";
        row.wallMs = watch.milliseconds();
        row.nodes = r.stats.nodes;
        rows.push_back(row);
        std::cout << row.bench << ": wall_ms=" << row.wallMs
                  << " nodes=" << row.nodes
                  << " memo_hits=" << r.stats.memoHits
                  << " makespan=" << r.makespan << "\n";
    }
    if (!bench::writeBenchJson(path, rows)) {
        std::cerr << "failed to write " << path << "\n";
        return 1;
    }
    std::cout << "wrote " << path << "\n";
    return 0;
}

} // namespace
} // namespace tessel

int
main(int argc, char **argv)
{
    // Strip the Tessel-specific --json flag before handing the rest to
    // google-benchmark (which rejects unknown arguments).
    std::string json_path;
    bool explicit_filter = false;
    std::vector<char *> args;
    args.push_back(argv[0]);
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--json" && i + 1 < argc) {
            json_path = argv[++i];
            continue;
        }
        if (arg.rfind("--benchmark_filter", 0) == 0)
            explicit_filter = true;
        args.push_back(argv[i]);
    }
    int bench_argc = static_cast<int>(args.size());
    benchmark::Initialize(&bench_argc, args.data());
    if (benchmark::ReportUnrecognizedArguments(bench_argc, args.data()))
        return 1;
    // Plain `--json <path>` runs only the JSON report; the full
    // google-benchmark suite takes minutes and should stay opt-in via
    // an explicit --benchmark_filter.
    if (json_path.empty() || explicit_filter)
        benchmark::RunSpecifiedBenchmarks();
    benchmark::Shutdown();
    if (!json_path.empty())
        return tessel::runJsonReport(json_path);
    return 0;
}
