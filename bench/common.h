/**
 * @file
 * Shared helpers for the reproduction benches: model/baseline setup,
 * simulation wrappers, and formatting. Every bench binary regenerates
 * one table or figure of the paper's evaluation (Sec. VI) and prints
 * paper-style rows to stdout.
 */

#ifndef TESSEL_BENCH_COMMON_H
#define TESSEL_BENCH_COMMON_H

#include <cstdint>
#include <fstream>
#include <iostream>
#include <optional>
#include <string>
#include <vector>

#include "baselines/schedules.h"
#include "core/search.h"
#include "models/lower.h"
#include "placement/shapes.h"
#include "sim/runner.h"
#include "support/table.h"
#include "support/timer.h"

namespace tessel {
namespace bench {

/** Search options tuned for bench runtime (seconds, not minutes). */
inline TesselOptions
searchOptions(Mem mem_limit = kUnlimitedMem,
              std::vector<Mem> initial_mem = {})
{
    TesselOptions opts;
    opts.memLimit = mem_limit;
    opts.initialMem = std::move(initial_mem);
    opts.totalBudgetSec = 60.0;
    opts.repetendBudgetSec = 2.0;
    opts.phaseBudgetSec = 10.0;
    return opts;
}

/** Cluster spec matching a LoweredModel. */
inline ClusterSpec
clusterFor(const LoweredModel &model, const HardwareSpec &hw,
           bool non_blocking = true)
{
    ClusterSpec cs;
    cs.gpusPerServer = hw.gpusPerServer;
    cs.nvlinkGBs = hw.nvlinkGBs;
    cs.ibGBs = hw.ibGBs;
    cs.linkLatencyMs = hw.linkLatencyMs;
    cs.memCapacityMB = model.memCapacityMB;
    cs.initialMemMB = model.initialMemMB;
    cs.nonBlockingComm = non_blocking;
    return cs;
}

/** Outcome of one end-to-end run. */
struct RunResult
{
    bool ok = false;
    bool oom = false;
    double iterationMs = 0.0;
    double pflops = 0.0;
    SimResult sim;
};

/** Simulate a schedule for a model; compute throughput in PFLOPS. */
inline RunResult
runSchedule(const Schedule &sched, const LoweredModel &model,
            const HardwareSpec &hw, int num_microbatches,
            bool non_blocking = true)
{
    RunResult out;
    out.sim = simulateSchedule(sched, model.edgeMB,
                               clusterFor(model, hw, non_blocking));
    out.ok = out.sim.ok;
    out.oom = out.sim.oom;
    out.iterationMs = out.sim.makespanMs;
    if (out.iterationMs > 0.0) {
        out.pflops = model.flopsPerMicrobatch * num_microbatches /
                     (out.iterationMs / 1e3) / 1e15;
    }
    return out;
}

/** Run Tessel end-to-end on a lowered model; nullopt when infeasible. */
inline std::optional<RunResult>
runTessel(const LoweredModel &model, const HardwareSpec &hw, int n,
          bool non_blocking = true)
{
    if (!model.fits)
        return std::nullopt;
    const auto result = tesselSearch(
        model.placement,
        searchOptions(model.memCapacityMB, model.initialMemMB));
    if (!result.found)
        return std::nullopt;
    const int actual_n = std::max(n, result.plan.minMicrobatches());
    RunResult run = runSchedule(result.plan.instantiate(actual_n), model,
                                hw, actual_n, non_blocking);
    return run.oom ? std::nullopt : std::optional<RunResult>(run);
}

/** Run a baseline schedule generator end-to-end. */
template <typename Fn>
std::optional<RunResult>
runBaseline(const LoweredModel &model, const HardwareSpec &hw, int n,
            Fn &&make_schedule, bool non_blocking = true)
{
    if (!model.fits)
        return std::nullopt;
    Problem prob(model.placement, n, model.memCapacityMB);
    prob.setInitialMem(model.initialMemMB);
    const std::optional<Schedule> sched = make_schedule(prob);
    if (!sched)
        return std::nullopt; // Scheduling deadlock under memory: OOM.
    RunResult run = runSchedule(*sched, model, hw, n, non_blocking);
    return run.oom ? std::nullopt : std::optional<RunResult>(run);
}

/** One row of a machine-readable bench report (see writeBenchJson). */
struct BenchJsonRow
{
    std::string bench;
    double wallMs = 0.0;
    uint64_t nodes = 0;
    uint64_t valueSweeps = 0;
    uint64_t policyImprovements = 0;
};

/**
 * Emit a bench report as a JSON array of {"bench", "wall_ms", "nodes",
 * "value_sweeps", "policy_improvements"} objects — the
 * BENCH_solver.json schema CI archives per commit (and tools/
 * bench_diff.py gates against bench/baselines/) so the solver perf
 * trajectory is diffable across PRs. `value_sweeps` and
 * `policy_improvements` are the period kernel's deterministic effort.
 */
inline bool
writeBenchJson(const std::string &path,
               const std::vector<BenchJsonRow> &rows)
{
    std::ofstream out(path);
    if (!out)
        return false;
    out << "[\n";
    for (size_t i = 0; i < rows.size(); ++i) {
        out << "  {\"bench\": \"" << rows[i].bench
            << "\", \"wall_ms\": " << rows[i].wallMs
            << ", \"nodes\": " << rows[i].nodes
            << ", \"value_sweeps\": " << rows[i].valueSweeps
            << ", \"policy_improvements\": "
            << rows[i].policyImprovements << "}"
            << (i + 1 < rows.size() ? "," : "") << "\n";
    }
    out << "]\n";
    return static_cast<bool>(out);
}

/** Format a RunResult cell: PFLOPS or the paper's OOM marker 'x'. */
inline std::string
pflopsCell(const std::optional<RunResult> &run)
{
    if (!run)
        return "x (OOM)";
    return fmtDouble(run->pflops, 3);
}

} // namespace bench
} // namespace tessel

#endif // TESSEL_BENCH_COMMON_H
