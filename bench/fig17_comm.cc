/**
 * @file
 * Fig. 17 reproduction, upgraded to a communication-overhead study: for
 * GPT (M-Shape) and mT5 (NN-Shape) across GPU counts, compare the
 * comm-oblivious search (schedules planned as if transfers were free,
 * then executed under the hardware's link model) against the comm-aware
 * search (transfers planned as link-occupying blocks, heterogeneity and
 * latency visible to the solver). The comm-aware plan's simulated
 * makespan equals its planned makespan by construction (the cross-check
 * suite asserts this); the oblivious plan pays its communication at
 * execution time, overlapped (non-blocking) or rendezvous (blocking).
 *
 * All comm-aware searches run at the runtime-faithful PerDevice transfer
 * granularity: device masks are width-generic (support/resourceset.h),
 * so TP-grouped lowerings whose device + link count exceeds 64 resources
 * need no fallback. PerEdge remains available as an explicit
 * CommOptions choice for callers who want fewer link pseudo-devices.
 *
 * A second, wide-cluster section runs 32- and 64-GPU heterogeneous
 * configurations end to end (search -> planner-fidelity simulation ->
 * runtime instantiation), all of which exceed 64 total resources; the
 * process exits nonzero if any wide run fails to produce a plan whose
 * simulated makespan equals the planned one, so CI can use this bench
 * as a mask-width regression smoke test.
 *
 * Environment knobs (for CI smoke runs):
 *   TESSEL_FIG17_SECTION    "all" (default), "main", or "wide"
 *   TESSEL_FIG17_BUDGET_SEC per-search total budget override (seconds)
 */

#include <cstdlib>

#include "bench/common.h"
#include "placement/comm.h"
#include "runtime/instantiate.h"
#include "sim/runner.h"

using namespace tessel;

namespace {

double
envBudgetSec(double fallback)
{
    if (const char *s = std::getenv("TESSEL_FIG17_BUDGET_SEC")) {
        const double v = std::atof(s);
        if (v > 0.0)
            return v;
    }
    return fallback;
}

/** Tighter budgets than bench::searchOptions: this bench runs four
 * GPU counts x two searches per model; expanded searches hit their
 * budgets rather than exhausting the candidate space. */
TesselOptions
budgetedOptions(const LoweredModel &m)
{
    TesselOptions opts =
        bench::searchOptions(m.memCapacityMB, m.initialMemMB);
    opts.totalBudgetSec = envBudgetSec(15.0);
    opts.repetendBudgetSec = std::min(1.0, opts.totalBudgetSec);
    opts.phaseBudgetSec = std::min(5.0, opts.totalBudgetSec);
    return opts;
}

void
sweep(Table &table, std::vector<bench::BenchJsonRow> &json,
      const std::string &model,
      const std::function<LoweredModel(int)> &lower, const HardwareSpec &hw,
      int n)
{
    for (int gpus : {4, 8, 16, 32}) {
        const LoweredModel m = lower(gpus);
        if (!m.fits) {
            table.addRow({model, std::to_string(gpus), "x", "x", "x", "-"});
            continue;
        }
        const int stages = m.placement.numDevices();
        const ClusterModel cluster =
            clusterModelFrom(hw, stages, std::max(1, gpus / stages));

        // Comm-oblivious: the search never sees the links.
        const auto oblivious =
            tesselSearch(m.placement, budgetedOptions(m));
        // Comm-aware: transfers become schedulable link blocks at the
        // runtime-faithful per-device granularity, whatever the total
        // resource count.
        TesselOptions aware_opts = budgetedOptions(m);
        aware_opts.cluster = &cluster;
        aware_opts.edgeMB = m.edgeMB;
        const auto aware = tesselSearch(m.placement, aware_opts);
        if (!oblivious.found || !aware.found) {
            table.addRow({model, std::to_string(gpus), "-", "-", "-", "-"});
            continue;
        }

        const int n_obl = std::max(n, oblivious.plan.minMicrobatches());
        const Schedule obl_sched = oblivious.plan.instantiate(n_obl);
        ClusterSpec overlap_cs;
        overlap_cs.memCapacityMB = m.memCapacityMB;
        overlap_cs.initialMemMB = m.initialMemMB;
        ClusterSpec blocking_cs = overlap_cs;
        blocking_cs.nonBlockingComm = false;
        const SimResult obl_overlap =
            simulateWithModel(obl_sched, m.edgeMB, cluster, overlap_cs);
        const SimResult obl_blocking =
            simulateWithModel(obl_sched, m.edgeMB, cluster, blocking_cs);

        const int n_aware = std::max(n, aware.plan.minMicrobatches());
        const double aware_ms = static_cast<double>(
            aware.plan.makespanFor(n_aware));

        table.addRow(
            {model, std::to_string(gpus),
             fmtDouble(obl_blocking.makespanMs / 1e3, 2),
             fmtDouble(obl_overlap.makespanMs / 1e3, 2),
             fmtDouble(aware_ms / 1e3, 2),
             fmtDouble(obl_blocking.makespanMs /
                           std::max(aware_ms, 1e-9),
                       2) +
                 "x"});

        // Machine-readable rows (BENCH_comm.json): the three makespans
        // as wall_ms, with each search's deterministic effort counters.
        const std::string tag = model + "/" + std::to_string(gpus) + "gpu";
        json.push_back({tag + "/oblivious_blocking",
                        obl_blocking.makespanMs,
                        oblivious.breakdown.solverNodes,
                        oblivious.breakdown.valueSweeps});
        json.push_back({tag + "/oblivious_overlap", obl_overlap.makespanMs,
                        oblivious.breakdown.solverNodes,
                        oblivious.breakdown.valueSweeps});
        json.push_back({tag + "/comm_aware", aware_ms,
                        aware.breakdown.solverNodes,
                        aware.breakdown.valueSweeps});
    }
}

/**
 * Wide-cluster end-to-end run: TP-grouped GPT M-Shape on a
 * heterogeneous cluster at a GPU count whose PerDevice lowering needs
 * more than 64 device-mask bits. Searches, cross-checks the planned
 * makespan against the planner-fidelity simulation, and instantiates
 * the runtime program. @return true when every leg succeeded.
 */
bool
wideRun(Table &table, std::vector<bench::BenchJsonRow> &json,
        const HardwareSpec &hw, int gpus, int n)
{
    // Reuse the 32-GPU Table III model; at 64 GPUs the same model runs
    // with twice the tensor-parallel degree per stage.
    const LoweredModel m =
        lowerGptMShape(gptConfigForGpus(32), gpus, 1, hw);
    if (!m.fits) {
        table.addRow({std::to_string(gpus), "-", "x (OOM)", "-", "-"});
        return false;
    }

    // Per-GPU link model (NVLink in-server, IB across) plus genuine
    // speed heterogeneity: every other server runs 25% slower.
    ClusterModel cluster = clusterModelFrom(hw, gpus, 1);
    for (int d = 0; d < gpus; ++d)
        if ((d / hw.gpusPerServer) % 2 == 1)
            cluster.speedFactor[d] = 1.25;

    const int resources =
        commResourceDemand(m.placement, cluster, m.edgeMB, CommOptions{});

    TesselOptions opts = budgetedOptions(m);
    opts.cluster = &cluster;
    opts.edgeMB = m.edgeMB;
    const auto r = tesselSearch(m.placement, opts);
    if (!r.found) {
        table.addRow({std::to_string(gpus), std::to_string(resources),
                      "no plan", "-", "FAIL"});
        return false;
    }

    const int n_run = std::max(n, r.plan.minMicrobatches());
    const Schedule sched = r.plan.instantiate(n_run);
    const Time planned = sched.makespan();

    // Planner-fidelity simulation must reproduce the plan exactly.
    const SimResult sim = simulateExpandedSchedule(sched);
    const bool sim_ok = sim.ok && !sim.deadlock &&
                        sim.makespanMs == static_cast<double>(planned);

    // Runtime leg: lower to device programs and free-run them.
    const Program prog = instantiate(sched, {});
    ClusterSpec free_run;
    free_run.linkLatencyMs = 0.0;
    const SimResult run = simulate(prog, free_run);
    const bool run_ok = run.ok && !run.deadlock;

    // The section exists to prove >64-resource runs work; a lowering
    // that no longer crosses the cap is itself a failure worth seeing.
    const char *status = !(sim_ok && run_ok) ? "FAIL"
                         : resources <= 64   ? "FAIL (<=64 resources)"
                                             : "yes";
    table.addRow({std::to_string(gpus), std::to_string(resources),
                  fmtDouble(static_cast<double>(planned) / 1e3, 2),
                  fmtDouble(sim.makespanMs / 1e3, 2), status});
    json.push_back({"wide/" + std::to_string(gpus) + "gpu/planned",
                    static_cast<double>(planned),
                    r.breakdown.solverNodes, r.breakdown.valueSweeps});
    return sim_ok && run_ok && resources > 64;
}

} // namespace

int
main(int argc, char **argv)
{
    HardwareSpec hw;
    const int n = 32;
    const char *section_env = std::getenv("TESSEL_FIG17_SECTION");
    const std::string section = section_env ? section_env : "all";

    // --json <path>: also emit the comm-overhead numbers machine-readably
    // (BENCH_comm.json, same schema CI archives for BENCH_solver.json).
    std::string json_path;
    for (int i = 1; i < argc; ++i) {
        if (std::string(argv[i]) == "--json" && i + 1 < argc) {
            json_path = argv[++i];
        } else {
            std::cerr << "usage: bench_fig17_comm [--json <path>]\n";
            return 2;
        }
    }
    std::vector<bench::BenchJsonRow> json;

    if (section != "wide") {
        Table table("Fig. 17 (comm study): comm-oblivious vs comm-aware "
                    "schedules (iteration time, s)");
        table.setHeader({"model", "GPUs", "oblivious+blocking (s)",
                         "oblivious+overlap (s)", "comm-aware (s)",
                         "blocking/aware"});
        sweep(table, json, "GPT (M-Shape)",
              [&](int gpus) {
                  return lowerGptMShape(gptConfigForGpus(gpus), gpus, 1,
                                        hw);
              },
              hw, n);
        sweep(table, json, "mT5 (NN-Shape)",
              [&](int gpus) {
                  return lowerMt5NnShape(mt5ConfigForGpus(gpus), gpus, 2,
                                         hw);
              },
              hw, n);
        table.print(std::cout);
        std::cout
            << "comm-aware = planned makespan of the link-scheduling "
               "search (equals its planner-fidelity simulation);\n"
               "oblivious columns execute the comm-blind plan under the "
               "same integer link model, with rendezvous or overlapped "
               "transfers.\nPaper reference: overlapping communication "
               "yields up to 1.9x end-to-end speedup on these "
               "placements.\n";
    }

    bool wide_ok = true;
    if (section != "main") {
        Table wide("Wide clusters: PerDevice TP-grouped GPT (M-Shape) "
                   "on a hetero cluster, >64 total resources");
        wide.setHeader({"GPUs", "resources", "planned (s)",
                        "simulated (s)", "planned==sim"});
        for (int gpus : {32, 64})
            wide_ok = wideRun(wide, json, hw, gpus, n) && wide_ok;
        wide.print(std::cout);
        std::cout << "resources = devices + link pseudo-devices "
                     "(commResourceDemand); every row exceeds the old "
                     "64-bit device-mask cap.\n";
    }
    if (!json_path.empty() && !bench::writeBenchJson(json_path, json)) {
        std::cerr << "bench_fig17_comm: cannot write " << json_path
                  << "\n";
        return 1;
    }
    return wide_ok ? 0 : 1;
}
