/**
 * @file
 * Generic block-scheduling instance consumed by the exact solver.
 *
 * This is the substitution for the paper's Z3 encoding: block start times
 * are the decision variables; exclusivity, dependency, release-time, and
 * peak-memory constraints match Eq. 1. Tessel's warmup and cooldown
 * searches lower onto this structure, as does the time-optimal (TO)
 * baseline of Figs. 3 and 9. Where the paper binary-searches a phase's
 * makespan over satisfiability checks, each solve here is a single
 * BnbSolver call: one direct minimization, or one decide() for a
 * feasibility check.
 */

#ifndef TESSEL_SOLVER_PROBLEM_H
#define TESSEL_SOLVER_PROBLEM_H

#include <cstdint>
#include <vector>

#include "ir/types.h"
#include "support/cancel.h"

namespace tessel {

/** One schedulable block in a solver instance. */
struct SolverBlock
{
    /** Execution time (> 0). */
    Time span = 1;
    /** Devices occupied while executing (>= 1 bit). */
    DeviceMask devices;
    /** Per-device memory delta applied at start. */
    Mem memory = 0;
    /** Indices of blocks that must finish before this one starts. */
    std::vector<int> deps;
    /** Earliest permitted start time (stitching with earlier phases). */
    Time release = 0;
    /**
     * Symmetry chain (Property 4.1): this block may only be dispatched
     * after block `orderAfter` has been dispatched. Used to deduplicate
     * schedules that differ only by permuting equivalent micro-batches.
     * -1 disables.
     */
    int orderAfter = -1;
    /** Caller-defined tag for mapping results back (e.g. instance id). */
    int tag = -1;
};

/** A complete solver instance. */
struct SolverProblem
{
    int numDevices = 1;
    /** Per-device memory capacity. */
    Mem memLimit = kUnlimitedMem;
    /** Per-device memory already allocated at time 0 (empty = zeros). */
    std::vector<Mem> initialMem;
    /** Per-device earliest availability (empty = zeros). */
    std::vector<Time> initialAvail;
    std::vector<SolverBlock> blocks;
};

/** Outcome classification of a solve. */
enum class SolveStatus {
    Optimal,    ///< best possible schedule found and proven
    Feasible,   ///< a schedule was found but the budget cut the proof
    Infeasible, ///< proven that no schedule satisfies the constraints
    Unknown,    ///< budget exhausted before any schedule was found
};

/** Search-effort counters reported with every solve. */
struct SolveStats
{
    uint64_t nodes = 0;
    double seconds = 0.0;
    /** A node cap, the wall clock or (period core) a cancel stopped
     *  the solve before it finished: the result is unproven. */
    bool budgetExhausted = false;
    /** The wall clock (timeBudgetSec) stopped the solve. Only a clock
     *  trip sets it, so a node-cap or cancel stop leaves it false: it
     *  marks the one stop whose result depends on host speed. */
    bool timedOut = false;
    bool cancelled = false; ///< a CancelToken stopped the solve
    uint64_t memoHits = 0;
    uint64_t boundPrunes = 0;
    /** PeriodSearch policy-evaluation sweeps (one pass over the
     *  constraint edges each); the minimal-period kernel's effort. */
    uint64_t valueSweeps = 0;
    /** PeriodSearch policy improvements: period raises driven by a
     *  violated policy cycle's exact ratio ceiling. */
    uint64_t policyImprovements = 0;
    /** Insertions into the incrementally maintained ready list (BnB);
     *  proportional to dependency-edge work, not node count x blocks. */
    uint64_t readyPushes = 0;
    /** Bound prunes taken while the solve's cutoff was still inherited
     *  from a warm-start seed (RepetendSolveOptions::cutoffFromSeed)
     *  rather than from a candidate the enclosing search accepted
     *  itself — the seed's share of the pruning work. */
    uint64_t seedPrunes = 0;

    /**
     * Fold @p other into this accumulator. Commutative and associative,
     * so per-worker counters can be merged in any order after a
     * parallel sweep.
     */
    SolveStats &
    merge(const SolveStats &other)
    {
        nodes += other.nodes;
        seconds += other.seconds;
        budgetExhausted |= other.budgetExhausted;
        timedOut |= other.timedOut;
        cancelled |= other.cancelled;
        memoHits += other.memoHits;
        boundPrunes += other.boundPrunes;
        valueSweeps += other.valueSweeps;
        policyImprovements += other.policyImprovements;
        readyPushes += other.readyPushes;
        seedPrunes += other.seedPrunes;
        return *this;
    }
};

/** Result of a solve: status, objective, and per-block start times. */
struct SolveResult
{
    SolveStatus status = SolveStatus::Unknown;
    Time makespan = -1;
    std::vector<Time> starts;
    SolveStats stats;

    bool
    feasible() const
    {
        return status == SolveStatus::Optimal ||
               status == SolveStatus::Feasible;
    }
};

/** Knobs controlling the branch-and-bound search. */
struct SolverOptions
{
    /** Wall-clock budget in seconds (<= 0: unlimited). */
    double timeBudgetSec = 0.0;
    /** Node expansion cap (0: unlimited); binds exactly. */
    uint64_t nodeLimit = 0;
    /** Enable the dominance memo (ablation knob for the solver bench). */
    bool useDominance = true;
    /** Honor SolverBlock::orderAfter symmetry chains. */
    bool useSymmetry = true;
    /** Cooperative cancellation, polled alongside the time budget. A
     *  cancelled solve reports stats.cancelled and never claims
     *  Infeasible. */
    CancelToken cancel;
    /**
     * Per-block dispatch priority for decide() first dives, indexed by
     * block position in SolverProblem::blocks: candidates sort by
     * ascending priority before the usual (est, tail, index) keys, so
     * the first leaf reached follows the suggested order. Consulted in
     * decide mode ONLY — a decide() verdict is an order-independent
     * boolean, while minimize-mode incumbents depend on expansion order
     * and would stop being bit-identical across seeded/unseeded runs.
     * Ignored when the size does not match; nullptr disables.
     */
    const std::vector<Time> *seedPriority = nullptr;
};

} // namespace tessel

#endif // TESSEL_SOLVER_PROBLEM_H
