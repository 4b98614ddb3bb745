/**
 * @file
 * TesselSearch: Algorithm 1 of the paper. Sweeps the repetend micro-batch
 * count NR from 1 to the in-flight limit, enumerates pruned repetend
 * candidates, solves each for its minimal steady-state period, completes
 * the best candidate's warmup/cooldown time-optimally, and assembles a
 * generalizable TesselPlan. Supports the lazy-search optimization of
 * Sec. V (satisfiability-only completion checks inside the loop, one
 * final time-optimal completion at the end).
 */

#ifndef TESSEL_CORE_SEARCH_H
#define TESSEL_CORE_SEARCH_H

#include <map>
#include <optional>

#include "core/plan.h"
#include "core/repetend_solver.h"
#include "placement/comm.h"

namespace tessel {

/**
 * Warm-start seed distilled from a feasible plan of the *same* lowered
 * instance (typically a store neighbor adapted by store/adapt.h).
 *
 * Seed-only-prunes invariant: the seed never changes the search's
 * answer, only how fast it is reached. `period` acts as a virtual
 * incumbent at enumeration index +infinity — candidates with strictly
 * larger periods are pruned, equal-period candidates still run and win
 * every (period, index) tie-break — and `windowStart` merely reorders
 * the first dive of the satisfiability checks, whose results are
 * order-independent booleans. Final plans are therefore bit-identical
 * to an unseeded search. A seed that fails validation (period < 1, or
 * windowStart not aligned with the solve placement) is ignored.
 */
struct SearchSeed
{
    /** Feasible period achieved by the seed plan's repetend. */
    Time period = -1;
    /**
     * Window start per block spec of the *solve* placement (the
     * comm-expanded placement for comm-aware queries). Guides the BnB
     * first dive of phase satisfiability checks.
     */
    std::vector<Time> windowStart;
    /** Seed plan's makespan at NR + 1 (reporting only). */
    Time makespan = -1;
    /**
     * When true, `plan` holds a full TesselPlan whose warmup/cooldown
     * schedules were produced by the same deterministic completion
     * pipeline on the *identical* phase instances this query would
     * build (store/adapt.cc certifies this: the solve placements match
     * block for block — spans included — memory limits and initial
     * memory agree, and the stored and querying instances share a
     * phaseOptionsDigest). If the search winner's (assignment,
     * windowStart, period) equals the seed plan's, completion may
     * return `*plan` verbatim instead of re-running the per-phase
     * minimizes — the output is the same by determinism of the
     * pipeline, so final plans remain bit-identical to cold search.
     */
    bool phasesExact = false;
    /** The seed plan itself; only consulted when phasesExact. */
    std::optional<TesselPlan> plan;
};

/** Knobs for the end-to-end schedule search. */
struct TesselOptions
{
    /** Per-device memory capacity M. */
    Mem memLimit = kUnlimitedMem;
    /** Per-device baseline memory (parameters etc.); empty = zeros. */
    std::vector<Mem> initialMem;
    /** Hard cap on the NR sweep regardless of memory headroom. */
    int maxRepetendMicrobatches = 8;
    /** Lazy-search optimization (Sec. V): SAT-only completion checks in
     * the loop, one time-optimal completion at the end. */
    bool lazy = true;
    /**
     * Serving deadlines (<= 0: none): wall budgets for the whole
     * search, per repetend candidate solve and per warmup/cooldown
     * solve. They bound how long a caller waits, not what the plan is:
     * a search one of them cuts short still returns its best-so-far,
     * but flags it (SearchBreakdown::budgetExhausted) and the service
     * never stores it. So they are not part of the fingerprint.
     */
    double totalBudgetSec = 0.0;
    double repetendBudgetSec = 2.0;
    double phaseBudgetSec = 10.0;
    /**
     * Node cap per warmup/cooldown BnB solve, both the final completion
     * and the lazy sweep's satisfiability checks (0: unlimited). A solve
     * that reaches it keeps its best schedule, unproven. Unlike the wall
     * budgets it is deterministic, so it is fingerprinted: a plan is a
     * pure function of its fingerprint on any host at any load.
     */
    uint64_t phaseNodeLimit = 2'500'000;
    /**
     * Threads for the candidate sweep, and only for it. 0 picks
     * hardware_concurrency(); N > 1 hands each candidate, as it is
     * enumerated, to a task group of width N - 1 on the shared pool
     * (ThreadPool::shared()), the calling thread making the Nth; 1
     * solves it inline in enumeration order, so its effort counters
     * are a pure function of the instance. Any value returns the same
     * plan: candidates carry their enumeration index, each solve's
     * cutoff is frozen when it starts, and ties are broken by (period,
     * index). A phase completion (completeRepetendPlan) runs its
     * cooldown as a width-1 group on the same pool at any value.
     */
    int numThreads = 0;
    /** External cancellation for the whole search (optional). */
    CancelToken cancel;
    /**
     * Heterogeneous cluster model (per-device speed factors + link
     * latency/bandwidth). nullptr or a trivial model preserves the
     * homogeneous search path bit for bit; a non-trivial model lowers
     * cross-device dependency edges into comm blocks on link
     * pseudo-devices (placement/comm.h) and searches the expanded
     * placement. The pointee must outlive the call.
     */
    const ClusterModel *cluster = nullptr;
    /**
     * Activation volume (MB) per dependency edge (producer spec,
     * consumer spec), used to size comm blocks when `cluster` is set;
     * missing edges transfer 0 MB (latency only).
     */
    std::map<std::pair<int, int>, double> edgeMB;
    /** Comm lowering knobs (transfer granularity). */
    CommOptions comm;
    /**
     * Optional warm-start seed (see SearchSeed). Plan-invariant by the
     * seed-only-prunes invariant, so it is excluded from the instance
     * fingerprint exactly like numThreads. The pointee must outlive the
     * call; nullptr runs cold.
     */
    const SearchSeed *seed = nullptr;
};

/**
 * Search diagnostics (feeds the Fig. 9/10 benches).
 *
 * With one sweep thread every counter is a pure function of the
 * instance. On a pool the sweep stops enumerating once the early-exit
 * bar is set, and each solve's cutoff depends on which solves finished
 * before it started, so candidatesEnumerated, candidatesSolved,
 * satChecks, solverNodes, valueSweeps and policyImprovements vary from
 * run to run; the plan does not.
 */
struct SearchBreakdown
{
    double repetendSeconds = 0.0;
    /**
     * Wall seconds of the warmup and of the cooldown solves, each its
     * own: lazy satisfiability checks plus completion minimizes. A
     * completion solves its cooldown beside its warmup, so the two
     * overlap and their sum is not the completion's wall time.
     */
    double warmupSeconds = 0.0;
    double cooldownSeconds = 0.0;
    uint64_t candidatesEnumerated = 0;
    uint64_t candidatesSolved = 0;
    uint64_t satChecks = 0;
    /** Search nodes expanded across all inner solves (PeriodSearch +
     * BnB phase/completion solves). */
    uint64_t solverNodes = 0;
    /** Policy-evaluation sweeps across repetend solves (the
     * minimal-period kernel's effort). */
    uint64_t valueSweeps = 0;
    /** Howard policy improvements (period raises) across repetend
     * solves. */
    uint64_t policyImprovements = 0;
    /** Completion minimizes (warmup or cooldown) that their node cap,
     * TesselOptions::phaseNodeLimit, stopped unproven, a seed's
     * adaptation included (mergeSeedWork); a deadline or a cancel stop
     * does not count. */
    uint64_t phaseCapHits = 0;
    /** Always 0: every BnB solve starts from an empty dominance memo.
     *  Kept only because bench/e2e reads it. */
    uint64_t memoReused = 0;
    int threadsUsed = 1;          ///< sweep worker count actually used
    bool earlyExit = false;       ///< lower bound reached (Algorithm 1 L19)
    /** A wall deadline (totalBudgetSec, repetendBudgetSec or
     * phaseBudgetSec) cut this search short, so the result may depend
     * on host speed: served, but never cached. */
    bool budgetExhausted = false;
    /** Makespan of the warm-start seed plan (-1: search ran unseeded);
     * merged by max so the provenance survives worker folds. */
    Time seedMakespan = -1;
    /** Repetend-solver bound prunes taken while the active cutoff was
     * still seed-derived (no candidate of this search had been accepted
     * yet) — the "nodes saved vs cold" estimate. */
    uint64_t seededNodesPruned = 0;

    /**
     * Fold @p other into this accumulator. Commutative and
     * associative (threadsUsed takes the max), so per-worker
     * breakdowns merge race-free in any order.
     */
    SearchBreakdown &
    merge(const SearchBreakdown &other)
    {
        repetendSeconds += other.repetendSeconds;
        warmupSeconds += other.warmupSeconds;
        cooldownSeconds += other.cooldownSeconds;
        candidatesEnumerated += other.candidatesEnumerated;
        candidatesSolved += other.candidatesSolved;
        satChecks += other.satChecks;
        solverNodes += other.solverNodes;
        valueSweeps += other.valueSweeps;
        policyImprovements += other.policyImprovements;
        phaseCapHits += other.phaseCapHits;
        memoReused += other.memoReused;
        threadsUsed = threadsUsed > other.threadsUsed ? threadsUsed
                                                      : other.threadsUsed;
        earlyExit |= other.earlyExit;
        budgetExhausted |= other.budgetExhausted;
        seedMakespan = seedMakespan > other.seedMakespan
                           ? seedMakespan
                           : other.seedMakespan;
        seededNodesPruned += other.seededNodesPruned;
        return *this;
    }

    /**
     * Fold a warm-start seed's adaptation work into this breakdown:
     * every counter, never the deadline flag. A seed only prunes, so a
     * deadline that cut the adaptation short cannot change the plan.
     */
    SearchBreakdown &
    mergeSeedWork(const SearchBreakdown &work)
    {
        const bool cut = budgetExhausted;
        merge(work);
        budgetExhausted = cut;
        return *this;
    }
};

/** Result of the end-to-end search. */
struct TesselResult
{
    bool found = false;
    TesselPlan plan;
    Time period = -1;
    /** Algorithm 1's GetLowerBound: bottleneck per-device (or, for a
     * comm-aware search, per-link) work. */
    Time lowerBound = 0;
    int nrUsed = 0;
    SearchBreakdown breakdown;
    /**
     * Set when the search ran on a comm-expanded placement; the plan's
     * placement then includes comm blocks and link pseudo-devices, and
     * `expansion` maps them back to the caller's placement.
     */
    bool commAware = false;
    std::optional<CommExpansion> expansion;
};

/**
 * Run Algorithm 1 on @p placement.
 */
TesselResult tesselSearch(const Placement &placement,
                          const TesselOptions &options = {});

/**
 * Time-optimal completion of one repetend candidate (Algorithm 1 lines
 * 14-18): solve the warmup, anchor the window behind it at offset
 * theta0, solve the cooldown against the window context, and assemble
 * the plan. Returns nullopt when a phase solve fails within its budget.
 *
 * The cooldown is built in window-relative time (theta0 = 0) and its
 * starts are shifted by theta0 afterwards. The BnB only compares times
 * with each other, so the plan, the search trees and the effort
 * counters are those of an anchored cooldown. A cooldown block released
 * by a warmup block is the one input that may need the warmup's
 * schedule: when the window alone shows that release cannot delay the
 * block, it is dropped; otherwise the cooldown waits for the warmup.
 * Unless it waits, the cooldown is solved beside the warmup as a
 * width-1 task group on the shared pool (a worker if one is free, else
 * the calling thread once the warmup is done), and both solves' effort
 * is folded into @p breakdown after the group's wait(). An exception in
 * either solve reaches the caller.
 *
 * @p placement must be the *solve* placement (the comm-expanded one for
 * comm-aware instances) and @p options must already be lowered
 * accordingly (initialMem padded to the expanded device count). Used by
 * the search itself and by the neighbor-adaptation path
 * (store/adapt.cc), which re-times a known-good assignment without
 * re-running the candidate sweep.
 */
std::optional<TesselPlan> completeRepetendPlan(
    const Placement &placement, const RepetendAssignment &assign,
    const RepetendSchedule &sched, const TesselOptions &options,
    SearchBreakdown &breakdown, const CancelToken &cancel);

} // namespace tessel

#endif // TESSEL_CORE_SEARCH_H
