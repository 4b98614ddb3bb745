/**
 * @file
 * Exact branch-and-bound scheduler over semi-active dispatch orders.
 *
 * Why this is exact: on a device, execution is exclusive, so a device's
 * memory profile is a prefix sum over its *order* of blocks, independent
 * of absolute times. Any feasible schedule, sorted by start time, yields a
 * dispatch order whose earliest-start (semi-active) timing is pointwise no
 * later than the original and keeps identical per-device orders — hence
 * identical memory feasibility. Enumerating dispatch orders therefore
 * covers an optimal schedule.
 *
 * Pruning:
 *  - workload + critical-path lower bounds against the incumbent;
 *  - dominance memo keyed on the scheduled set, comparing device
 *    availability, open dependency finish times, and partial makespan;
 *    one memo per call, cleared when the next call starts;
 *  - Property 4.1 symmetry chains (micro-batch interchangeability).
 *
 * Hot-path mechanics: dispatchable candidates come from a ready list
 * maintained incrementally on dispatch/undo, and the dispatch
 * save/restore rows and candidate buffers live in per-depth arenas
 * (support/arena.h), so dispatch and candidate gathering never allocate.
 * The search as a whole is not allocation-free: each dominance-memo
 * insertion copies the state vector and may add a map node.
 */

#ifndef TESSEL_SOLVER_BNB_H
#define TESSEL_SOLVER_BNB_H

#include <memory>

#include "solver/problem.h"

namespace tessel {

/**
 * Branch-and-bound solver for SolverProblem instances.
 *
 * A solver object may be called more than once; each call re-derives its
 * search state (memo included) from the problem, so it answers exactly
 * like a fresh solver.
 */
class BnbSolver
{
  public:
    /**
     * @param problem instance to schedule; must stay alive during calls.
     * @param options search knobs.
     */
    explicit BnbSolver(const SolverProblem &problem,
                       SolverOptions options = {});
    ~BnbSolver();

    BnbSolver(const BnbSolver &) = delete;
    BnbSolver &operator=(const BnbSolver &) = delete;

    /** Minimize the makespan (Eq. 1 objective). */
    SolveResult minimizeMakespan();

    /**
     * Decision procedure: find any schedule with makespan <= @p deadline.
     * This plays the role of one Z3 satisfiability check in the paper;
     * the phase search calls it once with an unlimited deadline to test
     * whether a phase can be completed at all.
     */
    SolveResult decide(Time deadline);

  private:
    struct Impl;
    std::unique_ptr<Impl> impl_;
};

} // namespace tessel

#endif // TESSEL_SOLVER_BNB_H
