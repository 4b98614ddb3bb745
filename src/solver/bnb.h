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
 *    the memo survives across decide() rounds on one solver, reusing
 *    entries whose subtrees were proven empty at a covering deadline
 *    (see MemoEntry in bnb.cc);
 *  - Property 4.1 symmetry chains (micro-batch interchangeability).
 *
 * Hot-path mechanics: dispatchable candidates come from a ready list
 * maintained incrementally on dispatch/undo, and all per-node scratch
 * (candidate buffers, save/restore rows, dominance vectors) lives in
 * per-depth arenas (support/arena.h), so steady-state search performs
 * zero heap allocation.
 */

#ifndef TESSEL_SOLVER_BNB_H
#define TESSEL_SOLVER_BNB_H

#include <memory>

#include "solver/problem.h"

namespace tessel {

/**
 * Branch-and-bound solver for SolverProblem instances.
 *
 * A solver object is single-use per call but reusable across calls; each
 * call re-derives its internal state from the problem.
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
     * This mirrors the paper's use of Z3 satisfiability checks inside the
     * binary-search / lazy-search loops.
     */
    SolveResult decide(Time deadline);

    /**
     * Convenience: binary-search the optimal makespan using decide(),
     * exactly the strategy Sec. V describes for the Z3 encoding. Provided
     * for parity experiments; minimizeMakespan() is normally faster.
     * The dominance memo carries proven-empty subtrees from round to
     * round, so later decide() rounds expand strictly fewer nodes than
     * cold re-solves.
     */
    SolveResult binarySearchMakespan();

  private:
    struct Impl;
    std::unique_ptr<Impl> impl_;
};

} // namespace tessel

#endif // TESSEL_SOLVER_BNB_H
