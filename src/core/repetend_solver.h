/**
 * @file
 * Exact minimal-period search for one repetend candidate (Sec. IV-B).
 *
 * The repetend window holds one instance of every block spec (Eq. 3).
 * At steady state the window repeats with all micro-batch indices
 * advanced by one and start times shifted by the period P. Feasibility of
 * a period requires:
 *   - per-device non-overlap of consecutive instances: P >= E_d, the
 *     device's span inside the window;
 *   - cross-instance dependencies: an edge i -> j with index gap
 *     delta = r_i - r_j >= 1 links instance k's consumer to instance
 *     k - delta's producer, i.e. P >= ceil((f_i - s_j) / delta);
 * so the minimal feasible period for a fixed window schedule is the max
 * of those terms — exactly tR = max_d(E_d + W_d) of Eq. 4 under the tight
 * compaction of Fig. 6(b). The solver enumerates window schedules
 * (dispatch orders, semi-active timing) and minimizes that period.
 *
 * Memory: a steady-state instance starts with sum_i r_i * m_i already
 * held per device (the in-flight warmup allocations); the window's
 * per-device prefix sums must stay within capacity.
 */

#ifndef TESSEL_CORE_REPETEND_SOLVER_H
#define TESSEL_CORE_REPETEND_SOLVER_H

#include <functional>
#include <vector>

#include "core/repetend.h"
#include "solver/problem.h"

namespace tessel {

/**
 * One difference-constraint edge of a parametric period system:
 * s[to] >= s[from] + w - h * P, with h >= 0 counting period crossings.
 * Feasibility of a period P is the absence of a positive cycle under
 * the adjusted weights w - h * P; the minimal feasible P is the
 * maximum cycle ratio ceil(sum_w / sum_h) over cycles with sum_h > 0.
 */
struct PeriodEdge
{
    int from;
    int to;
    Time w;
    int h;
};

/** Effort counters of the MCR kernel (see SolveStats for semantics). */
struct McrStats
{
    /** Value-evaluation sweeps spent by policy-iteration rounds. */
    uint64_t valueSweeps = 0;
    /** Howard policy improvements (period raises from a cycle). */
    uint64_t policyImprovements = 0;
};

/**
 * Warm-start handle for McrCore::minPeriod: a borrowed ancestor
 * solution of a *weaker* system (a subset of the probe's edges).
 * All pointees are optional and must outlive the call.
 */
struct McrWarmStart
{
    /** Ancestor least fixed point; the resume vector for potentials. */
    const std::vector<Time> *s = nullptr;
    /** Period @ref s was evaluated at (validity gate: the kernel
     *  resumes from it only while probing periods <= this). */
    Time period = -1;
    /** Ancestor improving-edge forest (indices into the ancestor's
     *  edge array, which must be a prefix of the probe's). The kernel
     *  seeds its policy graph from it when probing exactly at
     *  @ref period — the composed relaxation histories stay a valid
     *  single history at one period, so seeded policy cycles still
     *  certify genuine positive cycles. */
    const std::vector<int> *policy = nullptr;
};

/**
 * Reusable minimal-period / maximum-cycle-ratio kernel (Howard-style
 * policy iteration): the Bellman-Ford predecessor forest is the policy;
 * each round evaluates the node potentials at the current period (one
 * warm value sweep in the common case) and, when a policy cycle proves
 * the period infeasible, improves the period to that cycle's exact
 * ratio ceiling. Improvements never overshoot the true maximum cycle
 * ratio, so the converged period is exact. One instance
 * owns the persistent scratch (adjusted weights, policy edges, walk
 * stamps), so repeated calls allocate nothing in steady state.
 * PeriodSearch drives it once per branch-and-bound node; tests and
 * benches use it standalone through solveMinPeriod().
 */
class McrCore
{
  public:
    /** Size the scratch for systems of @p num_nodes nodes. */
    void reset(int num_nodes);

    /**
     * Minimal feasible period of the system within [lo, hi]; -1 when
     * infeasible in that range (including "infeasible at any period":
     * a positive cycle with sum_h == 0). On success fills @p s with the
     * least fixed point of the adjusted system at the returned period —
     * a unique vector, independent of the warm start and of the
     * kernel's evaluation order.
     *
     * Warm starts (exactness argument in the .cc): see McrWarmStart.
     * Fills @p policy_out (when non-null) with the converged
     * improving-edge forest — the seed descendants probing the same
     * period should inherit.
     *
     * @p stop is polled once per sweep; returning true abandons the
     * solve with -1 and the caller must treat the result as unproven
     * rather than infeasible.
     */
    Time minPeriod(const PeriodEdge *edges, size_t num_edges, Time lo,
                   Time hi, const McrWarmStart &warm, std::vector<Time> &s,
                   std::vector<int> *policy_out, McrStats &stats,
                   const std::function<bool()> &stop);

  private:
    enum class Sweep { Fixpoint, PositiveCycle, Stopped };

    Sweep evaluate(Time period, std::vector<Time> &s, bool keep_policy,
                   McrStats &stats, const std::function<bool()> &stop);
    void policyCycleReps(std::vector<int> &reps);

    int k_ = 0;
    const PeriodEdge *edges_ = nullptr; // Borrowed for one call.
    size_t ne_ = 0;
    std::vector<Time> wp_;      // Per-probe adjusted edge weights.
    std::vector<int> policy_;   // Improving in-edge per node (-1: ground).
    std::vector<int> reps_;     // Policy-cycle representatives scratch.
    std::vector<uint64_t> mark_; // policyCycleReps() walk stamps.
    uint64_t stamp_ = 0;
    uint64_t baseStamp_ = 1;
    uint32_t sweepPoll_ = 0; // Throttles the per-sweep stop callback.
    Time cycleW_ = 0; // Violated-cycle weight/height sums, valid after
    Time cycleH_ = 0; // evaluate() returns PositiveCycle.
};

/** Standalone result of solveMinPeriod (tests and kernel benches). */
struct McrSolveResult
{
    /** Minimal feasible period in [lo, hi]; -1 when infeasible. */
    Time period = -1;
    /** Least fixed point at `period` (empty when infeasible). */
    std::vector<Time> start;
    /** Converged improving-edge forest at `period`,
     *  reusable as McrWarmStart::policy for a grown edge system. */
    std::vector<int> policy;
    McrStats stats;
};

/**
 * One-shot wrapper over McrCore for a self-contained edge system.
 * @p warm (optional pointees) must obey the validity rules documented
 * on McrWarmStart: a least fixed point of a subset of @p edges
 * computed at a period >= the periods this call probes.
 */
McrSolveResult solveMinPeriod(int num_nodes,
                              const std::vector<PeriodEdge> &edges,
                              Time lo, Time hi,
                              const McrWarmStart &warm = {});

/** Options for one repetend period solve. */
struct RepetendSolveOptions
{
    /** Per-device memory capacity. */
    Mem memLimit = kUnlimitedMem;
    /** Per-device baseline usage (parameters etc.); empty = zeros. */
    std::vector<Mem> initialMem;
    /**
     * Prune any candidate whose period would reach this value (-1
     * disables). It is the solve's only outside bound, fixed for the
     * whole solve: the sweep freezes it from its incumbent when the
     * solve starts, at the incumbent's period for a candidate that
     * enumerates after the incumbent and one above it for one that
     * enumerates before, since that candidate wins a period tie.
     */
    Time cutoff = -1;
    /**
     * Marks `cutoff` as inherited from a warm-start seed rather than
     * from a candidate the enclosing sweep accepted itself.
     * Purely attributional: bound prunes taken under a seed-derived
     * bound are additionally counted in SolveStats::seedPrunes so the
     * seed's share of the pruning work is observable. Never changes
     * which nodes are pruned.
     */
    bool cutoffFromSeed = false;
    /** Wall-clock budget (<= 0: unlimited). */
    double timeBudgetSec = 0.0;
    /** Node cap (0: unlimited). */
    uint64_t nodeLimit = 0;
    /** Cooperative cancellation; a cancelled solve reports
     *  stats.cancelled and comes back infeasible/unproven. */
    CancelToken cancel;
};

/** Result of a repetend period solve. */
struct RepetendSchedule
{
    bool feasible = false;
    /** Whether optimality was proven (budget did not trip). */
    bool proven = false;
    /** Minimal steady-state period tR (Eq. 4). */
    Time period = -1;
    /** Window start time per spec, normalized to min = 0. */
    std::vector<Time> start;
    /** Window extent: max finish - min start over all blocks. */
    Time windowSpan = 0;
    SolveStats stats;
};

/**
 * Solve the minimal period for @p assign on @p placement.
 */
RepetendSchedule solveRepetend(const Placement &placement,
                               const RepetendAssignment &assign,
                               const RepetendSolveOptions &options = {});

/**
 * Evaluate the period of a *given* window schedule (used by tests and by
 * the simple-vs-tight compaction ablation).
 *
 * @param tight when false, uses the simple compaction of Fig. 6(a): the
 *        next instance starts only after the whole window ends
 *        (P = window span), still honoring cross dependencies.
 */
Time evalPeriod(const Placement &placement,
                const RepetendAssignment &assign,
                const std::vector<Time> &start, bool tight = true);

} // namespace tessel

#endif // TESSEL_CORE_REPETEND_SOLVER_H
