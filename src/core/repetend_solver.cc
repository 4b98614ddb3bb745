#include "core/repetend_solver.h"

#include <algorithm>

#include "support/arena.h"
#include "support/logging.h"
#include "support/timer.h"

namespace tessel {

// ----------------------------------------------------------- MCR kernel
//
// The minimal-period problem is a cyclic scheduling instance: constraints
// are differences s_j - s_i >= w - h * P, where h counts period
// crossings. Three families are order-independent:
//   - intra-window dependencies (h = 0, w = t_i);
//   - cross-instance dependencies (h = delta, w = t_i);
//   - window-width bounds E_d <= P, expressed pairwise as
//     s_a - s_b >= t_b - P for every ordered pair (b, a) on a device.
// Device exclusivity is disjunctive (either a before b or b before a) and
// memory feasibility constrains per-device *orders*; both are resolved by
// branching. For a fixed set of resolved decisions, the minimal feasible
// P is the maximum cycle ratio of the constraint graph, found by Howard
// policy iteration (see minPeriod below). A binary search over periods
// with one Bellman-Ford feasibility probe per step reaches the same
// exact answer and identical search trees, but spent 15-20% more probe
// passes on the M- and NN-shape full searches and was retired. Adding
// decisions only raises P, so the relaxation is an admissible bound.

namespace {

/** ceil(w / h) for w > 0, h > 0 (the only case a violated cycle with
 *  sum_h > 0 can produce: w - P*h > 0 with P >= 0 forces w > 0). */
inline Time
ceilRatio(Time w, Time h)
{
    return (w + h - 1) / h;
}

} // namespace

void
McrCore::reset(int num_nodes)
{
    k_ = num_nodes;
    policy_.assign(k_, -1);
    mark_.assign(k_, 0);
    stamp_ = 0;
    baseStamp_ = 1;
    reps_.reserve(k_);
    sweepPoll_ = 0;
}

/**
 * One policy-evaluation round at @p period, resuming relaxation from
 * the current contents of @p s: returns Fixpoint and leaves @p s at the
 * least fixed point >= its initial value when the graph with edge
 * weights (w - h * period) has no positive cycle, or PositiveCycle with
 * cycleW_/cycleH_ holding a violated cycle's weight/height sums.
 *
 * Warm-start exactness: relaxation from s0 converges to the least
 * fixed point above s0, and whenever s0 is pointwise below the
 * all-zeros least fixed point L the two coincide (every max-weight
 * path contribution through s0 >= 0 is also >= the zero-source
 * contribution, and L itself bounds the result from above). Any
 * fixed point of a *weaker* system — fewer decision edges, larger
 * or equal period, both of which only lower the fixed point — is
 * such an s0, so resuming from an ancestor's solution reproduces
 * the cold result bit for bit. The iteration bound is unchanged:
 * max-weight paths stay simple when no positive cycle exists, so
 * k passes still suffice from any starting vector.
 *
 * Infeasible probes terminate early through policy-cycle detection
 * rather than always exhausting all k+1 passes: a cycle in the policy
 * graph (the Bellman-Ford predecessor forest) implies a strictly
 * positive constraint cycle (every policy edge was set by a strict
 * improvement, and the cycle's earliest-set edge guarantees at least
 * one of the summed inequalities is strict — its source node improved
 * again later, or the cycle could not have closed), while a feasible
 * system can never grow one — so verdicts, and hence results, are
 * unchanged.
 *
 * @p keep_policy resumes with the pre-seeded contents of policy_
 * (an ancestor's converged forest) instead of clearing it. Sound at
 * an unchanged period: the ancestor's sweeps relaxed a subset of
 * this system's edges under the same adjusted weights, so ancestor +
 * this call form one valid relaxation history, and the cycle lemma
 * above only needs that. The payoff is detection speed — one firing
 * of a violated decision edge closes a cycle through the ancestor's
 * already-present tight-path edges instead of waiting for the
 * improvement wave to walk the whole cycle.
 */
McrCore::Sweep
McrCore::evaluate(Time period, std::vector<Time> &s, bool keep_policy,
                  McrStats &stats, const std::function<bool()> &stop)
{
    if (!keep_policy)
        std::fill(policy_.begin(), policy_.end(), -1);
    // The adjusted weights w - h * P are probe constants. They are
    // computed fused into the first sweep (stored for later sweeps)
    // rather than in a separate pass: evaluations converge or
    // detect in very few sweeps, so a standalone O(E) precompute pass
    // would rival the cost of the sweeps themselves.
    wp_.resize(ne_);
    bool first_sweep = true;
    auto sweep_once = [&]() {
        ++stats.valueSweeps;
        bool changed = false;
        if (first_sweep) {
            first_sweep = false;
            for (size_t i = 0; i < ne_; ++i) {
                const PeriodEdge &e = edges_[i];
                const Time w =
                    e.w - static_cast<Time>(e.h) * period;
                wp_[i] = w;
                const Time need = s[e.from] + w;
                if (need > s[e.to]) {
                    s[e.to] = need;
                    policy_[e.to] = static_cast<int>(i);
                    changed = true;
                }
            }
            return changed;
        }
        for (size_t i = 0; i < ne_; ++i) {
            const PeriodEdge &e = edges_[i];
            const Time need = s[e.from] + wp_[i];
            if (need > s[e.to]) {
                s[e.to] = need;
                policy_[e.to] = static_cast<int>(i);
                changed = true;
            }
        }
        return changed;
    };
    auto best_violated_cycle = [&]() {
        // Walk every detected policy cycle, summing the real (w, h) of
        // its edges, and keep the one demanding the largest period —
        // each cycle is genuine (the lemma above applies to any policy
        // cycle), so the max of their exact ratio ceilings is still a
        // lower bound on the answer while jumping further per round
        // than any single cycle. A cycle with sum_h == 0 is infeasible
        // at every period and trumps everything.
        cycleW_ = 0;
        cycleH_ = 0;
        bool have = false;
        for (const int v : reps_) {
            Time w = 0, h = 0;
            int u = v;
            do {
                const PeriodEdge &e = edges_[policy_[u]];
                w += e.w;
                h += e.h;
                u = e.from;
            } while (u != v);
            if (h == 0) {
                cycleW_ = w;
                cycleH_ = 0;
                return;
            }
            if (!have || ceilRatio(w, h) > ceilRatio(cycleW_, cycleH_)) {
                cycleW_ = w;
                cycleH_ = h;
                have = true;
            }
        }
    };
    for (int iter = 0; iter < k_; ++iter) {
        // Budget/cancel polling covers the value-sweep loop. Most
        // evaluations finish in one or two sweeps, so the indirect
        // std::function call is throttled by a cheap local counter
        // before the callback's own every-1024-checks gate; a runaway
        // evaluation still gets polled.
        if (stop && ((++sweepPoll_ & 63u) == 0) && stop())
            return Sweep::Stopped;
        if (!sweep_once())
            return Sweep::Fixpoint;
        policyCycleReps(reps_);
        if (!reps_.empty()) {
            best_violated_cycle();
            return Sweep::PositiveCycle;
        }
    }
    if (!sweep_once())
        return Sweep::Fixpoint;
    // A change on pass k+1 proves a positive cycle exists. The policy
    // graph normally contains it by now; if this pass's overwrites
    // happened to break every closed walk, fall back to a +1 raise
    // certificate — still exact (the period is proven infeasible, so
    // the answer is >= period + 1), merely less of a jump.
    policyCycleReps(reps_);
    if (!reps_.empty()) {
        best_violated_cycle();
    } else {
        cycleW_ = period + 1;
        cycleH_ = 1;
    }
    return Sweep::PositiveCycle;
}

/** Collect one representative node per distinct policy cycle: one
 *  stamped walk per start node, every node visited at most once, so
 *  the scan is O(k). Exhaustive because the improvement step raises to
 *  the *largest* demand among all cycles present, which converges in
 *  fewer rounds than chasing them one at a time (each round pays a
 *  from-zeros re-evaluation). */
void
McrCore::policyCycleReps(std::vector<int> &reps)
{
    reps.clear();
    for (int v = 0; v < k_; ++v) {
        if (mark_[v] >= baseStamp_)
            continue;
        const uint64_t walk = ++stamp_;
        int u = v;
        while (u >= 0 && mark_[u] < baseStamp_) {
            mark_[u] = walk;
            u = policy_[u] >= 0 ? edges_[policy_[u]].from : -1;
        }
        if (u >= 0 && mark_[u] == walk)
            reps.push_back(u);
    }
    baseStamp_ = ++stamp_;
}

/**
 * Minimal feasible period within [lo, hi]; see the header for the
 * contract and warm-start validity rules.
 *
 * Policy iteration. Start at lo (the inherited lower
 * bound); evaluate the potentials there — in the warm case one sweep
 * from the parent's converged potentials. If the evaluation converges,
 * lo is feasible and, because improvements below never overshoot, it
 * IS the answer. Otherwise the violated policy cycle (W, H) proves
 * every period below ceil(W / H) infeasible: improve the period to
 * max(P + 1, ceil(W / H)) — at most the true maximum cycle ratio
 * ceiling, since the cycle is real — and re-evaluate. The first
 * period whose evaluation reaches a fixed point is therefore exactly
 * max(lo, ceil(max cycle ratio)), the minimal feasible period in
 * [lo, hi], and @p s is the least fixed point there. A violated cycle
 * with H == 0 has W > 0 at any period: infeasible outright.
 */
Time
McrCore::minPeriod(const PeriodEdge *edges, size_t num_edges, Time lo,
                   Time hi, const McrWarmStart &warm, std::vector<Time> &s,
                   std::vector<int> *policy_out, McrStats &stats,
                   const std::function<bool()> &stop)
{
    if (lo > hi)
        return -1;
    edges_ = edges;
    ne_ = num_edges;

    Time period = lo;
    bool first = true;
    for (;;) {
        // The ancestor's converged potentials are a least fixed point
        // of a weaker system at warm.period; they stay a valid resume
        // vector only while the probed period does not exceed it
        // (larger periods lower fixed points), and its policy forest
        // is only inheritable at exactly that period (the composed-
        // history argument on evaluate() needs one set of adjusted
        // weights). Improvement rounds probe above it and restart
        // from zeros.
        bool keep_policy = false;
        if (first && warm.s && period <= warm.period) {
            s = *warm.s;
            if (warm.policy && period == warm.period) {
                policy_ = *warm.policy;
                keep_policy = true;
            }
        } else {
            s.assign(k_, 0);
        }
        first = false;
        switch (evaluate(period, s, keep_policy, stats, stop)) {
        case Sweep::Fixpoint:
            if (policy_out)
                *policy_out = policy_;
            return period;
        case Sweep::Stopped:
            return -1;
        case Sweep::PositiveCycle:
            break;
        }
        if (cycleH_ == 0)
            return -1; // Positive at every period.
        const Time next = std::max(period + 1, ceilRatio(cycleW_, cycleH_));
        ++stats.policyImprovements;
        if (next > hi)
            return -1;
        period = next;
    }
}

McrSolveResult
solveMinPeriod(int num_nodes, const std::vector<PeriodEdge> &edges,
               Time lo, Time hi, const McrWarmStart &warm)
{
    panic_if(num_nodes < 0, "solveMinPeriod: negative node count");
    panic_if(lo < 0, "solveMinPeriod: negative lower bound");
    const int ne = static_cast<int>(edges.size());
    for (const PeriodEdge &e : edges) {
        panic_if(e.from < 0 || e.from >= num_nodes || e.to < 0 ||
                     e.to >= num_nodes,
                 "solveMinPeriod: edge endpoint out of range");
        panic_if(e.h < 0, "solveMinPeriod: negative edge height");
    }
    panic_if(warm.s && static_cast<int>(warm.s->size()) != num_nodes,
             "solveMinPeriod: warm base size mismatch");
    if (warm.policy) {
        panic_if(static_cast<int>(warm.policy->size()) != num_nodes,
                 "solveMinPeriod: warm policy size mismatch");
        for (const int e : *warm.policy)
            panic_if(e < -1 || e >= ne,
                     "solveMinPeriod: warm policy edge out of range");
    }
    McrCore core;
    core.reset(num_nodes);
    McrSolveResult out;
    out.period = core.minPeriod(edges.data(), edges.size(), lo, hi, warm,
                                out.start, &out.policy, out.stats,
                                std::function<bool()>{});
    if (out.period < 0) {
        out.start.clear();
        out.policy.clear();
    }
    return out;
}

namespace {

class PeriodSearch
{
  public:
    PeriodSearch(const Placement &placement,
                 const RepetendAssignment &assign,
                 const RepetendSolveOptions &opts)
        : p_(placement), assign_(assign), opts_(opts),
          budget_(opts.timeBudgetSec)
    {
        k_ = p_.numBlocks();
        nd_ = p_.numDevices();
        panic_if(static_cast<int>(assign.r.size()) != k_,
                 "assignment size mismatch");
        buildStatic();
    }

    RepetendSchedule
    solve()
    {
        RepetendSchedule out;
        if (!entryFeasible()) {
            out.feasible = false;
            out.proven = true;
            return out;
        }
        recurse(0, 0, McrWarmStart{});
        stats_.valueSweeps = mcrStats_.valueSweeps;
        stats_.policyImprovements = mcrStats_.policyImprovements;
        out.stats = stats_;
        out.stats.seconds = budget_.elapsed();
        out.proven = !stats_.budgetExhausted;
        if (bestPeriod_ < 0) {
            out.feasible = false;
            return out;
        }
        out.feasible = true;
        out.period = bestPeriod_;
        Time lo = bestStart_[0];
        for (Time t : bestStart_)
            lo = std::min(lo, t);
        out.start.resize(k_);
        Time hi = 0;
        for (int i = 0; i < k_; ++i) {
            out.start[i] = bestStart_[i] - lo;
            hi = std::max(hi, out.start[i] + p_.block(i).span);
        }
        out.windowSpan = hi;
        return out;
    }

  private:
    void
    buildStatic()
    {
        // Flat span/memory tables: the branching loops below read these
        // per candidate pair, and the flat copies stay cache-resident
        // where the full BlockSpec records would not.
        spans_.resize(k_);
        memory_.resize(k_);
        for (int i = 0; i < k_; ++i) {
            spans_[i] = p_.block(i).span;
            memory_[i] = p_.block(i).memory;
        }
        // Order-independent constraint edges. Decision edges taken
        // during branching are pushed/popped behind them in the same
        // array, so a relaxation pass is one contiguous sweep.
        for (int j = 0; j < k_; ++j) {
            for (int i : p_.block(j).deps) {
                const int delta = assign_.r[i] - assign_.r[j];
                panic_if(delta < 0, "Property 4.2 violated in assignment");
                edges_.push_back({i, j, p_.block(i).span, delta});
            }
        }
        for (DeviceId d = 0; d < nd_; ++d) {
            const auto &on = p_.blocksOnDevice(d);
            for (int b : on)
                for (int a : on)
                    if (a != b)
                        edges_.push_back({b, a, p_.block(b).span, 1});
        }
        edges_.reserve(edges_.size() + 64);

        serialUb_ = p_.totalWork();
        globalLb_ = std::max<Time>(1, p_.perMicrobatchLowerBound());

        order_.reserve(k_);
        mcr_.reset(k_);
        stopCb_ = [this]() { return sweepStop(); };

        entryMem_ = repetendEntryMem(p_, assign_);
        if (!opts_.initialMem.empty()) {
            panic_if(static_cast<int>(opts_.initialMem.size()) != nd_,
                     "initialMem size mismatch");
            for (int d = 0; d < nd_; ++d)
                entryMem_[d] += opts_.initialMem[d];
        }
    }

    bool
    entryFeasible() const
    {
        if (opts_.memLimit >= kUnlimitedMem)
            return true;
        for (int d = 0; d < nd_; ++d) {
            if (entryMem_[d] > opts_.memLimit)
                return false;
            // Positive per-instance net memory cannot reach steady state.
            if (p_.netMemoryOnDevice(d) > 0)
                return false;
        }
        return true;
    }

    /** Per-depth scratch frame (allocated once per depth, reused). */
    struct Frame
    {
        /** Start vector of this node: least fixed point at the period
         *  minPeriod() returned. Doubles as the descendants' warm base
         *  (children inherit this node's period as their lower bound,
         *  and at an unchanged period the parent fixed point is a valid
         *  resume vector; see McrCore). */
        std::vector<Time> s;
        /** Converged improving-edge forest at this
         *  node's period; descendants probing the same period seed
         *  their policy graph from it (see McrWarmStart::policy). */
        std::vector<int> policy;
        /** Memory-violating prefix found by findMemoryViolation(). */
        std::vector<int> prefix;
        /** Membership marks for `prefix`, cleared after branching. */
        std::vector<char> inPrefix;
    };

    /**
     * Minimal feasible period for the current decision set within
     * [lb_hint, limit]; returns -1 when infeasible within the range
     * (or when a mid-solve budget trip abandoned the solve — check
     * `stopped_`). Fills f.s with the least-fixed-point start vector
     * of the returned period and @p child_out with the warm-start
     * handle descendants must inherit.
     *
     * The first evaluation is at the parent period (betting the
     * child's period is unchanged); an infeasible evaluation still pays
     * for itself by producing the violated cycle that jumps the period
     * to the answer.
     */
    Time
    minPeriod(Time lb_hint, Time limit, Frame &f,
              const McrWarmStart &warm, McrWarmStart &child_out)
    {
        const Time lo = std::max(globalLb_, lb_hint);
        const Time hi = std::min(serialUb_, limit);
        const Time period =
            mcr_.minPeriod(edges_.data(), edges_.size(), lo, hi, warm, f.s,
                           &f.policy, mcrStats_, stopCb_);
        if (period < 0)
            return -1;
        child_out = {&f.s, period, &f.policy};
        return period;
    }

    /** Find any overlapping same-device pair; -1s when conflict-free. */
    std::pair<int, int>
    findOverlap(const std::vector<Time> &s) const
    {
        for (DeviceId d = 0; d < nd_; ++d) {
            const auto &on = p_.blocksOnDevice(d);
            for (size_t x = 0; x < on.size(); ++x) {
                for (size_t y = x + 1; y < on.size(); ++y) {
                    const int a = on[x], b = on[y];
                    const Time fa = s[a] + spans_[a];
                    const Time fb = s[b] + spans_[b];
                    if (s[a] < fb && s[b] < fa)
                        return {a, b};
                }
            }
        }
        return {-1, -1};
    }

    /**
     * First memory violation: fills @p prefix with the earliest
     * per-device start-order prefix exceeding the capacity and returns
     * its device, or -1 when feasible. Sorting happens in a persistent
     * scratch buffer, so the probe allocates nothing in steady state.
     */
    int
    findMemoryViolation(const std::vector<Time> &s,
                        std::vector<int> &prefix)
    {
        prefix.clear();
        if (opts_.memLimit >= kUnlimitedMem)
            return -1;
        for (DeviceId d = 0; d < nd_; ++d) {
            const auto &on = p_.blocksOnDevice(d);
            order_.assign(on.begin(), on.end());
            std::sort(order_.begin(), order_.end(), [&](int a, int b) {
                return s[a] < s[b];
            });
            Mem used = entryMem_[d];
            for (size_t pos = 0; pos < order_.size(); ++pos) {
                used += memory_[order_[pos]];
                if (used > opts_.memLimit) {
                    prefix.assign(order_.begin(),
                                  order_.begin() + pos + 1);
                    return d;
                }
            }
        }
        return -1;
    }

    bool
    budgetTripped()
    {
        if (stopped_)
            return true;
        if (opts_.nodeLimit && stats_.nodes >= opts_.nodeLimit) {
            stats_.budgetExhausted = true;
            return stopped_ = true;
        }
        // Clock and cancel-flag reads per node are measurable on deep
        // trees; poll them every 1024 checks like the BnB solver. The
        // gate starts open so a pre-cancelled solve still stops on its
        // very first node.
        if ((pollGate_++ & 1023) != 0)
            return false;
        if (budget_.expired()) {
            stats_.budgetExhausted = true;
            stats_.timedOut = true;
            return stopped_ = true;
        }
        if (opts_.cancel.cancelled()) {
            stats_.cancelled = true;
            stats_.budgetExhausted = true; // Result is likewise unproven.
            return stopped_ = true;
        }
        return false;
    }

    /**
     * Per-sweep stop poll for the value-sweep loop: clock and cancel
     * only, through the same every-1024 gate as budgetTripped(). The
     * node limit is deliberately absent — node counts change only at
     * node boundaries, so checking it mid-solve could never trip and
     * would make nodeLimit accounting depend on sweep counts.
     */
    bool
    sweepStop()
    {
        if (stopped_)
            return true;
        if ((pollGate_++ & 1023) != 0)
            return false;
        if (budget_.expired()) {
            stats_.budgetExhausted = true;
            stats_.timedOut = true;
            return stopped_ = true;
        }
        if (opts_.cancel.cancelled()) {
            stats_.cancelled = true;
            stats_.budgetExhausted = true;
            return stopped_ = true;
        }
        return false;
    }

    Time
    incumbentLimit() const
    {
        Time limit = serialUb_;
        if (opts_.cutoff >= 0)
            limit = std::min(limit, opts_.cutoff - 1);
        // The shared incumbent is inclusive: equal periods stay visible
        // so the caller's (period, index) tie-break is deterministic.
        if (opts_.liveCutoff)
            limit = std::min(
                limit, opts_.liveCutoff->load(std::memory_order_acquire));
        if (bestPeriod_ >= 0)
            limit = std::min(limit, bestPeriod_ - 1);
        return limit;
    }

    /**
     * One search node at recursion @p depth. @p warm is the nearest
     * ancestor's warm-start handle (empty at the root); all scratch
     * lives in per-depth frames, so steady-state search allocates
     * nothing.
     */
    void
    recurse(int depth, Time parent_period, const McrWarmStart &warm)
    {
        if (budgetTripped())
            return;
        ++stats_.nodes;

        Frame &f = frames_.at(static_cast<size_t>(depth), [&](Frame &fr) {
            fr.s.reserve(k_);
            fr.policy.reserve(k_);
            fr.prefix.reserve(k_);
            fr.inPrefix.assign(k_, 0);
        });
        McrWarmStart child_base = warm;
        const Time period =
            minPeriod(parent_period, incumbentLimit(), f, warm,
                      child_base);
        if (period < 0) {
            // A mid-solve clock/cancel trip is not a proven prune.
            if (stopped_)
                return;
            ++stats_.boundPrunes;
            // Attribute the prune to the warm-start seed while the
            // caller's bound is still seed-derived and this solve has
            // not yet found a solution of its own to bound against.
            if (opts_.cutoffFromSeed && bestPeriod_ < 0)
                ++stats_.seedPrunes;
            return;
        }

        const auto [a, b] = findOverlap(f.s);
        if (a >= 0) {
            // Branch on the two orderings of the conflicting pair.
            edges_.push_back({a, b, spans_[a], 0});
            recurse(depth + 1, period, child_base);
            edges_.pop_back();
            edges_.push_back({b, a, spans_[b], 0});
            recurse(depth + 1, period, child_base);
            edges_.pop_back();
            return;
        }

        const int dev = findMemoryViolation(f.s, f.prefix);
        if (dev >= 0) {
            // Some allocating block in the violating prefix must move
            // after some releasing block currently outside it; branch
            // over all such reorderings (complete cover).
            for (int x : f.prefix)
                f.inPrefix[x] = 1;
            bool stopped = false;
            for (int y : p_.blocksOnDevice(dev)) {
                if (f.inPrefix[y] || memory_[y] >= 0)
                    continue;
                for (int x : f.prefix) {
                    if (memory_[x] <= 0)
                        continue;
                    edges_.push_back({y, x, spans_[y], 0});
                    recurse(depth + 1, period, child_base);
                    edges_.pop_back();
                    if (budgetTripped()) {
                        stopped = true;
                        break;
                    }
                }
                if (stopped)
                    break;
            }
            for (int x : f.prefix)
                f.inPrefix[x] = 0;
            return;
        }

        // Conflict-free and memory-feasible: a complete solution.
        if (bestPeriod_ < 0 || period < bestPeriod_) {
            bestPeriod_ = period;
            bestStart_ = f.s;
        }
    }

    const Placement &p_;
    const RepetendAssignment &assign_;
    const RepetendSolveOptions &opts_;
    TimeBudget budget_;
    int k_ = 0;
    int nd_ = 0;

    std::vector<PeriodEdge> edges_; // Base constraints + decision tail.
    std::vector<Time> spans_;
    std::vector<Mem> memory_;
    std::vector<Mem> entryMem_;
    Time serialUb_ = 0;
    Time globalLb_ = 1;

    // Persistent scratch (see Frame for the per-depth pieces).
    FramePool<Frame> frames_;
    std::vector<int> order_;  // findMemoryViolation sort buffer.
    McrCore mcr_;             // Minimal-period kernel + its scratch.
    McrStats mcrStats_;
    std::function<bool()> stopCb_;
    uint64_t pollGate_ = 0;   // Throttles clock/cancel polling.
    bool stopped_ = false;    // Sticky budget/cancel trip.

    Time bestPeriod_ = -1;
    std::vector<Time> bestStart_;
    SolveStats stats_;
};

} // namespace

RepetendSchedule
solveRepetend(const Placement &placement, const RepetendAssignment &assign,
              const RepetendSolveOptions &options)
{
    PeriodSearch search(placement, assign, options);
    return search.solve();
}

Time
evalPeriod(const Placement &placement, const RepetendAssignment &assign,
           const std::vector<Time> &start, bool tight)
{
    const int k = placement.numBlocks();
    panic_if(static_cast<int>(start.size()) != k, "start size mismatch");

    Time period = 0;
    // Per-device span E_d.
    for (DeviceId d = 0; d < placement.numDevices(); ++d) {
        Time lo = -1, hi = 0;
        for (int i : placement.blocksOnDevice(d)) {
            const Time s = start[i];
            const Time f = s + placement.block(i).span;
            lo = lo < 0 ? s : std::min(lo, s);
            hi = std::max(hi, f);
        }
        if (lo >= 0)
            period = std::max(period, hi - lo);
    }
    if (!tight) {
        // Simple compaction (Fig. 6a): next instance after the window.
        Time lo = -1, hi = 0;
        for (int i = 0; i < k; ++i) {
            lo = lo < 0 ? start[i] : std::min(lo, start[i]);
            hi = std::max(hi, start[i] + placement.block(i).span);
        }
        period = std::max(period, hi - lo);
    }
    // Cross-instance dependencies.
    for (int j = 0; j < k; ++j) {
        for (int i : placement.block(j).deps) {
            const int delta = assign.r[i] - assign.r[j];
            if (delta <= 0)
                continue;
            const Time gap =
                (start[i] + placement.block(i).span) - start[j];
            if (gap > 0)
                period = std::max(period, (gap + delta - 1) / delta);
        }
    }
    return period;
}

} // namespace tessel
