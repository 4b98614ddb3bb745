#include "core/search.h"

#include <algorithm>
#include <functional>
#include <limits>
#include <map>
#include <mutex>

#include "solver/bnb.h"
#include "support/cancel.h"
#include "support/logging.h"
#include "support/threadpool.h"
#include "support/timer.h"
#include "support/tracing.h"

namespace tessel {

namespace {

/** A phase (warmup or cooldown) lowered onto the generic solver. */
struct PhaseInstance
{
    SolverProblem sp;
    std::vector<BlockRef> refs; // Index-aligned with sp.blocks.
};

/** Release a phase block takes from a dependency outside its phase, or
 * nullopt when that dependency can never bind and is dropped. */
using ExternalFinish = std::function<std::optional<Time>(BlockRef)>;

/**
 * Build a solver instance for a phase block set. Dependencies that point
 * outside the set become release times via @p external_finish (pass
 * nullptr to drop them all, which is sound for satisfiability-only
 * checks: memory feasibility depends only on per-device order).
 */
PhaseInstance
buildPhase(const Placement &placement, const std::vector<BlockRef> &refs,
           const std::vector<Mem> &entry_mem, Mem mem_limit,
           const std::vector<Time> *initial_avail,
           const ExternalFinish *external_finish)
{
    PhaseInstance inst;
    inst.refs = refs;
    inst.sp.numDevices = placement.numDevices();
    inst.sp.memLimit = mem_limit;
    inst.sp.initialMem = entry_mem;
    if (initial_avail)
        inst.sp.initialAvail = *initial_avail;

    std::map<std::pair<int, int>, int> index;
    for (size_t i = 0; i < refs.size(); ++i)
        index[{refs[i].spec, refs[i].mb}] = static_cast<int>(i);

    inst.sp.blocks.resize(refs.size());
    for (size_t i = 0; i < refs.size(); ++i) {
        const BlockSpec &spec = placement.block(refs[i].spec);
        SolverBlock &sb = inst.sp.blocks[i];
        sb.span = spec.span;
        sb.devices = spec.devices;
        sb.memory = spec.memory;
        sb.tag = static_cast<int>(i);
        for (int dep : spec.deps) {
            auto it = index.find({dep, refs[i].mb});
            if (it != index.end()) {
                sb.deps.push_back(it->second);
            } else if (external_finish) {
                if (const std::optional<Time> release =
                        (*external_finish)({dep, refs[i].mb}))
                    sb.release = std::max(sb.release, *release);
            }
        }
        // Property 4.1 symmetry chain within the phase.
        auto prev = index.find({refs[i].spec, refs[i].mb - 1});
        if (prev != index.end())
            sb.orderAfter = prev->second;
    }
    return inst;
}

/** Per-device entry memory after warmup plus one window instance. */
std::vector<Mem>
postWindowMem(const Placement &placement, const RepetendAssignment &assign,
              const std::vector<Mem> &initial_mem)
{
    std::vector<Mem> mem(placement.numDevices(), 0);
    if (!initial_mem.empty())
        mem = initial_mem;
    for (int i = 0; i < placement.numBlocks(); ++i) {
        const BlockSpec &b = placement.block(i);
        for (DeviceId d : b.devices)
            mem[d] += static_cast<Mem>(assign.r[i] + 1) * b.memory;
    }
    return mem;
}

/** Fold one inner solve's effort counters, and whether the wall clock
 * cut it, into the breakdown. */
void
addSolveStats(SearchBreakdown &breakdown, const SolveStats &stats)
{
    breakdown.budgetExhausted |= stats.timedOut;
    breakdown.solverNodes += stats.nodes;
    breakdown.valueSweeps += stats.valueSweeps;
    breakdown.policyImprovements += stats.policyImprovements;
    breakdown.seededNodesPruned += stats.seedPrunes;
}

/**
 * Project the seed's steady-state layout onto a phase block set: block
 * (spec, mb) is suggested at windowStart[spec] + mb * period, the start
 * it would have in an infinite repetend. Guides the decide() first dive
 * toward a dispatch order known to work; empty when unseeded.
 */
std::vector<Time>
seedPhasePriority(const SearchSeed *seed, const std::vector<BlockRef> &refs)
{
    std::vector<Time> prio;
    if (!seed)
        return prio;
    prio.reserve(refs.size());
    for (const BlockRef &ref : refs)
        prio.push_back(seed->windowStart[ref.spec] +
                       static_cast<Time>(ref.mb) * seed->period);
    return prio;
}

/** BnB options of every warmup/cooldown solve: the query's deadline and
 * node cap. */
SolverOptions
phaseSolverOptions(const TesselOptions &options, const CancelToken &cancel)
{
    SolverOptions so;
    so.timeBudgetSec = options.phaseBudgetSec;
    so.nodeLimit = options.phaseNodeLimit;
    so.cancel = cancel;
    return so;
}

/** Satisfiability check: does any valid schedule of the phase exist?
 * @p options.seed orders the first dive only; the verdict is
 * seed-invariant. */
bool
phaseSatisfiable(const Placement &placement,
                 const std::vector<BlockRef> &refs,
                 const std::vector<Mem> &entry_mem,
                 const TesselOptions &options, const CancelToken &cancel,
                 SearchBreakdown &breakdown)
{
    if (refs.empty())
        return true;
    PhaseInstance inst = buildPhase(placement, refs, entry_mem,
                                    options.memLimit, nullptr, nullptr);
    const std::vector<Time> prio = seedPhasePriority(options.seed, refs);
    SolverOptions so = phaseSolverOptions(options, cancel);
    if (!prio.empty())
        so.seedPriority = &prio;
    BnbSolver solver(inst.sp, so);
    const SolveResult r = solver.decide(kUnlimitedMem);
    addSolveStats(breakdown, r.stats);
    return r.feasible();
}

/** Per device, the repetend window's first start and last finish in
 * window time (-1 on a device that holds no block). */
struct WindowEdges
{
    std::vector<Time> firstStart;
    std::vector<Time> lastFinish;
};

WindowEdges
windowEdges(const Placement &placement, const std::vector<Time> &window_start)
{
    WindowEdges edges;
    edges.firstStart.assign(placement.numDevices(), -1);
    edges.lastFinish.assign(placement.numDevices(), -1);
    for (DeviceId d = 0; d < placement.numDevices(); ++d) {
        for (int i : placement.blocksOnDevice(d)) {
            const Time s = window_start[i];
            Time &first = edges.firstStart[d];
            first = first < 0 ? s : std::min(first, s);
            edges.lastFinish[d] =
                std::max(edges.lastFinish[d], s + placement.block(i).span);
        }
    }
    return edges;
}

/** Anchor offset of window instance 0 behind the warmup (extra = 0). */
Time
computeTheta0(const Placement &placement, const RepetendAssignment &assign,
              const std::vector<Time> &window_start, const WindowEdges &edges,
              const std::map<std::pair<int, int>, Time> &warmup_finish,
              const std::vector<Time> &avail_after_warmup)
{
    Time theta0 = 0;
    for (DeviceId d = 0; d < placement.numDevices(); ++d)
        if (edges.firstStart[d] >= 0)
            theta0 = std::max(theta0,
                              avail_after_warmup[d] - edges.firstStart[d]);
    for (int j = 0; j < placement.numBlocks(); ++j) {
        for (int i : placement.block(j).deps) {
            if (assign.r[i] - assign.r[j] < 1)
                continue;
            auto it = warmup_finish.find({i, assign.r[j]});
            if (it != warmup_finish.end())
                theta0 =
                    std::max(theta0, it->second - window_start[j]);
        }
    }
    return theta0;
}

/**
 * Whether the window-relative cooldown needs the warmup's schedule. A
 * cooldown block (j, mb) that depends on a warmup block (i, mb), that
 * is r[i] >= r[j] + 2, is released at the warmup block's finish. That
 * finish is at most theta0 + the window's first start on any device of
 * i (computeTheta0 anchors the window behind the warmup on every
 * device). When that bound is no later than the window's last finish on
 * one of j's devices, where the cooldown's device availability begins,
 * the release can never delay j and is dropped. Otherwise the cooldown
 * waits for the warmup. Reads only the window, so it is known before
 * either phase is solved.
 */
bool
cooldownWaitsForWarmup(const Placement &placement,
                       const RepetendAssignment &assign,
                       const WindowEdges &edges)
{
    for (int j = 0; j < placement.numBlocks(); ++j) {
        Time reach = -1;
        for (DeviceId d : placement.block(j).devices)
            reach = std::max(reach, edges.lastFinish[d]);
        for (int i : placement.block(j).deps) {
            if (assign.r[i] - assign.r[j] < 2)
                continue;
            Time bound = std::numeric_limits<Time>::max();
            for (DeviceId d : placement.block(i).devices)
                bound = std::min(bound, edges.firstStart[d]);
            if (bound > reach)
                return true;
        }
    }
    return false;
}

/** Fold a completion minimize into the breakdown: its effort, its wall
 * seconds into @p seconds, and whether the node cap stopped it. */
void
addPhaseSolve(SearchBreakdown &breakdown, const SolveResult &phase,
              double &seconds)
{
    const SolveStats &st = phase.stats;
    seconds += st.seconds;
    addSolveStats(breakdown, st);
    if (st.budgetExhausted && !st.timedOut && !st.cancelled)
        ++breakdown.phaseCapHits;
}

/** Best candidate found so far: its assignment and window schedule. */
struct BestCandidate
{
    RepetendAssignment assign;
    RepetendSchedule sched;
};

} // namespace

/** Time-optimal completion (Algorithm 1 lines 14-18); see search.h. */
std::optional<TesselPlan>
completeRepetendPlan(const Placement &placement,
                     const RepetendAssignment &assign,
                     const RepetendSchedule &rsched,
                     const TesselOptions &options,
                     SearchBreakdown &breakdown, const CancelToken &cancel)
{
    const int nd = placement.numDevices();
    std::vector<Mem> entry = options.initialMem;
    if (entry.empty())
        entry.assign(nd, 0);
    const SolverOptions so = phaseSolverOptions(options, cancel);
    const WindowEdges edges = windowEdges(placement, rsched.start);
    const auto warm_refs = warmupBlocks(placement, assign);
    const auto cool_refs = cooldownBlocks(placement, assign);

    // Set from the warmup's schedule once it is solved; the cooldown
    // reads them only when it waits for the warmup.
    std::map<std::pair<int, int>, Time> warmup_finish;
    Time theta0 = 0;

    auto solve_warmup = [&] {
        const PhaseInstance inst = buildPhase(
            placement, warm_refs, entry, options.memLimit, nullptr, nullptr);
        return BnbSolver(inst.sp, so).minimizeMakespan();
    };
    // The cooldown in window-relative time (theta0 = 0): availability
    // starts at the window's last finish per device, and window-sourced
    // releases at their window finish. Shifting every availability and
    // release by theta0 shifts the BnB's schedule and nothing else, so
    // adding theta0 to its starts gives the anchored cooldown exactly.
    // A warmup-sourced release needs theta0 only when the cooldown
    // waits; otherwise it cannot bind and is dropped.
    const bool wait = cooldownWaitsForWarmup(placement, assign, edges);
    auto solve_cooldown = [&] {
        std::vector<Time> avail(nd, 0);
        for (DeviceId d = 0; d < nd; ++d)
            avail[d] = std::max<Time>(edges.lastFinish[d], 0);
        const ExternalFinish external =
            [&](BlockRef ref) -> std::optional<Time> {
            if (ref.mb == assign.r[ref.spec])
                return rsched.start[ref.spec] +
                       placement.block(ref.spec).span;
            if (!wait)
                return std::nullopt;
            auto it = warmup_finish.find({ref.spec, ref.mb});
            panic_if(it == warmup_finish.end(),
                     "cooldown dependency outside warmup/window");
            return it->second - theta0;
        };
        const PhaseInstance inst = buildPhase(
            placement, cool_refs,
            postWindowMem(placement, assign, options.initialMem),
            options.memLimit, &avail, &external);
        return BnbSolver(inst.sp, so).minimizeMakespan();
    };

    // Unless it waits, the cooldown is solved beside the warmup as the
    // one task of a width-1 group. The group is declared after
    // everything the task reads, so it is waited for before any of it
    // dies, and wait() passes on whatever the task threw.
    std::optional<SolveResult> warm, cool;
    ThreadPool::Group helper(1);
    if (!warm_refs.empty() && !cool_refs.empty() && !wait)
        helper.submit([&] { cool = solve_cooldown(); });
    if (!warm_refs.empty())
        warm = solve_warmup();
    helper.wait();

    std::vector<Time> warm_starts;
    if (warm) {
        addPhaseSolve(breakdown, *warm, breakdown.warmupSeconds);
        if (!warm->feasible()) {
            // The overlapped cooldown's effort was spent all the same.
            if (cool)
                addPhaseSolve(breakdown, *cool, breakdown.cooldownSeconds);
            return std::nullopt;
        }
        warm_starts = warm->starts;
    }
    std::vector<Time> avail_after_warmup(nd, 0);
    for (size_t i = 0; i < warm_refs.size(); ++i) {
        const Time fin =
            warm_starts[i] + placement.block(warm_refs[i].spec).span;
        warmup_finish[{warm_refs[i].spec, warm_refs[i].mb}] = fin;
        for (DeviceId d : placement.block(warm_refs[i].spec).devices)
            avail_after_warmup[d] = std::max(avail_after_warmup[d], fin);
    }
    theta0 = computeTheta0(placement, assign, rsched.start, edges,
                           warmup_finish, avail_after_warmup);

    std::vector<Time> cool_starts;
    if (!cool && !cool_refs.empty())
        cool = solve_cooldown();
    if (cool) {
        addPhaseSolve(breakdown, *cool, breakdown.cooldownSeconds);
        if (!cool->feasible())
            return std::nullopt;
        cool_starts = cool->starts;
        for (Time &s : cool_starts)
            s += theta0;
    }

    return TesselPlan(
        placement, assign, rsched.start, rsched.period, rsched.windowSpan,
        warm_refs, warm_starts, cool_refs, cool_starts, options.memLimit,
        options.initialMem.empty()
            ? std::vector<Mem>(placement.numDevices(), 0)
            : options.initialMem);
}

namespace {

/**
 * Completion with exact seed reuse. When the seed certifies its phase
 * schedules (SearchSeed::phasesExact — store/adapt.cc only sets it
 * after proving the stored instance's solve placement, memory model,
 * and phase-relevant options are identical to this query's) and the
 * winning candidate's (assignment, window start, period) equals the
 * seed plan's, then the per-phase minimizes completeRepetendPlan would
 * run are the *same* deterministic solves that produced the seed plan
 * — so the seed plan IS the completion, returned without paying the
 * phase budgets again. Any mismatch falls through to the real
 * completion; the answer is bit-identical either way.
 */
std::optional<TesselPlan>
completeOrReusePlan(const Placement &placement,
                    const RepetendAssignment &assign,
                    const RepetendSchedule &rsched,
                    const TesselOptions &options,
                    SearchBreakdown &breakdown, const CancelToken &cancel)
{
    const SearchSeed *seed = options.seed;
    if (seed && seed->phasesExact && seed->plan &&
        seed->plan->period() == rsched.period &&
        seed->plan->windowStart() == rsched.start &&
        seed->plan->assignment() == assign &&
        seed->plan->memLimit() == options.memLimit) {
        return *seed->plan;
    }
    return completeRepetendPlan(placement, assign, rsched, options,
                                breakdown, cancel);
}

/**
 * Shared state of one candidate sweep (Algorithm 1 lines 7-20).
 *
 * Determinism: every candidate carries its global enumeration index and
 * the incumbent is the lexicographic minimum of (period, index) over
 * accepted candidates: the lowest-index candidate achieving the minimal
 * period, whatever order the solves finish in. Each solve prunes
 * against a cutoff frozen at its start (strict against a lower-index
 * incumbent, inclusive against a higher-index one), so an equal-period
 * candidate with a smaller index is never masked by a higher-index one
 * that happened to publish first. The Algorithm 1 early exit becomes an
 * index bar: once some candidate hits the lower bound, only
 * lower-index candidates (which could still win the tie-break) start;
 * a solve already running above the bar finishes and loses.
 *
 * With one thread the candidates run inline in enumeration order, so
 * every solve sees the final incumbent of all lower indices and the
 * sweep spends exactly the effort of a plain serial loop.
 *
 * Seeding: a warm-start seed initializes the incumbent as a virtual one
 * at (seed period, index +infinity) — bestPeriod_ starts at the seed
 * period while bestIndex_ stays at its unset maximum, so every real
 * candidate's frozen cutoff allows periods <= the seed's and every real
 * candidate wins the index tie-break. hasBest() stays false until a
 * real candidate publishes, exactly as in a cold sweep.
 */
class SweepState
{
  public:
    SweepState(const Placement &placement, const TesselOptions &options,
               const TimeBudget &total_budget, Time lower_bound,
               Time optimal_init, std::vector<Mem> entry)
        : placement_(placement), options_(options),
          totalBudget_(total_budget), lowerBound_(lower_bound),
          entry_(std::move(entry)),
          cancel_(options.cancel.linked(globalCancel_.token())),
          bestPeriod_(optimal_init)
    {
    }

    /** Evaluate one candidate end-to-end, on a pool worker or on the
     * enumerating thread. */
    void
    runCandidate(uint64_t index, const RepetendAssignment &assign)
    {
        SearchBreakdown local;
        if (!cancel_.cancelled() && !aboveBar(index)) {
            if (totalBudget_.expired()) {
                local.budgetExhausted = true;
                globalCancel_.cancel();
            } else {
                solveCandidate(index, assign, local);
            }
        }
        mergeStats(local);
    }

    /** Whether a lower-index candidate already hit the lower bound, so
     * candidate @p index can no longer win. */
    bool
    aboveBar(uint64_t index) const
    {
        return index > lbBar_.load(std::memory_order_relaxed);
    }

    /** Snapshot of the winner, taken after the last solve finished. */
    bool hasBest() const { return best_.has_value(); }
    const BestCandidate &best() const { return *best_; }
    std::optional<TesselPlan> takeBestPlan() { return std::move(bestPlan_); }
    Time bestPeriod() const { return bestPeriod_; }

    /** Fold @p local into the sweep-wide breakdown. */
    void
    mergeStats(const SearchBreakdown &local)
    {
        std::lock_guard<std::mutex> lock(statsMu_);
        stats_.merge(local);
    }

    SearchBreakdown &stats() { return stats_; }

  private:
    bool
    lexBetterLocked(Time period, uint64_t index) const
    {
        return period < bestPeriod_ ||
               (period == bestPeriod_ && index < bestIndex_);
    }

    bool
    couldImprove(Time period, uint64_t index)
    {
        std::lock_guard<std::mutex> lock(winnerMu_);
        return lexBetterLocked(period, index);
    }

    void
    solveCandidate(uint64_t index, const RepetendAssignment &assign,
                   SearchBreakdown &local)
    {
        Time snap_period;
        uint64_t snap_index;
        {
            std::lock_guard<std::mutex> lock(winnerMu_);
            snap_period = bestPeriod_;
            snap_index = bestIndex_;
        }

        RepetendSolveOptions rso;
        rso.memLimit = options_.memLimit;
        rso.initialMem = options_.initialMem;
        // Freeze the cutoff at solve start: a higher-index candidate
        // loses a period tie with the current incumbent, so periods >=
        // it are prunable outright. A lower-index candidate could still
        // win the tie-break, so only strictly worse periods may be cut.
        rso.cutoff = index > snap_index ? snap_period : snap_period + 1;
        // Until a real candidate publishes, the bound is the seed's.
        rso.cutoffFromSeed =
            options_.seed != nullptr &&
            snap_index == std::numeric_limits<uint64_t>::max();
        rso.timeBudgetSec = options_.repetendBudgetSec;
        rso.cancel = cancel_;
        Stopwatch watch;
        const RepetendSchedule sched =
            solveRepetend(placement_, assign, rso);
        local.repetendSeconds += watch.seconds();
        ++local.candidatesSolved;
        addSolveStats(local, sched.stats);

        if (sched.feasible && couldImprove(sched.period, index)) {
            std::optional<TesselPlan> plan;
            bool accept = true;
            if (options_.lazy) {
                Stopwatch w_watch;
                ++local.satChecks;
                accept = phaseSatisfiable(
                    placement_, warmupBlocks(placement_, assign), entry_,
                    options_, cancel_, local);
                local.warmupSeconds += w_watch.seconds();
                if (accept) {
                    Stopwatch c_watch;
                    ++local.satChecks;
                    accept = phaseSatisfiable(
                        placement_, cooldownBlocks(placement_, assign),
                        postWindowMem(placement_, assign,
                                      options_.initialMem),
                        options_, cancel_, local);
                    local.cooldownSeconds += c_watch.seconds();
                }
            } else {
                // Full time-optimal completion per improving candidate
                // (Algorithm 1 lines 16-17 verbatim).
                plan = completeOrReusePlan(placement_, assign, sched,
                                           options_, local, cancel_);
                accept = plan.has_value();
            }
            if (accept)
                publish(index, assign, sched, std::move(plan));
        }
    }

    void
    publish(uint64_t index, const RepetendAssignment &assign,
            const RepetendSchedule &sched, std::optional<TesselPlan> plan)
    {
        {
            std::lock_guard<std::mutex> lock(winnerMu_);
            if (!lexBetterLocked(sched.period, index))
                return;
            bestPeriod_ = sched.period;
            bestIndex_ = index;
            best_ = BestCandidate{assign, sched};
            bestPlan_ = std::move(plan);
        }
        if (sched.period == lowerBound_) {
            // Algorithm 1, lines 19-20: lower the early-exit bar, so no
            // candidate above it starts.
            uint64_t cur = lbBar_.load(std::memory_order_relaxed);
            while (index < cur &&
                   !lbBar_.compare_exchange_weak(cur, index)) {
            }
        }
    }

    const Placement &placement_;
    const TesselOptions &options_;
    const TimeBudget &totalBudget_;
    const Time lowerBound_;
    const std::vector<Mem> entry_;

    std::atomic<uint64_t> lbBar_{std::numeric_limits<uint64_t>::max()};
    /** Cancelled once the total budget runs out, stopping every solve. */
    CancelSource globalCancel_;
    /** The one token every solve runs under: the caller's cancel linked
     * with globalCancel_. */
    const CancelToken cancel_;

    std::mutex winnerMu_;
    Time bestPeriod_;
    uint64_t bestIndex_ = std::numeric_limits<uint64_t>::max();
    std::optional<BestCandidate> best_;
    std::optional<TesselPlan> bestPlan_; // Kept only without lazy search.

    std::mutex statsMu_;
    SearchBreakdown stats_;
};

/**
 * Candidate sweep: each candidate is handed to a task group on the
 * shared pool the moment it is enumerated; with one thread the group
 * has width 0 and solves it inline. The group's backlog cap keeps the
 * enumerator at most a few candidates ahead of the solves. Either way
 * enumeration stops once the early-exit bar is set, and each NR ends at
 * a barrier (the group's wait(), where the enumerating thread solves
 * what is still queued) before the early-exit, budget and cancel
 * checks. Candidates are enumerated on
 * @p enum_placement (the caller's original placement) and solved on
 * @p placement; for a comm-aware search the two differ and @p expansion
 * extends each assignment onto the comm blocks. In the homogeneous case
 * they alias and @p expansion is null.
 */
void
sweep(const Placement &enum_placement, const CommExpansion *expansion,
      const Placement &placement, const TesselOptions &options,
      const TimeBudget &total_budget, Time lower_bound, int max_inflight,
      const std::vector<Mem> &entry, int threads, TesselResult &result,
      std::optional<BestCandidate> &best,
      std::optional<TesselPlan> &best_plan)
{
    // The cold virtual incumbent sits just above totalWork, the longest
    // period a solve returns ("anything goes"); a seed tightens it to
    // the seed period, which every real candidate may still match (seed
    // index = +infinity loses all tie-breaks).
    Time optimal_init = placement.totalWork() + 1;
    if (options.seed)
        optimal_init = std::min(optimal_init, options.seed->period);
    SweepState state(placement, options, total_budget, lower_bound,
                     optimal_init, entry);
    // The enumerating thread runs candidates too (past the backlog cap
    // and inside wait()), so it counts as one of the requested threads.
    // One thread gives width 0: every candidate is solved inline.
    ThreadPool::Group group(threads - 1);

    uint64_t next_index = 0;
    for (int nr = 1; nr <= max_inflight; ++nr) {
        SearchBreakdown enum_stats;
        enumerateRepetends(
            enum_placement, nr, [&](const RepetendAssignment &enum_assign) {
                ++enum_stats.candidatesEnumerated;
                if (options.cancel.cancelled())
                    return false;
                if (total_budget.expired()) {
                    enum_stats.budgetExhausted = true;
                    return false;
                }
                RepetendAssignment assign =
                    expansion ? extendAssignment(*expansion, enum_assign)
                              : enum_assign;
                const uint64_t index = next_index++;
                group.submit([&state, index, assign = std::move(assign)] {
                    state.runCandidate(index, assign);
                });
                // Algorithm 1, lines 19-20: stop once a candidate
                // reached the lower bound.
                return !state.aboveBar(next_index);
            });
        state.mergeStats(enum_stats);
        group.wait();

        // hasBest() guards the seeded case: bestPeriod_ may start AT the
        // lower bound (a seed already that tight) without any candidate
        // having published — the sweep must still run to find one.
        if (state.hasBest() && state.bestPeriod() == lower_bound) {
            SearchBreakdown early;
            early.earlyExit = true;
            state.mergeStats(early);
        }
        if (state.stats().earlyExit || state.stats().budgetExhausted ||
            options.cancel.cancelled())
            break;
    }

    result.breakdown.merge(state.stats());
    if (state.hasBest()) {
        best = state.best();
        best_plan = state.takeBestPlan();
    }
}

} // namespace

TesselResult
tesselSearch(const Placement &placement, const TesselOptions &options)
{
    TesselResult result;

    // Comm-aware path: lower the placement onto the cluster model once
    // and run the identical sweep machinery on the expanded placement.
    // A null or trivial model takes the exact homogeneous path below,
    // so zero-comm/uniform-speed plans stay bit-identical.
    const bool comm_aware =
        options.cluster &&
        !options.cluster->isTrivial(placement.numDevices());
    std::optional<CommExpansion> expansion;
    const Placement *solve_placement = &placement;
    TesselOptions eff = options;
    if (comm_aware) {
        TraceSpan span("lower");
        expansion = expandWithComm(placement, *options.cluster,
                                   options.edgeMB, options.comm);
        span.setArg("links", expansion->numLinks);
        solve_placement = &expansion->placement;
        // Link pseudo-devices hold no parameters: pad with zeros.
        if (!eff.initialMem.empty())
            eff.initialMem.resize(solve_placement->numDevices(), 0);
    }

    result.lowerBound = solve_placement->perMicrobatchLowerBound();

    // Validate the warm-start seed once so the sweeps can trust it
    // blindly: it must carry a plausible period and a window aligned
    // with the placement actually being solved. An unusable seed is
    // dropped, never an error — the search simply runs cold.
    if (eff.seed) {
        const SearchSeed &seed = *eff.seed;
        if (seed.period < 1 ||
            seed.windowStart.size() !=
                static_cast<size_t>(solve_placement->numBlocks())) {
            eff.seed = nullptr;
        } else {
            result.breakdown.seedMakespan = seed.makespan;
        }
    }

    TimeBudget total_budget(eff.totalBudgetSec);

    // Algorithm 1, lines 1-6. Memory headroom depends only on real
    // devices, so the in-flight cap is computed on the original
    // placement in both paths.
    const int max_inflight =
        calMaxInflight(placement, options.memLimit, options.initialMem,
                       options.maxRepetendMicrobatches);

    std::vector<Mem> entry = eff.initialMem;
    if (entry.empty())
        entry.assign(solve_placement->numDevices(), 0);

    int threads = eff.numThreads;
    if (threads <= 0)
        threads = ThreadPool::hardwareThreads();
    result.breakdown.threadsUsed = threads;

    const CommExpansion *exp_ptr = expansion ? &*expansion : nullptr;
    std::optional<BestCandidate> best;
    std::optional<TesselPlan> best_plan; // Kept only without lazy search.
    {
        TraceSpan span("repetend-sweep");
        sweep(placement, exp_ptr, *solve_placement, eff, total_budget,
              result.lowerBound, max_inflight, entry, threads, result, best,
              best_plan);
        span.setArg("value_sweeps", result.breakdown.valueSweeps);
        span.setArg("policy_improvements",
                    result.breakdown.policyImprovements);
        span.setArg("seed_nodes_pruned",
                    result.breakdown.seededNodesPruned);
        span.setArg("candidates", result.breakdown.candidatesEnumerated);
    }

    result.commAware = comm_aware;
    result.expansion = std::move(expansion);
    if (comm_aware)
        solve_placement = &result.expansion->placement;
    if (!best)
        return result;

    if (eff.lazy || !best_plan) {
        TraceSpan span("phase-solve");
        // The breakdown is cumulative over the whole search; the span
        // reports only this phase's share of it.
        const uint64_t sat_checks = result.breakdown.satChecks;
        const uint64_t solver_nodes = result.breakdown.solverNodes;
        best_plan = completeOrReusePlan(*solve_placement, best->assign,
                                        best->sched, eff,
                                        result.breakdown, eff.cancel);
        span.setArg("sat_checks", result.breakdown.satChecks - sat_checks);
        span.setArg("solver_nodes",
                    result.breakdown.solverNodes - solver_nodes);
        if (!best_plan)
            return result;
    }

    result.found = true;
    result.period = best->sched.period;
    result.nrUsed = best->assign.numMicrobatches;
    result.plan = std::move(*best_plan);
    return result;
}

} // namespace tessel
