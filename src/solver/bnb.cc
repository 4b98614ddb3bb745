#include "solver/bnb.h"

#include <algorithm>
#include <unordered_map>
#include <vector>

#include "support/arena.h"
#include "support/bitset.h"
#include "support/logging.h"
#include "support/timer.h"

namespace tessel {

namespace {

/** Per-key cap on dominance entries; beyond this, insertion stops. */
constexpr size_t kMaxEntriesPerKey = 24;
/** Cap on distinct scheduled sets in the memo; once reached, no further
 *  state is inserted. */
constexpr size_t kMaxMemoKeys = size_t{1} << 22;

} // namespace

struct BnbSolver::Impl
{
    const SolverProblem &prob;
    SolverOptions opts;
    int nb = 0;
    int nd = 0;

    // Static derived data.
    std::vector<std::vector<int>> succs;
    std::vector<Time> tail; // Longest dependency path incl. own span.
    // Per-block device indices, CSR layout: block i occupies devices
    // devList[devBegin[i] .. devBegin[i+1]). Precomputed so the hot
    // dispatch/undo/bound loops never touch mask bits.
    std::vector<int> devList;
    std::vector<int> devBegin;

    // Dynamic search state.
    std::vector<char> scheduled;
    std::vector<int> depsLeft;
    std::vector<int> openSuccs; // Unscheduled successors per block.
    std::vector<Time> startOf;
    std::vector<Time> finishOf;
    std::vector<Time> avail;   // Per-device next free time.
    std::vector<Mem> memUsed;  // Per-device current usage.
    std::vector<Time> remWork; // Per-device unscheduled work.
    BlockSet schedSet;
    Time curMakespan = 0;
    int numScheduled = 0;

    // Ready list: the unscheduled blocks whose dependencies are all
    // scheduled, maintained incrementally by dispatch()/undo() so a
    // node never scans all nb blocks for candidates. List order is
    // arbitrary; the candidate sort's full tie-break restores the
    // exact cold-path expansion order.
    std::vector<int> readyList;
    std::vector<int> readyPos; // Index into readyList, -1 if absent.

    // Per-depth scratch (depth == numScheduled <= nb): dispatch
    // save/restore rows and candidate buffers, allocated once per
    // solve so dispatch and candidate gathering never allocate.
    DepthArena<Time> savedAvail;
    DepthArena<Mem> savedMem;
    struct Cand
    {
        int block;
        Time est;
    };
    FramePool<std::vector<Cand>> candPool;

    // Incumbent.
    Time bestMakespan = 0;
    bool haveIncumbent = false;
    std::vector<Time> bestStarts;

    // Mode / control.
    bool decideMode = false;
    Time deadline = 0;
    bool stop = false;
    bool provenInfeasibleDisabled = false; // Set when budget tripped.
    TimeBudget budget{0.0};
    SolveStats stats;

    // Dominance memo: per scheduled set, the vectors of the states
    // already visited in this run. Cleared by every run(), so a reused
    // solver answers exactly like a fresh one.
    using DomVec = std::vector<Time>;
    std::unordered_map<BlockSet, std::vector<DomVec>, BlockSetHash> memo;
    DomVec domScratch; // Current node's vector (reused across nodes).

    explicit Impl(const SolverProblem &p, SolverOptions o)
        : prob(p), opts(o)
    {
        nb = static_cast<int>(prob.blocks.size());
        nd = prob.numDevices;
        fatal_if(nb == 0, "solver: empty problem");
        fatal_if(nd <= 0, "solver: bad device count ", nd);
        buildStatic();
    }

    /** Devices of block @p i (CSR slice). */
    struct DevRange
    {
        const int *first;
        const int *last;
        const int *begin() const { return first; }
        const int *end() const { return last; }
    };

    DevRange
    devicesOf(int i) const
    {
        return {devList.data() + devBegin[i],
                devList.data() + devBegin[i + 1]};
    }

    void
    buildStatic()
    {
        succs.assign(nb, {});
        devBegin.assign(nb + 1, 0);
        std::vector<int> indeg(nb, 0);
        for (int i = 0; i < nb; ++i) {
            const SolverBlock &b = prob.blocks[i];
            fatal_if(b.span <= 0, "solver: block ", i,
                     " has non-positive span");
            fatal_if(b.devices.empty(), "solver: block ", i,
                     " has no devices");
            fatal_if(b.devices.anyAtOrAbove(nd), "solver: block ", i,
                     " uses out-of-range device");
            for (int d : b.devices)
                devList.push_back(d);
            devBegin[i + 1] = static_cast<int>(devList.size());
            for (int dep : b.deps) {
                fatal_if(dep < 0 || dep >= nb || dep == i,
                         "solver: block ", i, " has bad dependency ", dep);
                succs[dep].push_back(i);
                ++indeg[i];
            }
            fatal_if(b.orderAfter >= nb,
                     "solver: block ", i, " has bad orderAfter");
        }
        // Topological order (Kahn) for tail computation.
        std::vector<int> topo;
        std::vector<int> ready;
        for (int i = 0; i < nb; ++i)
            if (indeg[i] == 0)
                ready.push_back(i);
        while (!ready.empty()) {
            int i = ready.back();
            ready.pop_back();
            topo.push_back(i);
            for (int s : succs[i])
                if (--indeg[s] == 0)
                    ready.push_back(s);
        }
        fatal_if(static_cast<int>(topo.size()) != nb,
                 "solver: dependency cycle");
        tail.assign(nb, 0);
        for (auto it = topo.rbegin(); it != topo.rend(); ++it) {
            const int i = *it;
            Time t = 0;
            for (int s : succs[i])
                t = std::max(t, tail[s]);
            tail[i] = t + prob.blocks[i].span;
        }
    }

    void
    resetDynamic()
    {
        scheduled.assign(nb, 0);
        depsLeft.assign(nb, 0);
        openSuccs.assign(nb, 0);
        startOf.assign(nb, kUnscheduled);
        finishOf.assign(nb, kUnscheduled);
        for (int i = 0; i < nb; ++i) {
            depsLeft[i] = static_cast<int>(prob.blocks[i].deps.size());
            openSuccs[i] = static_cast<int>(succs[i].size());
        }
        avail.assign(nd, 0);
        if (!prob.initialAvail.empty()) {
            panic_if(static_cast<int>(prob.initialAvail.size()) != nd,
                     "initialAvail size mismatch");
            for (int d = 0; d < nd; ++d)
                avail[d] = prob.initialAvail[d];
        }
        memUsed.assign(nd, 0);
        if (!prob.initialMem.empty()) {
            panic_if(static_cast<int>(prob.initialMem.size()) != nd,
                     "initialMem size mismatch");
            for (int d = 0; d < nd; ++d)
                memUsed[d] = prob.initialMem[d];
        }
        remWork.assign(nd, 0);
        for (int i = 0; i < nb; ++i)
            for (int d : devicesOf(i))
                remWork[d] += prob.blocks[i].span;
        schedSet = BlockSet{};
        curMakespan = 0;
        for (int d = 0; d < nd; ++d)
            curMakespan = std::max(curMakespan, avail[d]);
        numScheduled = 0;
        haveIncumbent = false;
        bestMakespan = 0;
        bestStarts.clear();
        stop = false;
        provenInfeasibleDisabled = false;
        stats = SolveStats{};
        memo.clear();
        savedAvail.reset(nb + 1, nd);
        savedMem.reset(nb + 1, nd);
        readyList.clear();
        readyPos.assign(nb, -1);
        for (int i = 0; i < nb; ++i)
            if (depsLeft[i] == 0)
                readyAdd(i);
    }

    void
    readyAdd(int i)
    {
        readyPos[i] = static_cast<int>(readyList.size());
        readyList.push_back(i);
        ++stats.readyPushes;
    }

    void
    readyRemove(int i)
    {
        const int pos = readyPos[i];
        const int last = readyList.back();
        readyList[pos] = last;
        readyPos[last] = pos;
        readyList.pop_back();
        readyPos[i] = -1;
    }

    /** Earliest start of a dispatchable block in the current state. */
    Time
    estOf(int i) const
    {
        const SolverBlock &b = prob.blocks[i];
        Time est = b.release;
        for (int dep : b.deps)
            est = std::max(est, finishOf[dep]);
        for (int d : devicesOf(i))
            est = std::max(est, avail[d]);
        return est;
    }

    /** Admissible lower bound on the completed makespan of this state. */
    Time
    lowerBound()
    {
        Time lb = curMakespan;
        for (int d = 0; d < nd; ++d)
            lb = std::max(lb, avail[d] + remWork[d]);
        for (int i : readyList)
            lb = std::max(lb, estOf(i) + tail[i]);
        return lb;
    }

    /** Upper limit a node must beat to keep exploring. */
    Time
    currentLimit() const
    {
        if (decideMode)
            return deadline;
        if (haveIncumbent)
            return bestMakespan - 1;
        return kUnlimitedMem; // Effectively +inf.
    }

    /** Build the dominance vector for the current state into @p v. */
    void
    buildDomVector(DomVec &v) const
    {
        v.clear();
        for (int d = 0; d < nd; ++d)
            v.push_back(avail[d]);
        for (int i = 0; i < nb; ++i)
            if (scheduled[i] && openSuccs[i] > 0)
                v.push_back(finishOf[i]);
        v.push_back(curMakespan);
    }

    static bool
    dominates(const DomVec &a, const DomVec &b)
    {
        // Same scheduled set implies same layout, hence same length.
        for (size_t k = 0; k < a.size(); ++k)
            if (a[k] > b[k])
                return false;
        return true;
    }

    /**
     * @return true when a state already visited with the same scheduled
     * set dominates the current one (prune it). Otherwise drops the
     * entries the current state dominates and inserts it, within the
     * per-key and key-count caps.
     */
    bool
    checkAndInsertMemo()
    {
        if (!opts.useDominance)
            return false;
        auto &entries = memo[schedSet];
        buildDomVector(domScratch);
        for (const DomVec &e : entries) {
            if (dominates(e, domScratch)) {
                ++stats.memoHits;
                return true;
            }
        }
        // Drop entries the current state dominates, then insert,
        // reusing storage.
        size_t w = 0;
        for (size_t r = 0; r < entries.size(); ++r) {
            if (dominates(domScratch, entries[r]))
                continue;
            if (w != r)
                entries[w] = std::move(entries[r]);
            ++w;
        }
        entries.resize(w);
        if (entries.size() < kMaxEntriesPerKey && memo.size() < kMaxMemoKeys)
            entries.push_back(domScratch);
        return false;
    }

    bool
    budgetTripped()
    {
        // The node cap binds exactly; clock and cancel-flag reads are
        // polled every 1024 nodes (starting at the first).
        if (opts.nodeLimit && stats.nodes >= opts.nodeLimit) {
            stats.budgetExhausted = true;
            provenInfeasibleDisabled = true;
            stop = true;
        } else if ((stats.nodes & 1023) == 0) {
            if (budget.expired()) {
                stats.budgetExhausted = true;
                provenInfeasibleDisabled = true;
                stop = true;
            } else if (opts.cancel.cancelled()) {
                stats.cancelled = true;
                provenInfeasibleDisabled = true;
                stop = true;
            }
        }
        return stop;
    }

    void
    dispatch(int i, Time est, Time *saved_avail, Mem *saved_mem)
    {
        const SolverBlock &b = prob.blocks[i];
        scheduled[i] = 1;
        schedSet.set(i);
        ++numScheduled;
        startOf[i] = est;
        finishOf[i] = est + b.span;
        for (int d : devicesOf(i)) {
            saved_avail[d] = avail[d];
            saved_mem[d] = memUsed[d];
            avail[d] = finishOf[i];
            memUsed[d] += b.memory;
            remWork[d] -= b.span;
        }
        readyRemove(i);
        for (int s : succs[i])
            if (--depsLeft[s] == 0)
                readyAdd(s);
        for (int dep : b.deps)
            --openSuccs[dep];
    }

    void
    undo(int i, Time saved_makespan, const Time *saved_avail,
         const Mem *saved_mem)
    {
        const SolverBlock &b = prob.blocks[i];
        scheduled[i] = 0;
        schedSet.reset(i);
        --numScheduled;
        startOf[i] = kUnscheduled;
        finishOf[i] = kUnscheduled;
        for (int d : devicesOf(i)) {
            avail[d] = saved_avail[d];
            memUsed[d] = saved_mem[d];
            remWork[d] += b.span;
        }
        for (int s : succs[i])
            if (depsLeft[s]++ == 0)
                readyRemove(s);
        readyAdd(i);
        for (int dep : b.deps)
            ++openSuccs[dep];
        curMakespan = saved_makespan;
    }

    void
    search()
    {
        if (stop || budgetTripped())
            return;
        ++stats.nodes;

        if (numScheduled == nb) {
            // Leaf: complete schedule.
            if (decideMode) {
                if (curMakespan <= deadline) {
                    bestMakespan = curMakespan;
                    bestStarts = startOf;
                    haveIncumbent = true;
                    stop = true;
                }
            } else if (!haveIncumbent || curMakespan < bestMakespan) {
                bestMakespan = curMakespan;
                bestStarts = startOf;
                haveIncumbent = true;
            }
            return;
        }

        const Time limit = currentLimit();
        if (lowerBound() > limit) {
            ++stats.boundPrunes;
            return;
        }
        if (checkAndInsertMemo())
            return;

        // Gather dispatchable candidates from the ready list. The
        // list's order is arbitrary, but the filters are per-block and
        // the sort below breaks every tie, so the expansion order (and
        // hence the search tree) is identical to a full index scan.
        const int depth = numScheduled;
        std::vector<Cand> &cands = candPool.at(depth);
        cands.clear();
        for (int i : readyList) {
            const SolverBlock &b = prob.blocks[i];
            if (opts.useSymmetry && b.orderAfter >= 0 &&
                !scheduled[b.orderAfter]) {
                continue;
            }
            if (b.memory > 0) {
                bool mem_ok = true;
                for (int d : devicesOf(i))
                    if (memUsed[d] + b.memory > prob.memLimit) {
                        mem_ok = false;
                        break;
                    }
                if (!mem_ok)
                    continue; // May become dispatchable after a release.
            }
            const Time est = estOf(i);
            if (est + tail[i] > limit) {
                ++stats.boundPrunes;
                continue;
            }
            cands.push_back({i, est});
        }
        if (!cands.empty()) {
            // Seed ordering (decide mode only): follow the suggested
            // dispatch order first so the first dive replays a known
            // schedule. The verdict is unaffected — decide() returns an
            // order-independent boolean — and minimize mode never sees
            // the priority (its incumbent depends on expansion order).
            const std::vector<Time> *prio =
                decideMode && opts.seedPriority &&
                        opts.seedPriority->size() == prob.blocks.size()
                    ? opts.seedPriority
                    : nullptr;
            std::sort(cands.begin(), cands.end(),
                      [&](const Cand &a, const Cand &b) {
                          if (prio && (*prio)[a.block] != (*prio)[b.block])
                              return (*prio)[a.block] < (*prio)[b.block];
                          if (a.est != b.est)
                              return a.est < b.est;
                          if (tail[a.block] != tail[b.block])
                              return tail[a.block] > tail[b.block];
                          return a.block < b.block;
                      });

            Time *saved_avail = savedAvail.row(depth);
            Mem *saved_mem = savedMem.row(depth);
            for (const Cand &c : cands) {
                if (stop)
                    return;
                const Time saved_makespan = curMakespan;
                dispatch(c.block, c.est, saved_avail, saved_mem);
                curMakespan = std::max(curMakespan, finishOf[c.block]);
                search();
                undo(c.block, saved_makespan, saved_avail, saved_mem);
            }
        }
    }

    SolveResult
    run(bool decide_mode, Time decide_deadline)
    {
        resetDynamic();
        decideMode = decide_mode;
        deadline = decide_deadline;
        budget = TimeBudget(opts.timeBudgetSec);

        // Initial-state feasibility.
        bool initial_ok = true;
        for (int d = 0; d < nd; ++d)
            if (memUsed[d] > prob.memLimit)
                initial_ok = false;

        if (initial_ok)
            search();

        SolveResult res;
        stats.seconds = budget.elapsed();
        res.stats = stats;
        if (haveIncumbent) {
            res.makespan = bestMakespan;
            res.starts = bestStarts;
            const bool proof_cut = stats.budgetExhausted || stats.cancelled;
            res.status = (proof_cut && !decideMode) ? SolveStatus::Feasible
                                                    : SolveStatus::Optimal;
            if (decideMode)
                res.status = SolveStatus::Optimal; // Deadline met: SAT.
        } else {
            res.status = provenInfeasibleDisabled ? SolveStatus::Unknown
                                                  : SolveStatus::Infeasible;
        }
        return res;
    }
};

BnbSolver::BnbSolver(const SolverProblem &problem, SolverOptions options)
    : impl_(std::make_unique<Impl>(problem, options))
{
}

BnbSolver::~BnbSolver() = default;

SolveResult
BnbSolver::minimizeMakespan()
{
    return impl_->run(false, 0);
}

SolveResult
BnbSolver::decide(Time deadline)
{
    return impl_->run(true, deadline);
}

} // namespace tessel
