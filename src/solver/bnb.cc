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
    std::vector<int> topo;
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
    // solve so steady-state search does zero heap allocation.
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

    using DomVec = std::vector<Time>;

    /**
     * One dominance-memo entry. `epoch` stamps the run() that last
     * inserted it: same-epoch entries prune duplicates within a round
     * exactly as before. `exhaustedAt` is a cross-round proof level —
     * the entry's subtree was exhaustively explored in some decide()
     * round with deadline `exhaustedAt` without finding a schedule, so
     * no completion with makespan <= exhaustedAt exists below it and
     * any later round with deadline <= exhaustedAt may prune dominated
     * states outright. Entries whose exploration was cut short (early
     * SAT stop, budget trip) keep exhaustedAt = -1 and never prune
     * across rounds.
     */
    struct MemoEntry
    {
        DomVec v;
        Time exhaustedAt = -1;
        uint32_t epoch = 0;
    };
    std::unordered_map<BlockSet, std::vector<MemoEntry>, BlockSetHash>
        memo;
    uint32_t memoEpoch = 0;
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
        topo.clear();
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
        ++memoEpoch;
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
        Time limit = kUnlimitedMem; // Effectively +inf.
        if (decideMode)
            limit = deadline;
        else if (haveIncumbent)
            limit = bestMakespan - 1;
        // A concurrently improving external incumbent tightens the
        // bound mid-solve; only strictly better completions matter.
        // Decide mode answers "is the deadline reachable" and must not
        // be clamped by an unrelated optimization incumbent.
        if (opts.liveCutoff && !decideMode) {
            const Time live =
                opts.liveCutoff->load(std::memory_order_acquire);
            limit = std::min(limit, live - 1);
        }
        return limit;
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
     * @return true when the current state is dominated (prune it).
     * Otherwise inserts the state and points @p slot at the new entry
     * (left null when the entry caps forbid insertion) so search() can
     * record the exhaustion proof level on clean backtrack.
     *
     * A dominating entry prunes when it is from the current round
     * (visited-duplicate semantics, unchanged) or when its recorded
     * proof level covers the current @p limit (cross-round reuse).
     * Entry references stay valid for the whole subtree: rehashing
     * never invalidates unordered_map references, and the bucket
     * vector only mutates on same-key visits, which share this node's
     * depth and therefore cannot occur inside its subtree.
     */
    bool
    checkAndInsertMemo(Time limit, MemoEntry *&slot)
    {
        if (!opts.useDominance)
            return false;
        auto &entries = memo[schedSet];
        buildDomVector(domScratch);
        MemoEntry *refresh = nullptr;
        for (MemoEntry &e : entries) {
            if (!dominates(e.v, domScratch))
                continue;
            if (e.epoch == memoEpoch) {
                ++stats.memoHits;
                return true;
            }
            if (e.exhaustedAt >= 0 && limit <= e.exhaustedAt) {
                ++stats.memoHits;
                ++stats.memoReused;
                return true;
            }
            if (!refresh && dominates(domScratch, e.v))
                refresh = &e;
        }
        if (refresh) {
            // Equal-vector stale entry: adopt it in place instead of
            // drop-and-reinsert, keeping any exhaustion proof it holds
            // (the proof is a fact about the state, not the round) in
            // case this round's re-exploration is cut short.
            refresh->epoch = memoEpoch;
            slot = refresh;
            return false;
        }
        // Drop entries the current state dominates (stale equal states
        // are refreshed this way) plus dead old-epoch ones — an entry
        // from an earlier round that never earned a proof level can
        // never prune again and must not clog the per-key cap. Then
        // insert, reusing storage.
        size_t w = 0;
        for (size_t r = 0; r < entries.size(); ++r) {
            if (dominates(domScratch, entries[r].v))
                continue;
            if (entries[r].epoch != memoEpoch &&
                entries[r].exhaustedAt < 0)
                continue;
            if (w != r)
                entries[w] = std::move(entries[r]);
            ++w;
        }
        entries.resize(w);
        if (entries.size() < kMaxEntriesPerKey &&
            memo.size() < opts.memoCap) {
            entries.emplace_back();
            entries.back().v = domScratch;
            entries.back().epoch = memoEpoch;
            slot = &entries.back();
        }
        return false;
    }

    bool
    budgetTripped()
    {
        if ((stats.nodes & 1023) == 0) {
            if (budget.expired() ||
                (opts.nodeLimit && stats.nodes >= opts.nodeLimit)) {
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
        MemoEntry *slot = nullptr;
        if (checkAndInsertMemo(limit, slot))
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
                    return; // Unwinding: leave the entry unexhausted.
                const Time saved_makespan = curMakespan;
                dispatch(c.block, c.est, saved_avail, saved_mem);
                curMakespan = std::max(curMakespan, finishOf[c.block]);
                search();
                undo(c.block, saved_makespan, saved_avail, saved_mem);
            }
        }
        // Subtree exhausted without a stop: in decide mode that proves
        // no completion with makespan <= deadline exists below this
        // state (bound prunes are admissible at `limit`, memo prunes
        // certify inductively), so later rounds with deadlines <= limit
        // may prune dominated states from this entry. An empty
        // candidate set (memory deadlock / all pruned) is exhausted
        // too. Minimize mode keeps no proof level: its limit tightens
        // mid-subtree with the incumbent and liveCutoff.
        if (slot && decideMode && !stop)
            slot->exhaustedAt = std::max(slot->exhaustedAt, limit);
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

    /** Static lower bound used to seed the binary search. */
    Time
    staticLowerBound() const
    {
        Time lb = 0;
        std::vector<Time> work(nd, 0);
        for (int i = 0; i < nb; ++i)
            for (int d : devicesOf(i))
                work[d] += prob.blocks[i].span;
        for (int d = 0; d < nd; ++d) {
            const Time base =
                prob.initialAvail.empty() ? 0 : prob.initialAvail[d];
            lb = std::max(lb, base + work[d]);
        }
        // Critical path with release times.
        std::vector<Time> head(nb, 0);
        for (int i : topo) {
            Time h = prob.blocks[i].release;
            for (int dep : prob.blocks[i].deps)
                h = std::max(h, head[dep]);
            head[i] = h + prob.blocks[i].span;
            lb = std::max(lb, head[i]);
        }
        return lb;
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
    SolveResult res = impl_->run(true, deadline);
    // In decide mode a found schedule means SAT; classify accordingly.
    return res;
}

SolveResult
BnbSolver::binarySearchMakespan()
{
    const Time lb = impl_->staticLowerBound();
    // First find any feasible schedule to bound the search from above.
    SolveResult any = decide(kUnlimitedMem);
    if (!any.feasible())
        return any;
    SolveStats total = any.stats;
    Time lo = lb;
    Time hi = any.makespan;
    SolveResult best = any;
    while (lo < hi) {
        const Time mid = lo + (hi - lo) / 2;
        SolveResult r = decide(mid);
        total.merge(r.stats);
        if (r.feasible()) {
            best = r;
            hi = r.makespan;
        } else if (r.status == SolveStatus::Infeasible) {
            lo = mid + 1;
        } else {
            // Budget exhausted: return the best found so far, unproven.
            best.status = SolveStatus::Feasible;
            total.budgetExhausted = true;
            break;
        }
    }
    best.stats = total;
    return best;
}

} // namespace tessel
