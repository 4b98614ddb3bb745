#include "solver/bnb.h"

#include <algorithm>
#include <cstring>
#include <memory>
#include <utility>
#include <vector>

#include "support/arena.h"
#include "support/bits.h"
#include "support/logging.h"
#include "support/timer.h"

namespace tessel {

namespace {

/** Per-key cap on dominance entries; beyond this, insertion stops. */
constexpr uint32_t kMaxEntriesPerKey = 24;
/** Cap on distinct scheduled sets in the memo; once reached, no further
 *  state is inserted and no key is created. */
constexpr size_t kMaxMemoKeys = size_t{1} << 22;

/** murmur3's 64-bit finalizer: every input bit reaches every output bit,
 *  so the low bits that index the table are as good as the high ones. */
inline uint64_t
fmix64(uint64_t h)
{
    h ^= h >> 33;
    h *= 0xff51afd7ed558ccdull;
    h ^= h >> 33;
    h *= 0xc4ceb9fe1a85ec53ull;
    h ^= h >> 33;
    return h;
}

/** Does @p a dominate @p b (no later in any of the @p len slots)? */
inline bool
dominates(const Time *a, const Time *b, uint32_t len)
{
    for (uint32_t k = 0; k < len; ++k)
        if (a[k] > b[k])
            return false;
    return true;
}

/**
 * Bump allocator of Time runs in geometrically growing chunks. Runs
 * never move; reset() rewinds to the first chunk and keeps them all, so
 * a solver that runs again allocates nothing until it outgrows the last.
 */
class TimeArena
{
  public:
    void
    reset()
    {
        chunk_ = 0;
        used_ = 0;
    }

    Time *
    alloc(size_t n)
    {
        for (; chunk_ < chunks_.size(); ++chunk_, used_ = 0) {
            if (used_ + n <= chunks_[chunk_].size) {
                Time *run = chunks_[chunk_].data.get() + used_;
                used_ += n;
                return run;
            }
        }
        const size_t size = std::max(
            n, chunks_.empty()
                   ? kFirstChunk
                   : std::min(2 * chunks_.back().size, kMaxChunk));
        // Left uninitialized, so pages cost memory only once written.
        chunks_.push_back({std::unique_ptr<Time[]>(new Time[size]), size});
        chunk_ = chunks_.size() - 1;
        used_ = n;
        return chunks_.back().data.get();
    }

  private:
    static constexpr size_t kFirstChunk = size_t{1} << 10;
    static constexpr size_t kMaxChunk = size_t{1} << 20;

    struct Chunk
    {
        std::unique_ptr<Time[]> data;
        size_t size;
    };
    std::vector<Chunk> chunks_;
    size_t chunk_ = 0; ///< Chunk the next run is carved from.
    size_t used_ = 0;  ///< Values of that chunk already handed out.
};

/**
 * The BnB dominance memo: for every scheduled set visited in one solve,
 * the dominance vectors of its states that no other state of that set
 * dominates (an antichain, so their order is immaterial).
 *
 * A power-of-two open-addressing table with linear probing maps a set,
 * given as a fixed-width row of key words, to an entry block in the
 * arena: the key words, then `count` vectors of the set's vector length
 * `len`, room for kClassCapacity[cls] of them. A key that outgrows its
 * block moves to a block of the next class; the old block goes on the
 * free list of its (len, class) and serves the next key that grows into
 * it. Nothing is allocated per node once the table, the arena and the
 * free lists have grown to the solve's working set.
 */
class DominanceMemo
{
    // Key words are stored in the Time arena, one word per value.
    static_assert(sizeof(uint64_t) == sizeof(Time), "key word width");

  public:
    /** Empty the memo for a solve over @p key_words-word keys and
     *  vectors of at most @p max_len values, keeping its capacity. */
    void
    reset(int key_words, uint32_t max_len)
    {
        keyWords_ = static_cast<uint32_t>(key_words);
        if (slots_.empty())
            slots_.resize(kInitialSlots);
        else
            std::fill(slots_.begin(), slots_.end(), Slot{});
        seen_ = 0;
        arena_.reset();
        freeBlocks_.resize(size_t{max_len + 1} * kClasses);
        for (std::vector<Time *> &list : freeBlocks_)
            list.clear();
    }

    /**
     * Visit a state of scheduled set @p key with dominance vector
     * @p vec. @return true when a stored vector dominates it (prune).
     * Otherwise drops the stored vectors it dominates and stores it,
     * within the per-key and key-count caps.
     */
    bool
    visit(const uint64_t *key, const Time *vec, uint32_t len)
    {
        uint64_t h = 0;
        for (uint32_t w = 0; w < keyWords_; ++w)
            h = fmix64(h ^ key[w]);
        Slot *slot = find(h, key);
        if (!slot->block) {
            // A new set. The one that reaches the key cap is counted
            // but, like every later one, not stored.
            if (seen_ < kMaxMemoKeys)
                ++seen_;
            if (seen_ >= kMaxMemoKeys)
                return false;
            if (2 * seen_ > slots_.size()) {
                grow();
                slot = find(h, key);
            }
            slot->hash = h;
            slot->block = allocBlock(len, 0);
            std::memcpy(slot->block, key, keyWords_ * sizeof(uint64_t));
            std::memcpy(slot->block + keyWords_, vec, len * sizeof(Time));
            slot->count = 1;
            return false;
        }
        Time *entries = slot->block + keyWords_;
        for (uint32_t k = 0; k < slot->count; ++k)
            if (dominates(entries + size_t{k} * len, vec, len))
                return true;
        uint32_t n = slot->count;
        for (uint32_t k = 0; k < n;) {
            Time *e = entries + size_t{k} * len;
            if (!dominates(vec, e, len)) {
                ++k;
            } else if (--n != k) {
                std::memcpy(e, entries + size_t{n} * len, len * sizeof(Time));
            }
        }
        slot->count = n;
        if (n < kMaxEntriesPerKey && seen_ < kMaxMemoKeys) {
            if (n == kClassCapacity[slot->cls]) {
                Time *grown = allocBlock(len, slot->cls + 1);
                std::memcpy(grown, slot->block,
                            (keyWords_ + size_t{n} * len) * sizeof(Time));
                freeBlocks_[size_t{len} * kClasses + slot->cls].push_back(
                    slot->block);
                slot->block = grown;
                ++slot->cls;
                entries = grown + keyWords_;
            }
            std::memcpy(entries + size_t{n} * len, vec, len * sizeof(Time));
            slot->count = n + 1;
        }
        return false;
    }

  private:
    /** Entry-block capacities, in vectors. Steps of about 1.5x rather
     *  than 2x cut the arena of NN/hetero's phase solves by a tenth. */
    static constexpr uint32_t kClasses = 9;
    static constexpr uint32_t kClassCapacity[kClasses] = {
        1, 2, 3, 4, 6, 8, 12, 16, kMaxEntriesPerKey};
    static constexpr size_t kInitialSlots = 256;

    struct Slot
    {
        uint64_t hash = 0;
        Time *block = nullptr; ///< Null: the slot is empty.
        uint32_t count = 0;    ///< Vectors stored.
        uint32_t cls = 0;      ///< Block class (capacity).
    };

    /** The slot holding @p key, or the empty slot where it belongs. */
    Slot *
    find(uint64_t h, const uint64_t *key)
    {
        const size_t mask = slots_.size() - 1;
        for (size_t i = h & mask;; i = (i + 1) & mask) {
            Slot &s = slots_[i];
            if (!s.block ||
                (s.hash == h &&
                 std::memcmp(s.block, key, keyWords_ * sizeof(uint64_t)) ==
                     0))
                return &s;
        }
    }

    void
    grow()
    {
        const std::vector<Slot> old =
            std::exchange(slots_, std::vector<Slot>(slots_.size() * 2));
        const size_t mask = slots_.size() - 1;
        for (const Slot &s : old) {
            if (!s.block)
                continue;
            size_t i = s.hash & mask;
            while (slots_[i].block)
                i = (i + 1) & mask;
            slots_[i] = s;
        }
    }

    Time *
    allocBlock(uint32_t len, uint32_t cls)
    {
        std::vector<Time *> &list = freeBlocks_[size_t{len} * kClasses + cls];
        if (!list.empty()) {
            Time *block = list.back();
            list.pop_back();
            return block;
        }
        return arena_.alloc(keyWords_ + size_t{kClassCapacity[cls]} * len);
    }

    uint32_t keyWords_ = 0;
    std::vector<Slot> slots_;
    size_t seen_ = 0; ///< Distinct sets seen, saturating at the cap.
    TimeArena arena_;
    /** Outgrown blocks by (len, class), for reuse. */
    std::vector<std::vector<Time *>> freeBlocks_;
};

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
    // The scheduled set, one bit per block: also the dominance-memo key.
    std::vector<uint64_t> schedWords;
    // The scheduled blocks that still have unscheduled successors, whose
    // finish times enter the dominance vector.
    std::vector<uint64_t> frontierWords;
    std::vector<int> depsLeft;
    std::vector<int> openSuccs; // Unscheduled successors per block.
    // Release and dependency-finish bound on a ready block's start: fixed
    // from the dispatch that readies it until that dispatch is undone.
    std::vector<Time> readyAt;
    std::vector<Time> startOf;
    std::vector<Time> finishOf;
    std::vector<Time> avail;   // Per-device next free time.
    std::vector<Mem> memUsed;  // Per-device current usage.
    std::vector<Time> remWork; // Per-device unscheduled work.
    Time curMakespan = 0;
    int numScheduled = 0;

    // Ready list: the unscheduled blocks whose dependencies are all
    // scheduled, maintained incrementally by dispatch()/undo() so a
    // node never scans all nb blocks for candidates. List order is
    // arbitrary; the candidate sort's full tie-break restores the
    // exact cold-path expansion order.
    std::vector<int> readyList;
    std::vector<int> readyPos; // Index into readyList, -1 if absent.
    // Earliest start of readyList[k] at the current node, computed once
    // by lowerBound() and read by the candidate scan.
    std::vector<Time> readyEst;

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

    // Dominance memo, cleared by every run(), so a reused solver answers
    // exactly like a fresh one.
    DominanceMemo memo;
    std::vector<Time> domScratch; // Current node's vector.

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
        const int words = (nb + 63) / 64;
        schedWords.assign(words, 0);
        frontierWords.assign(words, 0);
        depsLeft.assign(nb, 0);
        openSuccs.assign(nb, 0);
        readyAt.assign(nb, 0);
        startOf.assign(nb, kUnscheduled);
        finishOf.assign(nb, kUnscheduled);
        for (int i = 0; i < nb; ++i) {
            depsLeft[i] = static_cast<int>(prob.blocks[i].deps.size());
            openSuccs[i] = static_cast<int>(succs[i].size());
            readyAt[i] = prob.blocks[i].release;
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
        const uint32_t max_len = static_cast<uint32_t>(nd + nb + 1);
        memo.reset(words, max_len);
        domScratch.resize(max_len);
        savedAvail.reset(nb + 1, nd);
        savedMem.reset(nb + 1, nd);
        readyList.clear();
        readyPos.assign(nb, -1);
        readyEst.resize(nb);
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

    bool
    isScheduled(int i) const
    {
        return (schedWords[i >> 6] >> (i & 63)) & 1;
    }

    static void
    setBit(std::vector<uint64_t> &words, int i)
    {
        words[i >> 6] |= uint64_t{1} << (i & 63);
    }

    static void
    clearBit(std::vector<uint64_t> &words, int i)
    {
        words[i >> 6] &= ~(uint64_t{1} << (i & 63));
    }

    /** Earliest start of a ready block in the current state. */
    Time
    estOf(int i) const
    {
        Time est = readyAt[i];
        for (int d : devicesOf(i))
            est = std::max(est, avail[d]);
        return est;
    }

    /** Admissible lower bound on the completed makespan of this state;
     *  also fills readyEst. */
    Time
    lowerBound()
    {
        Time lb = curMakespan;
        for (int d = 0; d < nd; ++d)
            lb = std::max(lb, avail[d] + remWork[d]);
        for (size_t k = 0; k < readyList.size(); ++k) {
            const int i = readyList[k];
            readyEst[k] = estOf(i);
            lb = std::max(lb, readyEst[k] + tail[i]);
        }
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

    /**
     * Build the current state's dominance vector into domScratch: device
     * availability, the frontier's finish times in ascending block
     * order, and the partial makespan. Every state of one scheduled set
     * has the same frontier, hence the same layout. @return its length.
     */
    uint32_t
    buildDomVector()
    {
        Time *v = domScratch.data();
        uint32_t len = 0;
        for (int d = 0; d < nd; ++d)
            v[len++] = avail[d];
        for (size_t w = 0; w < frontierWords.size(); ++w)
            for (uint64_t bits = frontierWords[w]; bits; bits &= bits - 1)
                v[len++] = finishOf[w * 64 + lowestBit64(bits)];
        v[len++] = curMakespan;
        return len;
    }

    /**
     * @return true when a state already visited with the same scheduled
     * set dominates the current one (prune it). Otherwise the memo drops
     * the entries the current state dominates and inserts it, within the
     * per-key and key-count caps.
     */
    bool
    checkAndInsertMemo()
    {
        if (!opts.useDominance)
            return false;
        const uint32_t len = buildDomVector();
        if (!memo.visit(schedWords.data(), domScratch.data(), len))
            return false;
        ++stats.memoHits;
        return true;
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
                stats.timedOut = true;
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
        setBit(schedWords, i);
        if (!succs[i].empty())
            setBit(frontierWords, i);
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
        for (int s : succs[i]) {
            if (--depsLeft[s] == 0) {
                Time at = prob.blocks[s].release;
                for (int dep : prob.blocks[s].deps)
                    at = std::max(at, finishOf[dep]);
                readyAt[s] = at;
                readyAdd(s);
            }
        }
        for (int dep : b.deps)
            if (--openSuccs[dep] == 0)
                clearBit(frontierWords, dep);
    }

    void
    undo(int i, Time saved_makespan, const Time *saved_avail,
         const Mem *saved_mem)
    {
        const SolverBlock &b = prob.blocks[i];
        clearBit(schedWords, i);
        clearBit(frontierWords, i);
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
            if (openSuccs[dep]++ == 0)
                setBit(frontierWords, dep);
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
        for (size_t k = 0; k < readyList.size(); ++k) {
            const int i = readyList[k];
            const SolverBlock &b = prob.blocks[i];
            if (opts.useSymmetry && b.orderAfter >= 0 &&
                !isScheduled(b.orderAfter)) {
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
            const Time est = readyEst[k];
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
