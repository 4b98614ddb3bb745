/**
 * @file
 * Exactness tests for the minimal-period / maximum-cycle-ratio kernel
 * (McrCore): Howard policy iteration must agree with a brute-force
 * simple-cycle oracle on random tiny systems, warm kernel calls must
 * reproduce cold results bit for bit while spending strictly fewer
 * value sweeps, PeriodSearch must reproduce golden schedules and search
 * trees, and nodeLimit accounting must stay exact.
 */

#include <gtest/gtest.h>

#include "core/repetend.h"
#include "core/repetend_solver.h"
#include "placement/shapes.h"
#include "support/hashing.h"

namespace tessel {
namespace {

/** Deterministic LCG so the random systems are reproducible. */
struct Rng
{
    uint64_t state;
    explicit Rng(uint64_t seed) : state(seed) {}
    uint64_t
    next()
    {
        state = state * 6364136223846793005ull + 1442695040888963407ull;
        return state >> 33;
    }
    int
    range(int lo, int hi) // inclusive
    {
        return lo + static_cast<int>(next() % (hi - lo + 1));
    }
};

/** ceil(w / h) for h > 0 without truncation-toward-zero surprises. */
Time
ceilDivFloorSafe(Time w, Time h)
{
    const Time q = w / h;
    return q * h < w ? q + 1 : q;
}

struct OracleVerdict
{
    /** true when some cycle has sum_h == 0 and sum_w > 0 (no period
     *  can satisfy it). */
    bool hopeless = false;
    /** max over cycles with sum_h > 0 of ceil(sum_w / sum_h); the
     *  smallest feasible period ignoring bounds. */
    Time minFeasible = 0;
    bool anyCycle = false;
};

/**
 * Enumerate every simple cycle by edge-DFS. Roots ascend and paths
 * only visit nodes >= the root, so each cycle is found exactly once
 * (from its smallest node; multi-edges contribute distinct cycles).
 */
void
cycleDfs(const std::vector<PeriodEdge> &edges, int root, int at,
         uint32_t visited, Time w, Time h, OracleVerdict &v)
{
    for (const PeriodEdge &e : edges) {
        if (e.from != at || e.to < root)
            continue;
        if (e.to == root) {
            const Time cw = w + e.w;
            const Time ch = h + e.h;
            v.anyCycle = true;
            if (ch == 0) {
                if (cw > 0)
                    v.hopeless = true;
            } else if (cw > 0) {
                v.minFeasible =
                    std::max(v.minFeasible, ceilDivFloorSafe(cw, ch));
            }
        } else if (!(visited & (1u << e.to))) {
            cycleDfs(edges, root, e.to, visited | (1u << e.to),
                     w + e.w, h + e.h, v);
        }
    }
}

Time
oracleMinPeriod(int n, const std::vector<PeriodEdge> &edges, Time lo,
                Time hi)
{
    OracleVerdict v;
    for (int root = 0; root < n; ++root)
        cycleDfs(edges, root, root, 1u << root, 0, 0, v);
    if (v.hopeless)
        return -1;
    const Time period = std::max(lo, v.minFeasible);
    return period > hi ? -1 : period;
}

std::vector<PeriodEdge>
randomSystem(Rng &rng, int n)
{
    const int ne = rng.range(n, 3 * n);
    std::vector<PeriodEdge> edges;
    edges.reserve(ne);
    for (int i = 0; i < ne; ++i) {
        const int from = rng.range(0, n - 1);
        int to = rng.range(0, n - 1);
        if (to == from)
            to = (to + 1) % n;
        edges.push_back({from, to, static_cast<Time>(rng.range(-3, 20)),
                         rng.range(0, 3)});
    }
    return edges;
}

/** Every constraint satisfied and the vector grounded at zero. */
void
expectValidStart(const std::vector<PeriodEdge> &edges,
                 const std::vector<Time> &s, Time period)
{
    for (const PeriodEdge &e : edges)
        EXPECT_GE(s[e.to], s[e.from] + e.w - e.h * period);
    for (const Time t : s)
        EXPECT_GE(t, 0);
}

TEST(McrKernel, HowardMatchesBruteForceOracle)
{
    Rng rng(20240808);
    int feasible = 0, infeasible = 0;
    for (int trial = 0; trial < 300; ++trial) {
        const int n = rng.range(2, 6);
        const std::vector<PeriodEdge> edges = randomSystem(rng, n);
        const Time lo = rng.range(0, 3);
        const Time hi = rng.range(8, 40);
        const Time want = oracleMinPeriod(n, edges, lo, hi);
        const McrSolveResult howard = solveMinPeriod(n, edges, lo, hi);
        ASSERT_EQ(howard.period, want) << "trial " << trial;
        if (want < 0) {
            ++infeasible;
            continue;
        }
        ++feasible;
        // Minimality of the period is the oracle's claim; the start
        // vector must satisfy every constraint at that period.
        expectValidStart(edges, howard.start, want);
        EXPECT_GT(howard.stats.valueSweeps, 0u);
    }
    // The mix must exercise both verdicts or the trial space is dead.
    EXPECT_GT(feasible, 50);
    EXPECT_GT(infeasible, 50);
}

TEST(McrKernel, WarmKernelMatchesColdOnGrownSystems)
{
    // Edge-growth chains mimic the BnB decision tail: solve, append a
    // decision edge, re-solve with the previous solution as the warm
    // base. Warm results must be bit-identical with strictly fewer
    // value sweeps in aggregate.
    Rng rng(7);
    uint64_t warmSweeps = 0, coldSweeps = 0;
    int compared = 0;
    for (int chain = 0; chain < 60; ++chain) {
        const int n = rng.range(3, 6);
        std::vector<PeriodEdge> edges = randomSystem(rng, n);
        const Time hi = 200;
        McrSolveResult prev = solveMinPeriod(n, edges, 1, hi);
        for (int grow = 0; grow < 4 && prev.period >= 0; ++grow) {
            const int from = rng.range(0, n - 1);
            int to = rng.range(0, n - 1);
            if (to == from)
                to = (to + 1) % n;
            edges.push_back({from, to,
                             static_cast<Time>(rng.range(0, 12)),
                             rng.range(0, 2)});
            const McrWarmStart warm{&prev.start, prev.period,
                                    &prev.policy};
            const McrSolveResult w =
                solveMinPeriod(n, edges, prev.period, hi, warm);
            const McrSolveResult c =
                solveMinPeriod(n, edges, prev.period, hi);
            ASSERT_EQ(w.period, c.period);
            EXPECT_EQ(w.start, c.start);
            warmSweeps += w.stats.valueSweeps;
            coldSweeps += c.stats.valueSweeps;
            ++compared;
            prev = w;
        }
    }
    EXPECT_GT(compared, 100);
    EXPECT_LT(warmSweeps, coldSweeps);
}

/**
 * Digest of every PeriodSearch result over allRepetends(p, max_nr):
 * feasibility, period, start vector, window span and the tree shape
 * (nodes, bound prunes). The expected values were captured while a
 * binary-search kernel still ran alongside and agreed on every one of
 * them, so they pin the exact schedules independently of the kernel.
 * Also checks every feasible schedule against evalPeriod, which
 * recomputes the period from the start vector alone.
 */
void
expectGolden(const Placement &p, int max_nr, Mem mem_limit,
             const char *digest_hex, uint64_t value_sweeps)
{
    Hasher h;
    uint64_t sweeps = 0;
    int feasible = 0;
    for (const auto &a : allRepetends(p, max_nr)) {
        RepetendSolveOptions opts;
        opts.memLimit = mem_limit;
        const RepetendSchedule s = solveRepetend(p, a, opts);
        h.addBool(s.feasible);
        h.addI64(s.period);
        h.addU64(s.start.size());
        for (const Time t : s.start)
            h.addI64(t);
        h.addI64(s.windowSpan);
        h.addU64(s.stats.nodes);
        h.addU64(s.stats.boundPrunes);
        sweeps += s.stats.valueSweeps;
        if (s.feasible) {
            ++feasible;
            EXPECT_EQ(evalPeriod(p, a, s.start), s.period);
        }
    }
    EXPECT_GT(feasible, 0);
    EXPECT_EQ(h.digest().hex(), digest_hex);
    EXPECT_EQ(sweeps, value_sweeps);
}

TEST(PeriodSearch, PeriodSearchGolden)
{
    expectGolden(makeVShape(4), 3, kUnlimitedMem,
                 "ebf29b9d2ec10cac9e5452ca10168ed4", 294);
    expectGolden(makeMShape(4), 2, kUnlimitedMem,
                 "66b5012f0d5453f96fdae769379942a3", 632);
    expectGolden(makeNnShape(4), 2, kUnlimitedMem,
                 "dca60fc187d41e4faea6e8920fd8ce74", 1499);
    // Cap 4 leaves the V-shape unconstrained (same digest as above);
    // cap 2 forces memory reorder branches.
    expectGolden(makeVShape(4), 3, 4, "ebf29b9d2ec10cac9e5452ca10168ed4",
                 294);
    expectGolden(makeVShape(4), 3, 2, "9c7756104a1dbde4fb0e3550c21cea17",
                 563);
}

TEST(PeriodSearch, HowardBudgetMarksUnproven)
{
    const Placement p = makeNnShape(4);
    const auto all = allRepetends(p, 4);
    ASSERT_FALSE(all.empty());
    RepetendSolveOptions opts;
    opts.nodeLimit = 1;
    const auto sched = solveRepetend(p, all[all.size() / 2], opts);
    EXPECT_FALSE(sched.proven);
}

TEST(PeriodSearch, NodeLimitExact)
{
    // nodeLimit is counted per search node — the sweep-loop stop
    // polling must not perturb it.
    const Placement p = makeNnShape(4);
    const auto all = allRepetends(p, 4);
    ASSERT_FALSE(all.empty());
    RepetendSolveOptions opts;
    opts.nodeLimit = 5;
    const auto sched = solveRepetend(p, all[all.size() / 2], opts);
    EXPECT_FALSE(sched.proven);
    EXPECT_EQ(sched.stats.nodes, 5u);
}

} // namespace
} // namespace tessel
