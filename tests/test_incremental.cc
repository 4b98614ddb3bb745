/**
 * @file
 * Counter-regression tests for single branch-and-bound solves: one
 * minimizeMakespan() and one decide(kUnlimitedMem) per instance, the two
 * calls the phase search makes. The instances are fixed (GPT M-shape,
 * mT5 NN-shape) and the solver is deterministic, so the assertions pin
 * exact makespans and node, memo-hit and bound-prune counts, not just
 * statistical tendencies. A solver called more than once must answer
 * exactly like fresh solvers. (The warm-started period kernel is pinned
 * by test_mcr's golden and warm-vs-cold tests.)
 */

#include <gtest/gtest.h>

#include <vector>

#include "placement/shapes.h"
#include "solver/bnb.h"
#include "solver/from_ir.h"

namespace tessel {
namespace {

/** Expected single-solve outcomes on one fixed instance. */
struct SolveGolden
{
    int microbatches;
    // minimizeMakespan()
    Time makespan;
    uint64_t nodes;
    uint64_t memoHits;
    uint64_t boundPrunes;
    // decide(kUnlimitedMem): the first leaf the search reaches.
    Time decideMakespan;
    uint64_t decideNodes;
    uint64_t decideMemoHits;
};

/**
 * Solve @p shape (4 devices, memory cap 4) once per call kind for each
 * golden row. The memory cap derails the est/tail greedy first dive, so
 * the first leaf is not optimal and minimization prunes real subtrees.
 */
void
expectSolveGolden(const Placement &shape,
                  const std::vector<SolveGolden> &golden)
{
    for (const SolveGolden &g : golden) {
        Problem prob(shape, g.microbatches, 4);
        const SolverProblem sp = buildFullInstance(prob);

        BnbSolver minimize(sp);
        const SolveResult m = minimize.minimizeMakespan();
        ASSERT_EQ(m.status, SolveStatus::Optimal) << "n=" << g.microbatches;
        EXPECT_EQ(m.makespan, g.makespan) << "n=" << g.microbatches;
        EXPECT_EQ(m.stats.nodes, g.nodes) << "n=" << g.microbatches;
        EXPECT_EQ(m.stats.memoHits, g.memoHits) << "n=" << g.microbatches;
        EXPECT_EQ(m.stats.boundPrunes, g.boundPrunes)
            << "n=" << g.microbatches;
        // The ready list is maintained incrementally: its insertion
        // count is bounded by dependency-edge work per node, not
        // nodes x blocks.
        EXPECT_GT(m.stats.readyPushes, 0u);
        EXPECT_LT(m.stats.readyPushes,
                  m.stats.nodes * sp.blocks.size() + sp.blocks.size());

        BnbSolver decide(sp);
        const SolveResult d = decide.decide(kUnlimitedMem);
        ASSERT_TRUE(d.feasible()) << "n=" << g.microbatches;
        EXPECT_EQ(d.makespan, g.decideMakespan) << "n=" << g.microbatches;
        EXPECT_EQ(d.stats.nodes, g.decideNodes) << "n=" << g.microbatches;
        EXPECT_EQ(d.stats.memoHits, g.decideMemoHits)
            << "n=" << g.microbatches;
    }
}

TEST(IncrementalSolver, MShapeSingleSolveGolden)
{
    expectSolveGolden(makeMShape(4), {{2, 27, 161, 46, 23, 27, 23, 0},
                                      {3, 42, 1431, 390, 270, 54, 34, 0}});
}

TEST(IncrementalSolver, NnShapeSingleSolveGolden)
{
    expectSolveGolden(makeNnShape(4), {{2, 50, 305, 65, 61, 51, 53, 6},
                                       {3, 73, 1545, 473, 210, 78, 87, 9}});
}

TEST(IncrementalSolver, ReusedSolverAgreesWithFreshSolvers)
{
    // Manual decide() sequences with non-monotone deadlines on one
    // solver: every call starts from an empty memo, so each verdict and
    // node count must match a fresh solver's, and a deadline is
    // reachable exactly when it is at least the optimum.
    Problem prob(makeVShape(4), 3);
    const SolverProblem sp = buildFullInstance(prob);
    BnbSolver reused(sp);
    BnbSolver probe(sp);
    const SolveResult best = probe.minimizeMakespan();
    ASSERT_EQ(best.status, SolveStatus::Optimal);
    const Time opt = best.makespan;
    for (const Time d :
         {opt - 1, opt, opt + 5, opt - 2, opt + 1, opt - 1, opt}) {
        BnbSolver fresh(sp);
        const SolveResult a = reused.decide(d);
        const SolveResult b = fresh.decide(d);
        EXPECT_EQ(a.status, b.status) << "deadline " << d;
        EXPECT_EQ(a.stats.nodes, b.stats.nodes) << "deadline " << d;
        EXPECT_EQ(a.feasible(), d >= opt) << "deadline " << d;
    }
    const SolveResult again = reused.minimizeMakespan();
    EXPECT_EQ(again.makespan, opt);
    EXPECT_EQ(again.stats.nodes, best.stats.nodes);
}

} // namespace
} // namespace tessel
