/**
 * @file
 * Counter-regression tests for the persistent dominance memo: it must
 * leave binarySearchMakespan's answer unchanged while reusing proofs
 * from earlier decide() rounds, and decide() sequences must stay sound.
 * The instances are fixed (GPT M-shape, mT5 NN-shape) and every solver
 * involved is deterministic, so the assertions pin exact node and reuse
 * counts, not just statistical tendencies. (The warm-started period
 * kernel is pinned by test_mcr's golden and warm-vs-cold tests.)
 */

#include <gtest/gtest.h>

#include <vector>

#include "placement/shapes.h"
#include "solver/bnb.h"
#include "solver/from_ir.h"

namespace tessel {
namespace {

/** Expected binarySearchMakespan outcome on one fixed instance. */
struct MemoGolden
{
    int microbatches;
    Time makespan;
    uint64_t nodes;
    uint64_t memoReused;
};

/**
 * Run binarySearchMakespan on @p shape (4 devices, memory cap 4) for
 * each golden row, pinning the exact node and memo-reuse counts. The
 * golden counts were captured while a clear-every-round baseline still
 * ran alongside and expanded strictly more nodes in aggregate.
 */
void
expectMemoGolden(const Placement &shape,
                 const std::vector<MemoGolden> &golden)
{
    // The memory cap matters: it derails the est/tail greedy first
    // dive, so the binary search runs real SAT rounds with shrinking
    // deadlines (the regime cross-round proofs accelerate). Unlimited
    // memory makes the first dive optimal and every later round UNSAT
    // at a *rising* deadline, which proofs can never cover.
    uint64_t reused = 0;
    for (const MemoGolden &g : golden) {
        Problem prob(shape, g.microbatches, 4);
        const SolverProblem sp = buildFullInstance(prob);
        BnbSolver solver(sp);
        const SolveResult r = solver.binarySearchMakespan();
        ASSERT_TRUE(r.feasible());
        EXPECT_EQ(r.makespan, g.makespan);
        // Cross-check against direct minimization on a fresh solver.
        BnbSolver direct(sp);
        EXPECT_EQ(direct.minimizeMakespan().makespan, r.makespan);
        EXPECT_EQ(r.stats.nodes, g.nodes) << "n=" << g.microbatches;
        EXPECT_EQ(r.stats.memoReused, g.memoReused)
            << "n=" << g.microbatches;
        // The ready list is maintained incrementally: its insertion
        // count is bounded by dependency-edge work per node, not
        // nodes x blocks.
        EXPECT_GT(r.stats.readyPushes, 0u);
        EXPECT_LT(r.stats.readyPushes,
                  r.stats.nodes * sp.blocks.size() + sp.blocks.size());
        reused += r.stats.memoReused;
    }
    EXPECT_GT(reused, 0u);
}

TEST(IncrementalSolver, PersistentMemoMShapeGolden)
{
    expectMemoGolden(makeMShape(4), {{2, 27, 342, 0}, {3, 42, 1954, 48}});
}

TEST(IncrementalSolver, PersistentMemoNnShapeGolden)
{
    expectMemoGolden(makeNnShape(4), {{2, 50, 815, 47}, {3, 73, 3216, 94}});
}

TEST(IncrementalSolver, PersistentMemoDecideSequencesStaySound)
{
    // Manual decide() sequences with non-monotone deadlines: proof
    // levels must only prune rounds they cover, so every answer has to
    // match a fresh solver's (whose first decide() starts from an empty
    // memo, i.e. the cold answer).
    Problem prob(makeVShape(4), 3);
    const SolverProblem sp = buildFullInstance(prob);
    BnbSolver persistent(sp);
    BnbSolver probe(sp);
    const Time opt = probe.minimizeMakespan().makespan;
    for (const Time d :
         {opt - 1, opt, opt + 5, opt - 2, opt + 1, opt - 1, opt}) {
        BnbSolver fresh(sp);
        EXPECT_EQ(persistent.decide(d).feasible(), fresh.decide(d).feasible())
            << "deadline " << d;
    }
}

} // namespace
} // namespace tessel
