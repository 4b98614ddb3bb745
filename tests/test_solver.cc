/**
 * @file
 * Unit tests for the exact branch-and-bound scheduler: optimality on
 * known instances, memory and release-time handling, decision mode, and
 * the binary-search parity path.
 */

#include <gtest/gtest.h>

#include "ir/problem.h"
#include "placement/shapes.h"
#include "solver/bnb.h"
#include "solver/from_ir.h"

namespace tessel {
namespace {

SolverBlock
mkBlock(Time span, uint64_t device_bits, Mem memory = 0,
        std::vector<int> deps = {})
{
    SolverBlock b;
    b.span = span;
    b.devices = ResourceSet::fromWord(device_bits);
    b.memory = memory;
    b.deps = std::move(deps);
    return b;
}

TEST(BnbSolver, SingleBlock)
{
    SolverProblem sp;
    sp.numDevices = 1;
    sp.blocks = {mkBlock(5, 1)};
    BnbSolver solver(sp);
    const SolveResult r = solver.minimizeMakespan();
    EXPECT_EQ(r.status, SolveStatus::Optimal);
    EXPECT_EQ(r.makespan, 5);
    EXPECT_EQ(r.starts[0], 0);
}

TEST(BnbSolver, ChainHonorsDependencies)
{
    SolverProblem sp;
    sp.numDevices = 2;
    sp.blocks = {mkBlock(2, 1), mkBlock(3, 2, 0, {0}),
                 mkBlock(1, 1, 0, {1})};
    BnbSolver solver(sp);
    const SolveResult r = solver.minimizeMakespan();
    EXPECT_EQ(r.status, SolveStatus::Optimal);
    EXPECT_EQ(r.makespan, 6);
    EXPECT_EQ(r.starts[1], 2);
    EXPECT_EQ(r.starts[2], 5);
}

TEST(BnbSolver, ParallelBlocksOnDistinctDevices)
{
    SolverProblem sp;
    sp.numDevices = 3;
    sp.blocks = {mkBlock(4, 1), mkBlock(4, 2), mkBlock(4, 4)};
    BnbSolver solver(sp);
    const SolveResult r = solver.minimizeMakespan();
    EXPECT_EQ(r.makespan, 4);
}

TEST(BnbSolver, ExclusiveExecutionSerializes)
{
    SolverProblem sp;
    sp.numDevices = 1;
    sp.blocks = {mkBlock(3, 1), mkBlock(4, 1)};
    BnbSolver solver(sp);
    EXPECT_EQ(solver.minimizeMakespan().makespan, 7);
}

TEST(BnbSolver, MultiDeviceBlockBlocksBoth)
{
    SolverProblem sp;
    sp.numDevices = 2;
    sp.blocks = {mkBlock(2, 3), mkBlock(2, 1), mkBlock(2, 2)};
    BnbSolver solver(sp);
    // TP block + the two singles can overlap pairwise only after it.
    EXPECT_EQ(solver.minimizeMakespan().makespan, 4);
}

TEST(BnbSolver, MemoryForcesInterleaving)
{
    // Two alloc(+1)/release(-1) pairs under capacity 1: must alternate.
    SolverProblem sp;
    sp.numDevices = 1;
    sp.memLimit = 1;
    sp.blocks = {mkBlock(1, 1, 1), mkBlock(1, 1, -1, {0}),
                 mkBlock(1, 1, 1), mkBlock(1, 1, -1, {2})};
    BnbSolver solver(sp);
    const SolveResult r = solver.minimizeMakespan();
    ASSERT_EQ(r.status, SolveStatus::Optimal);
    EXPECT_EQ(r.makespan, 4);
    // The release of pair 0 must precede the allocation of pair 1 or
    // vice versa; both allocations can never be in flight together.
    const bool pair0_first = r.starts[0] < r.starts[2];
    const Time first_release = pair0_first ? r.starts[1] : r.starts[3];
    const Time second_alloc = pair0_first ? r.starts[2] : r.starts[0];
    EXPECT_LE(first_release + 1, second_alloc);
}

TEST(BnbSolver, InfeasibleMemoryDetected)
{
    SolverProblem sp;
    sp.numDevices = 1;
    sp.memLimit = 1;
    sp.blocks = {mkBlock(1, 1, 2)};
    BnbSolver solver(sp);
    EXPECT_EQ(solver.minimizeMakespan().status, SolveStatus::Infeasible);
}

TEST(BnbSolver, InitialMemoryReducesHeadroom)
{
    SolverProblem sp;
    sp.numDevices = 1;
    sp.memLimit = 3;
    sp.initialMem = {2};
    sp.blocks = {mkBlock(1, 1, 2)};
    BnbSolver solver(sp);
    EXPECT_EQ(solver.minimizeMakespan().status, SolveStatus::Infeasible);
    sp.initialMem = {1};
    BnbSolver solver2(sp);
    EXPECT_EQ(solver2.minimizeMakespan().status, SolveStatus::Optimal);
}

TEST(BnbSolver, ReleaseTimesDelayStart)
{
    SolverProblem sp;
    sp.numDevices = 1;
    sp.blocks = {mkBlock(2, 1)};
    sp.blocks[0].release = 7;
    BnbSolver solver(sp);
    const SolveResult r = solver.minimizeMakespan();
    EXPECT_EQ(r.starts[0], 7);
    EXPECT_EQ(r.makespan, 9);
}

TEST(BnbSolver, InitialAvailDelaysDevices)
{
    SolverProblem sp;
    sp.numDevices = 2;
    sp.initialAvail = {5, 0};
    sp.blocks = {mkBlock(1, 1), mkBlock(1, 2)};
    BnbSolver solver(sp);
    const SolveResult r = solver.minimizeMakespan();
    EXPECT_EQ(r.starts[0], 5);
    EXPECT_EQ(r.starts[1], 0);
    EXPECT_EQ(r.makespan, 6);
}

TEST(BnbSolver, DecideSatAndUnsat)
{
    SolverProblem sp;
    sp.numDevices = 1;
    sp.blocks = {mkBlock(3, 1), mkBlock(4, 1)};
    BnbSolver solver(sp);
    EXPECT_TRUE(solver.decide(7).feasible());
    EXPECT_TRUE(solver.decide(100).feasible());
    const SolveResult tight = solver.decide(6);
    EXPECT_EQ(tight.status, SolveStatus::Infeasible);
}

TEST(BnbSolver, VShapeKnownOptimalMakespans)
{
    // V-shape (tf=1, tb=2, D=4): pipeline fill 12, then 3 per extra
    // micro-batch: optimal makespan = 12 + 3 (N - 1).
    for (int n = 1; n <= 4; ++n) {
        Problem prob(makeVShape(4), n);
        const ToBaselineResult to = solveTimeOptimal(prob);
        ASSERT_TRUE(to.result.feasible()) << "n=" << n;
        EXPECT_EQ(to.result.makespan, 12 + 3 * (n - 1)) << "n=" << n;
        EXPECT_TRUE(to.schedule.validate().ok);
    }
}

TEST(BnbSolver, SymmetryAndDominanceAreLossless)
{
    Problem prob(makeVShape(3), 3);
    const SolverProblem sp = buildFullInstance(prob);
    SolveResult results[4];
    int idx = 0;
    for (bool sym : {true, false}) {
        for (bool dom : {true, false}) {
            SolverOptions opts;
            opts.useSymmetry = sym;
            opts.useDominance = dom;
            BnbSolver solver(sp, opts);
            results[idx++] = solver.minimizeMakespan();
        }
    }
    for (int i = 1; i < 4; ++i)
        EXPECT_EQ(results[i].makespan, results[0].makespan);
    // The pruning features should reduce explored nodes.
    EXPECT_LE(results[0].stats.nodes, results[3].stats.nodes);
}

TEST(BnbSolver, NodeBudgetReportsFeasibleNotOptimal)
{
    // Proving optimality here takes about 81k nodes; every limit below
    // is far too small, and each must bind exactly, not at the next
    // multiple of the clock-poll interval.
    Problem prob(makeVShape(4), 6);
    const SolverProblem sp = buildFullInstance(prob);
    for (const uint64_t limit : {1u, 50u, 1500u}) {
        SolverOptions opts;
        opts.nodeLimit = limit;
        BnbSolver solver(sp, opts);
        const SolveResult r = solver.minimizeMakespan();
        // Either it found something (Feasible) or nothing (Unknown), but
        // it must not claim optimality or infeasibility.
        EXPECT_TRUE(r.status == SolveStatus::Feasible ||
                    r.status == SolveStatus::Unknown)
            << "limit " << limit;
        EXPECT_TRUE(r.stats.budgetExhausted) << "limit " << limit;
        EXPECT_EQ(r.stats.nodes, limit);
    }
}

TEST(BnbSolver, TagRoundTripThroughLift)
{
    Problem prob(makeVShape(2), 2);
    const ToBaselineResult to = solveTimeOptimal(prob);
    ASSERT_TRUE(to.result.feasible());
    const auto check = to.schedule.validate();
    EXPECT_TRUE(check.ok) << check.message;
    EXPECT_EQ(to.schedule.makespan(), to.result.makespan);
}

TEST(BnbSolver, MemoryDeadlockIsInfeasible)
{
    // Block B depends on A; A allocates 2 under cap 3, B allocates 2 as
    // well and only C (dep of nothing) releases, but C needs memory too.
    SolverProblem sp;
    sp.numDevices = 1;
    sp.memLimit = 3;
    sp.blocks = {mkBlock(1, 1, 2), mkBlock(1, 1, 2, {0})};
    BnbSolver solver(sp);
    EXPECT_EQ(solver.minimizeMakespan().status, SolveStatus::Infeasible);
}

TEST(BnbSolver, NegativeMemoryAlwaysDispatchable)
{
    SolverProblem sp;
    sp.numDevices = 1;
    sp.memLimit = 2;
    sp.blocks = {mkBlock(1, 1, 2), mkBlock(1, 1, -2, {0}),
                 mkBlock(1, 1, 2, {1})};
    BnbSolver solver(sp);
    const SolveResult r = solver.minimizeMakespan();
    EXPECT_EQ(r.status, SolveStatus::Optimal);
    EXPECT_EQ(r.makespan, 3);
}

TEST(FromIr, FullInstanceStructure)
{
    Problem prob(makeVShape(2), 3);
    const SolverProblem sp = buildFullInstance(prob);
    EXPECT_EQ(sp.blocks.size(), 12u); // 4 specs x 3 micro-batches.
    // Symmetry chains: (spec, mb) ordered after (spec, mb-1).
    for (int spec = 0; spec < 4; ++spec) {
        for (int mb = 1; mb < 3; ++mb) {
            const int id = prob.instanceId({spec, mb});
            EXPECT_EQ(sp.blocks[id].orderAfter,
                      prob.instanceId({spec, mb - 1}));
        }
    }
    // Dependencies stay within a micro-batch.
    for (size_t i = 0; i < sp.blocks.size(); ++i)
        for (int dep : sp.blocks[i].deps)
            EXPECT_EQ(prob.refOf(dep).mb,
                      prob.refOf(static_cast<int>(i)).mb);
}

} // namespace
} // namespace tessel
