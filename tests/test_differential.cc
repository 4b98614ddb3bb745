/**
 * @file
 * Differential-testing oracle suite: the branch-and-bound solver (all
 * pruning enabled) must agree with a prune-free brute-force permutation
 * solver on hundreds of seeded random tiny instances, with and without
 * comm blocks on link pseudo-devices — both its minimization and its
 * finite-deadline decide() verdicts — and every schedule either solver
 * emits must pass the standalone verifySolverSchedule() checker. Plans
 * produced by the end-to-end search (warmup + repetend window + cooldown)
 * are verified through the same checker.
 */

#include <gtest/gtest.h>

#include <sstream>

#include "core/search.h"
#include "placement/shapes.h"
#include "solver/bnb.h"
#include "solver/from_ir.h"
#include "solver/oracle.h"
#include "support/rng.h"

namespace tessel {
namespace {

/** Run one brute-vs-BnB comparison; returns a failure message or "". */
std::string
compareOne(const SolverProblem &sp, uint64_t seed, int which)
{
    const SolveResult brute = bruteForceMinMakespan(sp);
    BnbSolver solver(sp);
    const SolveResult bnb = solver.minimizeMakespan();

    std::ostringstream os;
    os << "seed=" << seed << " instance=" << which
       << " blocks=" << sp.blocks.size() << " devices=" << sp.numDevices;
    const std::string ctx = os.str();

    if (brute.status == SolveStatus::Infeasible ||
        bnb.status == SolveStatus::Infeasible) {
        if (brute.status != bnb.status)
            return ctx + ": feasibility disagreement";
        return "";
    }
    if (brute.status != SolveStatus::Optimal)
        return ctx + ": brute force not optimal?";
    if (bnb.status != SolveStatus::Optimal)
        return ctx + ": BnB failed to prove optimality without a budget";
    if (brute.makespan != bnb.makespan) {
        std::ostringstream bad;
        bad << ctx << ": brute=" << brute.makespan
            << " bnb=" << bnb.makespan;
        return bad.str();
    }
    const OracleVerdict v_bnb = verifySolverSchedule(sp, bnb.starts);
    if (!v_bnb.ok)
        return ctx + ": BnB schedule rejected: " + v_bnb.message;
    const OracleVerdict v_brute = verifySolverSchedule(sp, brute.starts);
    if (!v_brute.ok)
        return ctx + ": brute schedule rejected: " + v_brute.message;

    // Finite-deadline decide() on the same solver: the optimum is
    // reachable and one unit less is proven unreachable.
    const SolveResult at = solver.decide(brute.makespan);
    if (!at.feasible() || at.makespan > brute.makespan)
        return ctx + ": decide(optimum) found no schedule";
    const OracleVerdict v_at = verifySolverSchedule(sp, at.starts);
    if (!v_at.ok)
        return ctx + ": decide schedule rejected: " + v_at.message;
    if (solver.decide(brute.makespan - 1).status != SolveStatus::Infeasible)
        return ctx + ": decide(optimum - 1) not proven infeasible";
    return "";
}

TEST(Differential, BnbMatchesBruteForceWithoutComm)
{
    Rng rng(0xd1ffe7);
    RandomInstanceParams params;
    int feasible = 0;
    for (int i = 0; i < 150; ++i) {
        const SolverProblem sp = randomInstance(rng, params);
        const std::string err = compareOne(sp, 0xd1ffe7, i);
        EXPECT_EQ(err, "");
        BnbSolver probe(sp);
        if (probe.minimizeMakespan().feasible())
            ++feasible;
    }
    // The generator must not degenerate into all-infeasible instances.
    EXPECT_GT(feasible, 100);
}

TEST(Differential, BnbMatchesBruteForceWithComm)
{
    Rng rng(0xc0111);
    RandomInstanceParams params;
    params.withComm = true;
    params.minDevices = 2;
    int with_comm = 0;
    for (int i = 0; i < 100; ++i) {
        const SolverProblem sp = randomInstance(rng, params);
        if (sp.numDevices > params.maxDevices)
            ++with_comm; // Link pseudo-devices were appended.
        const std::string err = compareOne(sp, 0xc0111, i);
        EXPECT_EQ(err, "");
    }
    EXPECT_GT(with_comm, 20);
}

TEST(Differential, BnbMatchesBruteForceOnWideResourceSets)
{
    // Device counts straddling the one-word/multi-word ResourceSet
    // boundary, plus comm links appended past the real device count:
    // these instances were unrepresentable under the old 64-bit mask.
    Rng rng(0x51de);
    RandomInstanceParams params;
    params.withComm = true;
    params.minDevices = 62;
    params.maxDevices = 68;
    int wide = 0, multiword = 0;
    for (int i = 0; i < 60; ++i) {
        const SolverProblem sp = randomInstance(rng, params);
        if (sp.numDevices > 64)
            ++wide;
        for (const SolverBlock &b : sp.blocks)
            if (b.devices.anyAtOrAbove(64)) {
                ++multiword;
                break;
            }
        const std::string err = compareOne(sp, 0x51de, i);
        EXPECT_EQ(err, "");
    }
    // The sweep must actually exercise >64-resource instances and
    // blocks whose masks need a second word.
    EXPECT_GT(wide, 20);
    EXPECT_GT(multiword, 10);
}

TEST(Differential, VerifierRejectsCorruptedSchedules)
{
    // A hand-built two-device instance with a dependency and a memory
    // pair; corrupt each constraint in turn and expect rejection.
    SolverProblem sp;
    sp.numDevices = 2;
    sp.memLimit = 2;
    SolverBlock a;
    a.span = 2;
    a.devices = oneDevice(0);
    a.memory = 2;
    SolverBlock b;
    b.span = 3;
    b.devices = oneDevice(1);
    b.deps = {0};
    b.release = 1;
    SolverBlock c;
    c.span = 1;
    c.devices = oneDevice(0);
    c.memory = -2;
    c.deps = {0};
    sp.blocks = {a, b, c};

    const std::vector<Time> good = {0, 2, 5};
    EXPECT_TRUE(verifySolverSchedule(sp, good).ok);

    EXPECT_FALSE(verifySolverSchedule(sp, {0, 1, 5}).ok);  // Dependency.
    EXPECT_FALSE(verifySolverSchedule(sp, {0, 2, 1}).ok);  // Exclusivity.
    EXPECT_FALSE(verifySolverSchedule(sp, {-1, 2, 5}).ok); // Negative.
    EXPECT_FALSE(verifySolverSchedule(sp, {0, 2}).ok);     // Size.

    // Release: block b may not start before t=1 even without the dep.
    SolverProblem no_dep = sp;
    no_dep.blocks[1].deps.clear();
    EXPECT_FALSE(verifySolverSchedule(no_dep, {0, 0, 5}).ok);

    // Memory: two allocations without the release in between.
    SolverProblem tight = sp;
    tight.blocks[2].memory = 2;
    EXPECT_FALSE(verifySolverSchedule(tight, good).ok);

    // Initial availability.
    SolverProblem busy = sp;
    busy.initialAvail = {1, 0};
    EXPECT_FALSE(verifySolverSchedule(busy, good).ok);
}

TEST(Differential, VerifierChecksLinkExclusivity)
{
    // Two comm blocks on the same link pseudo-device must serialize.
    SolverProblem sp;
    sp.numDevices = 3; // Devices 0, 1 and link pseudo-device 2.
    SolverBlock p0;
    p0.span = 1;
    p0.devices = oneDevice(0);
    SolverBlock p1;
    p1.span = 1;
    p1.devices = oneDevice(1);
    SolverBlock c0;
    c0.span = 3;
    c0.devices = oneDevice(2);
    c0.deps = {0};
    SolverBlock c1;
    c1.span = 3;
    c1.devices = oneDevice(2);
    c1.deps = {1};
    sp.blocks = {p0, p1, c0, c1};

    EXPECT_TRUE(verifySolverSchedule(sp, {0, 0, 1, 4}).ok);
    const OracleVerdict overlap = verifySolverSchedule(sp, {0, 0, 1, 2});
    EXPECT_FALSE(overlap.ok);
    EXPECT_NE(overlap.message.find("exclusivity"), std::string::npos);
}

/** Search plans (warmup + window + cooldown) must pass the verifier. */
class PlanVerification : public ::testing::TestWithParam<const char *>
{
};

TEST_P(PlanVerification, SearchWarmupCooldownSchedulesVerify)
{
    const std::string name = GetParam();
    TesselOptions opts;
    opts.totalBudgetSec = 60.0;
    const auto r = tesselSearch(makeShapeByName(name, 4), opts);
    ASSERT_TRUE(r.found) << name;
    for (int extra : {0, 3}) {
        const int n = r.plan.minMicrobatches() + extra;
        const Schedule sched = r.plan.instantiate(n);
        const Problem prob = r.plan.problemFor(n);
        const SolverProblem sp = buildFullInstance(prob);
        const OracleVerdict v =
            verifySolverSchedule(sp, startsFromSchedule(prob, sched));
        EXPECT_TRUE(v.ok) << name << " n=" << n << ": " << v.message;
    }
}

TEST_P(PlanVerification, CommAwarePlansVerify)
{
    const std::string name = GetParam();
    const HeteroShape hs = makeHeteroShapeByName(name, 2);
    TesselOptions opts;
    opts.totalBudgetSec = 60.0;
    opts.cluster = &hs.cluster;
    opts.edgeMB = hs.edgeMB;
    const auto r = tesselSearch(hs.placement, opts);
    ASSERT_TRUE(r.found) << name;
    ASSERT_TRUE(r.commAware);
    const int n = r.plan.minMicrobatches() + 2;
    const Schedule sched = r.plan.instantiate(n);
    const Problem prob = r.plan.problemFor(n);
    const SolverProblem sp = buildFullInstance(prob);
    const OracleVerdict v =
        verifySolverSchedule(sp, startsFromSchedule(prob, sched));
    EXPECT_TRUE(v.ok) << name << ": " << v.message;
}

INSTANTIATE_TEST_SUITE_P(Shapes, PlanVerification,
                         ::testing::Values("V", "X", "M", "NN", "K"));

} // namespace
} // namespace tessel
