/**
 * @file
 * Tests for TesselSearch (Algorithm 1): zero-bubble periods and NR
 * thresholds matching the paper's searched schedules (Fig. 8 / Fig. 11),
 * memory ablation behavior (Fig. 12), lazy-search equivalence, and
 * phase completion's wait for a warmup release that may bind.
 */

#include <gtest/gtest.h>

#include "core/repetend.h"
#include "core/search.h"
#include "placement/shapes.h"
#include "service/service.h"

namespace tessel {
namespace {

TesselOptions
quickOpts()
{
    TesselOptions o;
    o.totalBudgetSec = 120.0;
    return o;
}

TEST(TesselSearch, VShapeFindsOneFOneB)
{
    const auto r = tesselSearch(makeVShape(4), quickOpts());
    ASSERT_TRUE(r.found);
    EXPECT_EQ(r.period, 3);
    EXPECT_EQ(r.period, r.lowerBound);
    EXPECT_EQ(r.nrUsed, 4); // Fig. 11: V-shape needs >= 4 micro-batches.
    EXPECT_DOUBLE_EQ(r.plan.steadyBubbleRate(), 0.0);
    EXPECT_TRUE(r.breakdown.earlyExit);
}

TEST(TesselSearch, MShapeNeedsSixMicrobatches)
{
    const auto r = tesselSearch(makeMShape(4), quickOpts());
    ASSERT_TRUE(r.found);
    EXPECT_EQ(r.period, r.lowerBound);
    EXPECT_EQ(r.nrUsed, 6); // Fig. 8(b) / Fig. 11.
    EXPECT_DOUBLE_EQ(r.plan.steadyBubbleRate(), 0.0);
}

TEST(TesselSearch, KShapeTrainingNeedsThree)
{
    const auto r = tesselSearch(makeKShape(4), quickOpts());
    ASSERT_TRUE(r.found);
    EXPECT_EQ(r.period, r.lowerBound);
    EXPECT_EQ(r.nrUsed, 3); // Fig. 8(h).
}

TEST(TesselSearch, XShapeZeroBubble)
{
    const auto r = tesselSearch(makeXShape(4), quickOpts());
    ASSERT_TRUE(r.found);
    EXPECT_EQ(r.period, r.lowerBound);
    EXPECT_DOUBLE_EQ(r.plan.steadyBubbleRate(), 0.0);
}

TEST(TesselSearch, InferenceShapes)
{
    // Inference NR values from Fig. 8(c,f,i): M=4, K=2, V=1.
    const auto rv = tesselSearch(forwardOnly(makeVShape(4)), quickOpts());
    ASSERT_TRUE(rv.found);
    EXPECT_EQ(rv.nrUsed, 1);
    EXPECT_EQ(rv.period, rv.lowerBound);

    const auto rm = tesselSearch(forwardOnly(makeMShape(4)), quickOpts());
    ASSERT_TRUE(rm.found);
    EXPECT_EQ(rm.nrUsed, 4);
    EXPECT_EQ(rm.period, rm.lowerBound);

    const auto rk = tesselSearch(forwardOnly(makeKShape(4)), quickOpts());
    ASSERT_TRUE(rk.found);
    EXPECT_EQ(rk.nrUsed, 2);
    EXPECT_EQ(rk.period, rk.lowerBound);
}

TEST(TesselSearch, LazyAndEagerAgreeOnPeriod)
{
    for (const char *name : {"V", "M", "K"}) {
        TesselOptions lazy = quickOpts();
        TesselOptions eager = quickOpts();
        eager.lazy = false;
        const auto a = tesselSearch(makeShapeByName(name, 4), lazy);
        const auto b = tesselSearch(makeShapeByName(name, 4), eager);
        ASSERT_TRUE(a.found);
        ASSERT_TRUE(b.found);
        EXPECT_EQ(a.period, b.period) << name;
        EXPECT_EQ(a.nrUsed, b.nrUsed) << name;
    }
}

class MemorySweep : public ::testing::TestWithParam<int>
{
};

TEST_P(MemorySweep, BubbleNonIncreasingInMemory)
{
    // Fig. 12's trend: more memory never hurts the searched period.
    const Mem m = GetParam();
    TesselOptions opts = quickOpts();
    opts.memLimit = m;
    const auto r = tesselSearch(makeVShape(4), opts);
    ASSERT_TRUE(r.found) << "M=" << m;

    TesselOptions more = quickOpts();
    more.memLimit = m + 1;
    const auto r2 = tesselSearch(makeVShape(4), more);
    ASSERT_TRUE(r2.found);
    EXPECT_LE(r2.period, r.period);
}

INSTANTIATE_TEST_SUITE_P(Capacities, MemorySweep,
                         ::testing::Values(1, 2, 3, 4, 6));

TEST(TesselSearch, VShapeZeroBubbleAtMemoryFour)
{
    // Fig. 12: V-shape reaches zero bubble once M >= D = 4.
    TesselOptions opts = quickOpts();
    opts.memLimit = 4;
    const auto r = tesselSearch(makeVShape(4), opts);
    ASSERT_TRUE(r.found);
    EXPECT_EQ(r.period, 3);

    opts.memLimit = 2;
    const auto tight = tesselSearch(makeVShape(4), opts);
    ASSERT_TRUE(tight.found);
    EXPECT_GT(tight.period, 3);
}

TEST(TesselSearch, NrSweepMatchesFig11Start)
{
    // Restricting the repetend to 1 micro-batch leaves the sequential
    // period (high bubble), like the leftmost points of Fig. 11.
    TesselOptions opts = quickOpts();
    opts.maxRepetendMicrobatches = 1;
    const auto r = tesselSearch(makeVShape(4), opts);
    ASSERT_TRUE(r.found);
    EXPECT_EQ(r.period, 12);
    EXPECT_NEAR(r.plan.steadyBubbleRate(), 0.75, 1e-9);
}

TEST(TesselSearch, ReportsBreakdown)
{
    const auto r = tesselSearch(makeMShape(4), quickOpts());
    ASSERT_TRUE(r.found);
    EXPECT_GT(r.breakdown.candidatesEnumerated, 0u);
    EXPECT_GT(r.breakdown.candidatesSolved, 0u);
    EXPECT_GE(r.breakdown.repetendSeconds, 0.0);
}

TEST(TesselSearch, TwoDeviceShapes)
{
    for (const char *name : {"V", "X", "K"}) {
        const auto r = tesselSearch(makeShapeByName(name, 2), quickOpts());
        ASSERT_TRUE(r.found) << name;
        EXPECT_EQ(r.period, r.lowerBound) << name;
    }
}

TEST(TesselSearch, CustomSpansStillOptimal)
{
    // Unbalanced stage costs: the work bound moves; the search should
    // still reach it with enough micro-batches.
    ShapeCosts costs;
    costs.fwdSpan = 2;
    costs.bwdSpan = 4;
    const auto r = tesselSearch(makeVShape(4, costs), quickOpts());
    ASSERT_TRUE(r.found);
    EXPECT_EQ(r.period, 6);
}

/** FNV-1a over a plan's warmup and cooldown starts. */
uint64_t
phaseStartsDigest(const TesselPlan &plan)
{
    uint64_t h = 1469598103934665603ull;
    for (const std::vector<Time> *starts :
         {&plan.warmupStarts(), &plan.cooldownStarts()})
        for (Time t : *starts)
            h = (h ^ static_cast<uint64_t>(t)) * 1099511628211ull;
    return h;
}

TEST(PhaseCompletion, CooldownWaitsWhenAWarmupReleaseMayBind)
{
    // In these two hetero candidates a cooldown block depends on a
    // warmup block that the window alone cannot show finishes in time,
    // and the release binds: a cooldown that dropped it instead of
    // waiting for the warmup moves both plans. The digests were
    // recorded with the sequential completion, which solved the
    // cooldown after the warmup in absolute time; a 5k node cap keeps
    // the solves short.
    struct Case
    {
        const char *shape;
        int nr;
        int index;
        uint64_t digest;
    };
    const Case cases[] = {{"V", 5, 55, 0x4d1c621b632bf627ull},
                          {"M", 4, 56, 0x2d4e0cba08be7fa4ull}};
    for (const Case &c : cases) {
        const PlanQuery q = *referenceShapeQuery(c.shape, "hetero", 4, 0.0);
        TesselOptions eff = q.effectiveOptions();
        eff.phaseNodeLimit = 5000;
        const CommExpansion exp = expandWithComm(q.placement, *eff.cluster,
                                                 eff.edgeMB, eff.comm);
        eff.initialMem.resize(exp.placement.numDevices(), 0);
        int index = 0;
        std::optional<RepetendAssignment> assign;
        enumerateRepetends(q.placement, c.nr,
                           [&](const RepetendAssignment &a) {
                               if (index++ == c.index)
                                   assign = exp.extendAssignment(a);
                               return !assign;
                           });
        ASSERT_TRUE(assign) << c.shape;
        RepetendSolveOptions rso;
        rso.memLimit = eff.memLimit;
        rso.initialMem = eff.initialMem;
        const RepetendSchedule sched =
            solveRepetend(exp.placement, *assign, rso);
        ASSERT_TRUE(sched.feasible) << c.shape;
        SearchBreakdown b;
        const std::optional<TesselPlan> plan = completeRepetendPlan(
            exp.placement, *assign, sched, eff, b, CancelToken{});
        ASSERT_TRUE(plan) << c.shape;
        EXPECT_EQ(phaseStartsDigest(*plan), c.digest) << c.shape;
    }
}

} // namespace
} // namespace tessel
