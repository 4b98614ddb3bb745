/**
 * @file
 * Property-based tests for the solver over randomized instances: every
 * produced schedule must satisfy all constraints; the optimum must never
 * exceed a greedy list schedule; pruning features must not change the
 * optimum; decide() must be consistent with the optimum; shifting every
 * availability and release shifts the schedule and leaves the search
 * tree as it was, and a release that cannot bind can be dropped.
 */

#include <gtest/gtest.h>

#include <algorithm>

#include "solver/bnb.h"
#include "support/rng.h"

namespace tessel {
namespace {

/** Random DAG scheduling instance generator. */
SolverProblem
randomProblem(uint64_t seed, int num_blocks, int num_devices,
              bool with_memory)
{
    Rng rng(seed);
    SolverProblem sp;
    sp.numDevices = num_devices;
    sp.memLimit = with_memory ? 3 : kUnlimitedMem;
    for (int i = 0; i < num_blocks; ++i) {
        SolverBlock b;
        b.span = rng.range(1, 4);
        b.devices = oneDevice(static_cast<DeviceId>(
            rng.range(0, num_devices - 1)));
        if (rng.chance(0.15))
            b.devices = allDevices(num_devices);
        if (with_memory) {
            // Alternate allocations and releases to keep instances
            // feasible: even blocks allocate, odd blocks release what
            // their dependency allocated.
            if (i % 2 == 0) {
                b.memory = rng.range(0, 2);
            } else {
                b.memory = -sp.blocks[i - 1].memory;
                b.deps.push_back(i - 1);
            }
        }
        // Sparse random dependencies on earlier blocks.
        for (int j = 0; j < i; ++j)
            if (rng.chance(2.0 / (i + 1)))
                b.deps.push_back(j);
        sp.blocks.push_back(std::move(b));
    }
    return sp;
}

/**
 * randomProblem plus what phase stitching adds: releases, per-device
 * initial availability and Property 4.1 orderAfter links (each to an
 * earlier block, so index order still dispatches every block).
 */
SolverProblem
randomStitchedProblem(uint64_t seed, int num_blocks, int num_devices,
                      bool with_memory)
{
    SolverProblem sp =
        randomProblem(seed, num_blocks, num_devices, with_memory);
    Rng rng(seed * 6364136223846793005ull + 1442695040888963407ull);
    sp.initialAvail.resize(num_devices);
    for (Time &avail : sp.initialAvail)
        avail = rng.range(0, 8);
    for (int i = 0; i < num_blocks; ++i) {
        SolverBlock &b = sp.blocks[i];
        if (rng.chance(0.5))
            b.release = rng.range(1, 8);
        if (i > 0 && rng.chance(0.3))
            b.orderAfter = static_cast<int>(rng.range(0, i - 1));
    }
    return sp;
}

/** Expect @p moved to be @p base with every time shifted by @p shift:
 * the same status and search effort, and shifted starts. */
void
expectShifted(const SolveResult &base, const SolveResult &moved, Time shift)
{
    EXPECT_EQ(moved.status, base.status);
    EXPECT_EQ(moved.stats.nodes, base.stats.nodes);
    EXPECT_EQ(moved.stats.memoHits, base.stats.memoHits);
    EXPECT_EQ(moved.stats.boundPrunes, base.stats.boundPrunes);
    ASSERT_EQ(moved.starts.size(), base.starts.size());
    for (size_t i = 0; i < base.starts.size(); ++i)
        EXPECT_EQ(moved.starts[i], base.starts[i] + shift) << "block " << i;
    if (base.feasible()) {
        EXPECT_EQ(moved.makespan, base.makespan + shift);
    }
}

/** Check a solver result against all constraints of its problem. */
void
expectValid(const SolverProblem &sp, const SolveResult &r)
{
    ASSERT_TRUE(r.feasible());
    ASSERT_EQ(r.starts.size(), sp.blocks.size());
    Time makespan = 0;
    for (size_t i = 0; i < sp.blocks.size(); ++i) {
        EXPECT_GE(r.starts[i], sp.blocks[i].release);
        makespan = std::max(makespan, r.starts[i] + sp.blocks[i].span);
        for (int dep : sp.blocks[i].deps)
            EXPECT_LE(r.starts[dep] + sp.blocks[dep].span, r.starts[i]);
    }
    EXPECT_EQ(makespan, r.makespan);
    // Exclusivity and memory per device.
    for (int d = 0; d < sp.numDevices; ++d) {
        std::vector<int> on;
        for (size_t i = 0; i < sp.blocks.size(); ++i)
            if (sp.blocks[i].devices.test(d))
                on.push_back(static_cast<int>(i));
        std::sort(on.begin(), on.end(), [&](int a, int b) {
            return r.starts[a] < r.starts[b];
        });
        Mem used = sp.initialMem.empty() ? 0 : sp.initialMem[d];
        for (size_t k = 0; k + 1 < on.size(); ++k)
            EXPECT_LE(r.starts[on[k]] + sp.blocks[on[k]].span,
                      r.starts[on[k + 1]]);
        for (int id : on) {
            used += sp.blocks[id].memory;
            EXPECT_LE(used, sp.memLimit);
        }
    }
}

/** Greedy earliest-start list schedule (upper bound on the optimum). */
Time
greedyMakespan(const SolverProblem &sp)
{
    const int nb = static_cast<int>(sp.blocks.size());
    std::vector<char> done(nb, 0);
    std::vector<Time> finish(nb, 0);
    std::vector<Time> avail(sp.numDevices, 0);
    Time makespan = 0;
    for (int step = 0; step < nb; ++step) {
        int pick = -1;
        Time pick_est = 0;
        for (int i = 0; i < nb; ++i) {
            if (done[i])
                continue;
            bool ready = true;
            Time est = sp.blocks[i].release;
            for (int dep : sp.blocks[i].deps) {
                if (!done[dep])
                    ready = false;
                else
                    est = std::max(est, finish[dep]);
            }
            if (!ready)
                continue;
            for (int d = 0; d < sp.numDevices; ++d)
                if (sp.blocks[i].devices.test(d))
                    est = std::max(est, avail[d]);
            if (pick < 0 || est < pick_est) {
                pick = i;
                pick_est = est;
            }
        }
        EXPECT_GE(pick, 0);
        done[pick] = 1;
        finish[pick] = pick_est + sp.blocks[pick].span;
        makespan = std::max(makespan, finish[pick]);
        for (int d = 0; d < sp.numDevices; ++d)
            if (sp.blocks[pick].devices.test(d))
                avail[d] = finish[pick];
    }
    return makespan;
}

class RandomInstance : public ::testing::TestWithParam<int>
{
};

TEST_P(RandomInstance, OptimalScheduleIsValid)
{
    const SolverProblem sp =
        randomProblem(GetParam() * 7919 + 13, 10, 3, false);
    BnbSolver solver(sp);
    const SolveResult r = solver.minimizeMakespan();
    ASSERT_EQ(r.status, SolveStatus::Optimal);
    expectValid(sp, r);
}

TEST_P(RandomInstance, OptimumNeverExceedsGreedy)
{
    const SolverProblem sp =
        randomProblem(GetParam() * 104729 + 1, 10, 3, false);
    BnbSolver solver(sp);
    const SolveResult r = solver.minimizeMakespan();
    ASSERT_EQ(r.status, SolveStatus::Optimal);
    EXPECT_LE(r.makespan, greedyMakespan(sp));
}

TEST_P(RandomInstance, DominanceIsLossless)
{
    const SolverProblem sp =
        randomProblem(GetParam() * 31 + 5, 9, 3, false);
    SolverOptions with, without;
    without.useDominance = false;
    BnbSolver a(sp, with), b(sp, without);
    EXPECT_EQ(a.minimizeMakespan().makespan,
              b.minimizeMakespan().makespan);
}

TEST_P(RandomInstance, DecideConsistentWithOptimum)
{
    const SolverProblem sp =
        randomProblem(GetParam() * 607 + 3, 9, 2, false);
    BnbSolver solver(sp);
    const Time opt = solver.minimizeMakespan().makespan;
    EXPECT_TRUE(solver.decide(opt).feasible());
    EXPECT_EQ(solver.decide(opt - 1).status, SolveStatus::Infeasible);
}

TEST_P(RandomInstance, MemoryConstrainedSchedulesAreValid)
{
    const SolverProblem sp =
        randomProblem(GetParam() * 1543 + 11, 10, 2, true);
    BnbSolver solver(sp);
    const SolveResult r = solver.minimizeMakespan();
    if (r.status == SolveStatus::Infeasible)
        return; // Legitimately over-constrained instance.
    expectValid(sp, r);
}

TEST_P(RandomInstance, MemoryTightensTheOptimum)
{
    SolverProblem sp = randomProblem(GetParam() * 8111 + 7, 10, 2, true);
    BnbSolver constrained(sp);
    const SolveResult tight = constrained.minimizeMakespan();
    sp.memLimit = kUnlimitedMem;
    BnbSolver relaxed(sp);
    const SolveResult loose = relaxed.minimizeMakespan();
    ASSERT_TRUE(loose.feasible());
    if (tight.feasible()) {
        EXPECT_GE(tight.makespan, loose.makespan);
    }
}

TEST_P(RandomInstance, ShiftingEveryTimeShiftsTheScheduleOnly)
{
    // Phase completion solves the cooldown in window-relative time and
    // shifts its starts afterwards; that is exact only while the BnB
    // compares times with each other and never with a fixed origin.
    const SolverProblem sp = randomStitchedProblem(
        GetParam() * 2741 + 17, 12, 3, GetParam() % 2 == 1);
    for (const Time shift : {1, 7, 100000}) {
        SolverProblem moved = sp;
        for (Time &avail : moved.initialAvail)
            avail += shift;
        for (SolverBlock &b : moved.blocks)
            b.release += shift;
        for (const uint64_t cap : {uint64_t{0}, uint64_t{40}}) {
            SolverOptions so;
            so.nodeLimit = cap;
            BnbSolver base(sp, so), shifted(moved, so);
            const SolveResult opt = base.minimizeMakespan();
            expectShifted(opt, shifted.minimizeMakespan(), shift);
            if (!opt.feasible())
                continue;
            for (const Time deadline :
                 {opt.makespan, opt.makespan - 1, opt.makespan + 3})
                expectShifted(base.decide(deadline),
                              shifted.decide(deadline + shift), shift);
        }
    }
}

TEST_P(RandomInstance, ReleaseNoLaterThanADeviceAvailabilityNeverBinds)
{
    // A block starts no earlier than the availability of each of its
    // devices, so a release no later than one of them never binds:
    // completion drops such warmup-sourced releases from its cooldown.
    SolverProblem sp = randomStitchedProblem(GetParam() * 4099 + 29, 12, 3,
                                             GetParam() % 2 == 0);
    auto reach = [&](const SolverBlock &b) {
        Time at = 0;
        for (int d : b.devices)
            at = std::max(at, sp.initialAvail[d]);
        return at;
    };
    // Blocks without a release get one exactly at that availability.
    for (SolverBlock &b : sp.blocks)
        if (b.release == 0)
            b.release = reach(b);
    SolverProblem dropped = sp;
    int drops = 0;
    for (SolverBlock &b : dropped.blocks) {
        if (b.release > 0 && b.release <= reach(b)) {
            b.release = 0;
            ++drops;
        }
    }
    ASSERT_GT(drops, 0);
    BnbSolver with(sp), without(dropped);
    const SolveResult opt = with.minimizeMakespan();
    expectShifted(opt, without.minimizeMakespan(), 0);
    if (opt.feasible())
        expectShifted(with.decide(opt.makespan),
                      without.decide(opt.makespan), 0);
    expectShifted(with.decide(kUnlimitedMem), without.decide(kUnlimitedMem),
                  0);
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomInstance, ::testing::Range(0, 20));

} // namespace
} // namespace tessel
