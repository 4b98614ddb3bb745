/**
 * @file
 * Elastic-replanning tests: applyDelta survivor compaction, a freed
 * link dropping exactly the comm blocks it carried, a search seeded by
 * prepareReplanSeed producing plans bit-identical to a cold search of
 * the drifted instance, and the service-level contract — drifted
 * answers matching cold searches, seed fields that describe the search
 * that ran, device failure served as a verified degraded plan (never
 * an error), budget-missed replans serving the old plan conservatively
 * retimed (stale) while the full search publishes to the store in the
 * background, and replans without a served base degenerating to an
 * ordinary fresh search.
 */

#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "core/search.h"
#include "placement/comm.h"
#include "placement/shapes.h"
#include "service/service.h"
#include "store/adapt.h"
#include "store/serialize.h"
#include "store/store.h"
#include "support/io.h"

namespace tessel {
namespace {

/**
 * Fast deterministic search options for test instances: no deadlines,
 * and a node cap that keeps NN's phase solves short. Every plan is then
 * a function of the instance alone, whatever the host's speed or load.
 */
TesselOptions
quickOptions()
{
    TesselOptions opts;
    opts.totalBudgetSec = 0.0;
    opts.repetendBudgetSec = 0.0;
    opts.phaseBudgetSec = 0.0;
    opts.phaseNodeLimit = 200'000;
    opts.numThreads = 1;
    return opts;
}

/** Hetero reference query owning its cluster model. */
PlanQuery
heteroQuery(const std::string &shape)
{
    HeteroShape hs = makeHeteroShapeByName(shape, 4);
    PlanQuery q;
    q.label = shape + "/hetero";
    q.placement = std::move(hs.placement);
    q.options = quickOptions();
    q.options.edgeMB = std::move(hs.edgeMB);
    q.cluster = std::make_shared<ClusterModel>(std::move(hs.cluster));
    return q;
}

/** Speed drift: device 1 slows to 2x its span cost. */
ClusterDelta
speedDrift()
{
    ClusterDelta delta;
    delta.speedFactor[1] = 2.0;
    return delta;
}

// ----------------------------------------------------------- applyDelta

TEST(ApplyDelta, RemovalCompactsSurvivorsPreservingHardware)
{
    HeteroShape hs = makeHeteroShapeByName("V", 4);
    // Fast/slow alternation: speeds [1, 1.5, 1, 1.5].
    ASSERT_EQ(hs.cluster.speedOf(1), 1.5);

    ClusterDelta delta;
    delta.removedDevices = {1};
    const ClusterModel survivors = applyDelta(hs.cluster, delta, 4);
    // Survivors keep their own hardware: [1, 1, 1.5], NOT the fresh
    // alternating pattern a 3-device hetero shape would fabricate.
    ASSERT_EQ(survivors.speedFactor.size(), 3u);
    EXPECT_EQ(survivors.speedOf(0), 1.0);
    EXPECT_EQ(survivors.speedOf(1), 1.0);
    EXPECT_EQ(survivors.speedOf(2), 1.5);

    // Link overrides re-key through the compaction; pairs touching the
    // removed device vanish.
    ClusterModel with_links = hs.cluster;
    LinkParams lp;
    lp.latency = 7.0;
    with_links.linkOverride[{2, 3}] = lp;
    with_links.linkOverride[{0, 1}] = lp;
    const ClusterModel remapped = applyDelta(with_links, delta, 4);
    ASSERT_EQ(remapped.linkOverride.size(), 1u);
    const auto it = remapped.linkOverride.find({1, 2});
    ASSERT_NE(it, remapped.linkOverride.end());
    EXPECT_EQ(it->second.latency, 7.0);
}

TEST(ApplyDelta, DegradedHeteroShapeUsesSurvivorCluster)
{
    std::vector<DeviceId> removed;
    const HeteroShape degraded =
        makeDegradedHeteroShapeByName("V", 4, /*failed=*/1, {}, {},
                                      &removed);
    EXPECT_EQ(removed, std::vector<DeviceId>{1});
    EXPECT_EQ(degraded.placement.numDevices(), 3);
    ASSERT_EQ(degraded.cluster.speedFactor.size(), 3u);
    EXPECT_EQ(degraded.cluster.speedOf(1), 1.0);
    EXPECT_EQ(degraded.cluster.speedOf(2), 1.5);

    // K-Shape retires the failed device's mirror partner with it.
    std::vector<DeviceId> k_removed;
    const HeteroShape k =
        makeDegradedHeteroShapeByName("K", 4, /*failed=*/3, {}, {},
                                      &k_removed);
    EXPECT_EQ(k_removed, (std::vector<DeviceId>{1, 3}));
    EXPECT_EQ(k.placement.numDevices(), 2);
}

// -------------------------------------------------------- comm lowering

TEST(CommLowering, FreedLinkDropsTheCommBlocksItCarried)
{
    HeteroShape hs = makeHeteroShapeByName("V", 4);
    const CommExpansion base =
        expandWithComm(hs.placement, hs.cluster, hs.edgeMB, {});

    // Making a carrying link free (zero latency, zero cost per MB)
    // drops its transfers; every other link keeps its comm blocks.
    ClusterDelta delta;
    delta.link[{0, 1}] = LinkParams{};
    const ClusterModel drifted = applyDelta(hs.cluster, delta, 4);
    const CommExpansion freed =
        expandWithComm(hs.placement, drifted, hs.edgeMB, {});

    auto blocks_on_link01 = [](const CommExpansion &e) {
        const std::pair<DeviceId, DeviceId> link01{0, 1};
        int n = 0;
        for (int s = 0; s < e.placement.numBlocks(); ++s) {
            if (e.origSpec[s] >= 0)
                continue;
            const DeviceId link = lowestDevice(e.placement.block(s).devices);
            if (e.linkEndpoints[link - e.numRealDevices] == link01)
                ++n;
        }
        return n;
    };
    const int carried = blocks_on_link01(base);
    ASSERT_GT(carried, 0);
    EXPECT_EQ(blocks_on_link01(freed), 0);
    EXPECT_EQ(freed.numCommBlocks(), base.numCommBlocks() - carried);
    EXPECT_EQ(freed.numLinks, base.numLinks - 1);
}

// -------------------------------------------------------- core replan

TEST(TesselReplan, DriftedPlanBitIdenticalToColdSearch)
{
    const PlanQuery base = heteroQuery("V");
    const TesselOptions base_opts = base.effectiveOptions();
    const TesselResult served = tesselSearch(base.placement, base_opts);
    ASSERT_TRUE(served.found);

    const ClusterDelta delta = speedDrift();
    const ClusterModel drifted_model =
        applyDelta(*base.cluster, delta, base.placement.numDevices());
    TesselOptions drifted = base_opts;
    drifted.cluster = &drifted_model;

    const TesselResult cold = tesselSearch(base.placement, drifted);
    ASSERT_TRUE(cold.found);

    // The service's replan: retime the served plan into a seed, then
    // search the drifted instance with it.
    const ReplanSeed info = prepareReplanSeed(
        base.placement, drifted, served, &delta, /*exactPhasesAllowed=*/true);
    ASSERT_TRUE(info.ok) << info.reason;
    TesselOptions seeded = drifted;
    seeded.seed = &info.seed;
    const TesselResult replanned = tesselSearch(base.placement, seeded);
    EXPECT_TRUE(info.retimed);
    // Seed-only-prunes: the seeded search lands on the cold plan bit
    // for bit. The retimed fallback itself verified against the
    // drifted instance.
    EXPECT_EQ(resultPlanDigest(replanned), resultPlanDigest(cold));
    const VerifyOutcome stale_ok = verifyResultAgainstQuery(
        base.placement, drifted, info.adapted);
    EXPECT_TRUE(stale_ok.ok) << stale_ok.reason;
}

// ----------------------------------------------------- service replan

TEST(ServiceReplan, DriftServedBitIdenticalToColdSearch)
{
    std::string warm_dir, cold_dir;
    ASSERT_TRUE(makeTempDir("tessel-replan-warm-", &warm_dir));
    ASSERT_TRUE(makeTempDir("tessel-replan-cold-", &cold_dir));

    ReplanRequest req;
    req.base = heteroQuery("X");
    req.delta = speedDrift();

    ServiceOptions warm_opts;
    warm_opts.cacheDir = warm_dir;
    warm_opts.numThreads = 1;
    warm_opts.replanBudgetSec = 0.0; // always wait: no stale answers
    PlanningService warm(warm_opts);
    warm.runOne(req.base, nullptr); // populate the base instance

    QueryReport report;
    const TesselResult replanned = warm.replan(req, &report);
    ASSERT_TRUE(replanned.found);
    EXPECT_TRUE(report.replanned);
    EXPECT_FALSE(report.stale);
    EXPECT_FALSE(report.degraded);
    EXPECT_STREQ(report.source, "search");
    EXPECT_FALSE(report.seededFrom.empty());

    ServiceOptions cold_opts;
    cold_opts.cacheDir = cold_dir;
    cold_opts.numThreads = 1;
    cold_opts.neighborSeed = false;
    PlanningService cold(cold_opts);
    QueryReport cold_report;
    cold.runOne(makeDriftedQuery(req), &cold_report);
    EXPECT_EQ(report.planHash, cold_report.planHash);
    EXPECT_EQ(report.fingerprint, cold_report.fingerprint);
}

TEST(ServiceReplan, BudgetMissServesVerifiedStaleThenPublishes)
{
    std::string dir;
    ASSERT_TRUE(makeTempDir("tessel-replan-stale-", &dir));

    ReplanRequest req;
    req.base = heteroQuery("NN");
    req.delta = speedDrift();
    const PlanQuery drifted = makeDriftedQuery(req);

    ServiceOptions opts;
    opts.cacheDir = dir;
    opts.numThreads = 1;
    opts.replanBudgetSec = 1e-9; // never enough: force the stale path
    PlanningService service(opts);
    service.runOne(req.base, nullptr);

    QueryReport stale_report;
    const TesselResult stale = service.replan(req, &stale_report);
    ASSERT_TRUE(stale.found);
    EXPECT_TRUE(stale_report.stale);
    EXPECT_STREQ(stale_report.source, "stale");
    // The stale answer is the old plan retimed under the drifted costs,
    // and it passed the oracle before being served.
    const VerifyOutcome ok = verifyResultAgainstQuery(
        drifted.placement, drifted.effectiveOptions(), stale);
    EXPECT_TRUE(ok.ok) << ok.reason;

    // The background search publishes the full answer to the store: a
    // repeat of the same drift is a plain hit, bit-identical to cold.
    service.waitBackgroundReplans();
    QueryReport fresh_report;
    const TesselResult fresh = service.replan(req, &fresh_report);
    ASSERT_TRUE(fresh.found);
    EXPECT_FALSE(fresh_report.stale);
    const std::string fresh_source = fresh_report.source;
    EXPECT_TRUE(fresh_source == "memory" || fresh_source == "disk")
        << fresh_source;

    std::string cold_dir;
    ASSERT_TRUE(makeTempDir("tessel-replan-stale-cold-", &cold_dir));
    ServiceOptions cold_opts;
    cold_opts.cacheDir = cold_dir;
    cold_opts.numThreads = 1;
    cold_opts.neighborSeed = false;
    PlanningService cold(cold_opts);
    QueryReport cold_report;
    cold.runOne(drifted, &cold_report);
    EXPECT_EQ(fresh_report.planHash, cold_report.planHash);
}

TEST(ServiceReplan, SeedFieldsDescribeTheSearchThatRan)
{
    std::string dir;
    ASSERT_TRUE(makeTempDir("tessel-replan-seed-", &dir));
    ServiceOptions opts;
    opts.cacheDir = dir;
    opts.numThreads = 1;
    opts.replanBudgetSec = 0.0; // always wait for the seeded search
    PlanningService service(opts);

    // A charged link (0, 1) under a mem-capped V plan adds comm blocks,
    // so neither the served plan nor any stored neighbor adapts: the
    // search runs cold and names no seed.
    ReplanRequest link;
    link.base = *referenceShapeQuery("V", "mem-capped", 4, 0.0);
    LinkParams lp;
    lp.latency = 2.0;
    lp.timePerMB = 0.5;
    link.delta.link[{0, 1}] = lp;
    service.runOne(link.base, nullptr);
    QueryReport cold;
    service.replan(link, &cold);
    EXPECT_STREQ(cold.source, "search");
    EXPECT_EQ(cold.seedMakespan, -1);
    EXPECT_EQ(cold.seededFrom.empty(), cold.seedMakespan == -1)
        << cold.seededFrom;

    // A speed drift retimes the served X plan into the seed; the seeded
    // search's own prune count reaches the report.
    ReplanRequest speed;
    speed.base = heteroQuery("X");
    speed.delta = speedDrift();
    service.runOne(speed.base, nullptr);
    QueryReport seeded;
    const TesselResult result = service.replan(speed, &seeded);
    EXPECT_STREQ(seeded.source, "search");
    EXPECT_EQ(seeded.seededFrom, service.fingerprint(speed.base).hex());
    EXPECT_GE(seeded.seedMakespan, result.period);
    EXPECT_EQ(seeded.seedNodesPruned, result.breakdown.seededNodesPruned);
    EXPECT_GT(seeded.seedNodesPruned, 0u);
}

TEST(ServiceReplan, DeviceFailureServedAsVerifiedDegradedPlan)
{
    std::string dir;
    ASSERT_TRUE(makeTempDir("tessel-replan-fail-", &dir));

    ReplanRequest req;
    req.base = heteroQuery("V");
    std::vector<DeviceId> removed;
    HeteroShape hs =
        makeDegradedHeteroShapeByName("V", 4, /*failed=*/1, {}, {},
                                      &removed);
    PlanQuery degraded;
    degraded.label = "V/hetero/fail=1";
    degraded.placement = std::move(hs.placement);
    degraded.options = quickOptions();
    degraded.options.edgeMB = std::move(hs.edgeMB);
    degraded.cluster =
        std::make_shared<ClusterModel>(std::move(hs.cluster));
    req.delta.removedDevices = std::move(removed);
    req.degraded = std::move(degraded);

    ServiceOptions opts;
    opts.cacheDir = dir;
    opts.numThreads = 1;
    opts.replanBudgetSec = 0.0;
    PlanningService service(opts);
    service.runOne(req.base, nullptr);

    QueryReport report;
    const TesselResult result = service.replan(req, &report);
    // A failure is served as a verified survivor plan, never an error.
    ASSERT_TRUE(result.found);
    EXPECT_TRUE(report.degraded);
    EXPECT_TRUE(report.replanned);
    EXPECT_FALSE(report.stale);
    const VerifyOutcome ok = verifyResultAgainstQuery(
        req.degraded->placement, req.degraded->effectiveOptions(),
        result);
    EXPECT_TRUE(ok.ok) << ok.reason;
}

TEST(ServiceReplan, NoServedBaseFallsBackToFreshSearchNotStale)
{
    std::string dir;
    ASSERT_TRUE(makeTempDir("tessel-replan-nobase-", &dir));

    ReplanRequest req;
    req.base = heteroQuery("M");
    req.delta = speedDrift();

    ServiceOptions opts;
    opts.cacheDir = dir;
    opts.numThreads = 1;
    opts.replanBudgetSec = 1e-9; // stale path would trigger if eligible
    PlanningService service(opts);
    // No runOne(base): the store has nothing to retime.

    QueryReport report;
    const TesselResult result = service.replan(req, &report);
    ASSERT_TRUE(result.found);
    EXPECT_TRUE(report.replanned);
    EXPECT_FALSE(report.stale);
    EXPECT_STREQ(report.source, "search");
}

} // namespace
} // namespace tessel
