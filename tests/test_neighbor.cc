/**
 * @file
 * Neighbor-seeded search tests: instance-meta serialization, similarity
 * ranking, plan adaptation (fast path, retime path, structural
 * fallback), and the end-to-end service guarantee — seeding never
 * changes a plan, only the work needed to find it.
 */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "placement/comm.h"
#include "placement/shapes.h"
#include "service/service.h"
#include "store/adapt.h"
#include "store/fingerprint.h"
#include "store/neighbor.h"
#include "store/serialize.h"
#include "store/store.h"
#include "support/io.h"

namespace tessel {
namespace {

/** Query options mirroring the reference-shape batch budgets. */
TesselOptions
quickOptions()
{
    TesselOptions opts;
    opts.totalBudgetSec = 5.0;
    opts.repetendBudgetSec = 1.0;
    opts.phaseBudgetSec = 5.0;
    return opts;
}

/** Wrap a cold search of (placement, options) as its stored result. */
TesselResult
solvedResult(const Placement &placement, const TesselOptions &options)
{
    TesselResult result = tesselSearch(placement, options);
    EXPECT_TRUE(result.found);
    return result;
}

// ------------------------------------------------------- instance meta

TEST(NeighborMeta, SerializationRoundTrip)
{
    const Placement p = makeShapeByName("V", 4);
    const InstanceMeta meta = computeInstanceMeta(p, quickOptions());
    EXPECT_EQ(meta.fingerprint, fingerprintQuery(p, quickOptions()));
    EXPECT_EQ(meta.features[kFeatDevices], 4.0);
    EXPECT_GT(meta.features[kFeatBlocks], 0.0);
    EXPECT_GT(meta.features[kFeatTotalWork], 0.0);

    const std::string bytes = serializeMeta(meta);
    InstanceMeta back;
    ASSERT_TRUE(deserializeMeta(bytes, &back));
    EXPECT_EQ(back.fingerprint, meta.fingerprint);
    EXPECT_EQ(back.sub, meta.sub);
    EXPECT_EQ(back.phaseOptions, meta.phaseOptions);
    EXPECT_EQ(back.features, meta.features);
}

TEST(NeighborMeta, PhaseOptionsDigestTracksCompletionInputsOnly)
{
    const TesselOptions base = quickOptions();
    const Hash128 digest = phaseOptionsDigest(base);

    // Knobs that cannot move a phase completion share the digest...
    TesselOptions deeper = base;
    deeper.maxRepetendMicrobatches += 1;
    EXPECT_EQ(phaseOptionsDigest(deeper), digest);
    // The wall budgets are deadlines: a completion one of them cuts
    // short is never stored, so they share the digest too.
    TesselOptions budgets = base;
    budgets.repetendBudgetSec *= 2.0;
    budgets.phaseBudgetSec *= 2.0;
    budgets.totalBudgetSec *= 2.0;
    EXPECT_EQ(phaseOptionsDigest(budgets), digest);

    // ...while the node cap and memory knobs, which can, do not.
    TesselOptions node_cap = base;
    node_cap.phaseNodeLimit /= 2;
    EXPECT_NE(phaseOptionsDigest(node_cap), digest);
    TesselOptions capped = base;
    capped.memLimit = 4;
    EXPECT_NE(phaseOptionsDigest(capped), digest);

    // Trailing zero initial memory is canonicalized away, like the
    // full fingerprint does.
    TesselOptions padded = base;
    padded.initialMem = {0, 0, 0};
    EXPECT_EQ(phaseOptionsDigest(padded), digest);
    padded.initialMem = {1, 0, 0};
    EXPECT_NE(phaseOptionsDigest(padded), digest);
}

TEST(NeighborMeta, RejectsCorruptSidecars)
{
    const Placement p = makeShapeByName("V", 4);
    const std::string bytes =
        serializeMeta(computeInstanceMeta(p, quickOptions()));
    InstanceMeta out;

    std::string truncated = bytes.substr(0, bytes.size() / 2);
    EXPECT_FALSE(deserializeMeta(truncated, &out));

    // Any single flipped payload byte must fail the checksum.
    std::string flipped = bytes;
    flipped[flipped.size() - 3] ^= 0x40;
    EXPECT_FALSE(deserializeMeta(flipped, &out));

    std::string bad_magic = bytes;
    bad_magic[0] ^= 0x01;
    EXPECT_FALSE(deserializeMeta(bad_magic, &out));

    EXPECT_FALSE(deserializeMeta(std::string(), &out));
}

TEST(NeighborMeta, SubFingerprintsIsolateComponents)
{
    const Placement v = makeShapeByName("V", 4);
    TesselOptions base = quickOptions();

    TesselOptions capped = base;
    capped.memLimit = 4;
    const SubFingerprints a = subFingerprintsQuery(v, base);
    const SubFingerprints b = subFingerprintsQuery(v, capped);
    EXPECT_EQ(a.placement, b.placement); // Same structure + costs.
    EXPECT_EQ(a.cluster, b.cluster);     // Both homogeneous.
    EXPECT_NE(a.options, b.options);     // The knob that moved.

    const SubFingerprints c =
        subFingerprintsQuery(makeShapeByName("X", 4), base);
    EXPECT_NE(a.placement, c.placement);
    EXPECT_EQ(a.options, c.options);
}

// ------------------------------------------------------ neighbor index

TEST(NeighborIndex, RanksSharedPlacementAboveSharedOptions)
{
    const Placement v = makeShapeByName("V", 4);
    const Placement x = makeShapeByName("X", 4);
    const TesselOptions base = quickOptions();
    // A one-knob options delta: small feature distance + options
    // penalty. (A memLimit delta would not do here — finite vs the
    // unlimited sentinel saturates that feature's relative distance.)
    TesselOptions deeper = base;
    deeper.maxRepetendMicrobatches += 1;

    NeighborIndex index;
    index.add(computeInstanceMeta(v, deeper)); // Same placement, knob off.
    index.add(computeInstanceMeta(x, base));   // Same options, other shape.
    EXPECT_EQ(index.size(), 2u);

    const InstanceMeta query = computeInstanceMeta(v, base);
    const auto near = index.nearest(query, 4);
    ASSERT_EQ(near.size(), 2u);
    EXPECT_EQ(near[0].fingerprint, fingerprintQuery(v, deeper));
    EXPECT_LT(near[0].distance, near[1].distance);
}

TEST(NeighborIndex, ExcludesExactMatchAndHonorsK)
{
    const Placement v = makeShapeByName("V", 4);
    const TesselOptions base = quickOptions();

    NeighborIndex index;
    index.add(computeInstanceMeta(v, base));
    const InstanceMeta query = computeInstanceMeta(v, base);
    EXPECT_TRUE(index.nearest(query, 4).empty()); // Own fp is a cache hit.

    TesselOptions other = base;
    for (int i = 0; i < 3; ++i) {
        other.memLimit = 10 + i;
        index.add(computeInstanceMeta(v, other));
    }
    EXPECT_EQ(index.nearest(query, 2).size(), 2u);
    EXPECT_EQ(index.nearest(query, 0).size(), 0u);

    other.memLimit = 10;
    EXPECT_TRUE(index.remove(fingerprintQuery(v, other)));
    EXPECT_FALSE(index.remove(fingerprintQuery(v, other)));
    EXPECT_EQ(index.size(), 3u);
}

// ---------------------------------------------------------- adaptation

TEST(NeighborAdapt, FastPathWhenOnlyNodeCapMoved)
{
    const Placement v = makeShapeByName("V", 4);
    const TesselOptions stored_opts = quickOptions();
    const TesselResult stored = solvedResult(v, stored_opts);

    TesselOptions query_opts = stored_opts;
    query_opts.phaseNodeLimit = 1'000'000; // Fingerprint moves, costs do not.
    ASSERT_NE(fingerprintQuery(v, query_opts),
              fingerprintQuery(v, stored_opts));

    const AdaptOutcome out = adaptResultToQuery(v, query_opts, stored);
    ASSERT_TRUE(out.ok) << out.reason;
    EXPECT_FALSE(out.retimed);
    // Without the caller's phase-options attestation the seed carries
    // no reusable phases, however identical the instances look.
    EXPECT_FALSE(out.seed.phasesExact);
    EXPECT_FALSE(out.seed.plan.has_value());
    EXPECT_EQ(out.seed.period, stored.period);
    EXPECT_EQ(out.seed.windowStart.size(),
              static_cast<size_t>(v.numBlocks()));
    EXPECT_GE(out.seed.makespan, out.seed.period);
    EXPECT_TRUE(
        verifyResultAgainstQuery(v, query_opts, out.adapted).ok);
}

TEST(NeighborAdapt, ExactPhaseReuseWhenAttestedAndInputsIdentical)
{
    const Placement v = makeShapeByName("V", 4);
    const TesselOptions stored_opts = quickOptions();
    const TesselResult stored = solvedResult(v, stored_opts);

    // One more micro-batch of sweep headroom: the fingerprint moves but
    // every phase-completion input (placement costs, memory, budgets)
    // stays put — exactly the perturbation the service attests.
    TesselOptions query_opts = stored_opts;
    query_opts.maxRepetendMicrobatches += 1;
    ASSERT_EQ(phaseOptionsDigest(query_opts),
              phaseOptionsDigest(stored_opts));

    const AdaptOutcome out =
        adaptResultToQuery(v, query_opts, stored,
                           /*exactPhasesAllowed=*/true);
    ASSERT_TRUE(out.ok) << out.reason;
    EXPECT_FALSE(out.retimed);
    ASSERT_TRUE(out.seed.phasesExact);
    ASSERT_TRUE(out.seed.plan.has_value());
    // The carried plan is the stored answer rebuilt on the query's own
    // placement — the completion the search may now return verbatim.
    EXPECT_EQ(out.seed.plan->period(), stored.plan.period());
    EXPECT_EQ(out.seed.plan->windowStart(), stored.plan.windowStart());
    EXPECT_EQ(out.seed.plan->warmupStarts(), stored.plan.warmupStarts());
    EXPECT_EQ(out.seed.plan->cooldownStarts(),
              stored.plan.cooldownStarts());
}

TEST(NeighborAdapt, RetimesWhenSpansMoved)
{
    const Placement v = makeShapeByName("V", 4);
    const TesselOptions opts = quickOptions();
    const TesselResult stored = solvedResult(v, opts);

    // Same structure, every span doubled: the stored start times are
    // too dense for the new costs, so the fast path must fail and the
    // known-good assignment be retimed exactly.
    std::vector<BlockSpec> blocks = v.blocks();
    for (BlockSpec &block : blocks)
        block.span *= 2;
    const Placement stretched(v.name(), v.numDevices(), blocks);

    const AdaptOutcome out = adaptResultToQuery(stretched, opts, stored);
    ASSERT_TRUE(out.ok) << out.reason;
    EXPECT_TRUE(out.retimed);
    EXPECT_TRUE(
        verifyResultAgainstQuery(stretched, opts, out.adapted).ok);
    // The adapted plan must be a real answer for the *stretched* costs.
    EXPECT_EQ(out.adapted.nrUsed, stored.nrUsed);
    EXPECT_GE(out.adapted.period, stored.period);

    // And the seed must match what the adapted plan promises.
    EXPECT_EQ(out.seed.period, out.adapted.period);
    EXPECT_EQ(out.seed.windowStart, out.adapted.plan.windowStart());
}

TEST(NeighborAdapt, StructuralMismatchFallsBackCold)
{
    const TesselOptions opts = quickOptions();
    const TesselResult stored = solvedResult(makeShapeByName("V", 4), opts);

    // Different dependency structure (X-Shape) and a different stage
    // count (V at 6 devices) must both refuse to adapt.
    EXPECT_FALSE(
        adaptResultToQuery(makeShapeByName("X", 4), opts, stored).ok);
    EXPECT_FALSE(
        adaptResultToQuery(makeShapeByName("V", 6), opts, stored).ok);

    // A not-found neighbor has nothing to offer either.
    TesselResult empty;
    EXPECT_FALSE(
        adaptResultToQuery(makeShapeByName("V", 4), opts, empty).ok);

    // A cluster flip that adds comm blocks (the hetero V lowering), or
    // one that drops them, changes the solve placement's devices.
    const HeteroShape hs = makeHeteroShapeByName("V", 4);
    TesselOptions hetero = opts;
    hetero.cluster = &hs.cluster;
    hetero.edgeMB = hs.edgeMB;
    EXPECT_FALSE(adaptResultToQuery(hs.placement, hetero, stored).ok);
    const TesselResult stored_hetero = solvedResult(hs.placement, hetero);
    EXPECT_FALSE(adaptResultToQuery(hs.placement, opts, stored_hetero).ok);
}

TEST(NeighborAdapt, ZeroCommBlockClusterAdaptsFromTrivialNeighbor)
{
    const Placement v = makeShapeByName("V", 4);
    const TesselOptions opts = quickOptions();
    const TesselResult stored = solvedResult(v, opts);
    ASSERT_FALSE(stored.commAware);

    // A speed-only cluster is non-trivial, so the query searches
    // comm-aware, but its free links lower no comm block: the
    // homogeneous plan's blocks still correspond one for one.
    ClusterModel speed = ClusterModel::uniformLink(4, LinkParams{});
    speed.speedFactor[1] = 1.25;
    ASSERT_FALSE(speed.isTrivial(4));
    TesselOptions query = opts;
    query.cluster = &speed;
    ASSERT_EQ(commResourceDemand(v, speed, query.edgeMB, query.comm),
              v.numDevices());

    const AdaptOutcome out = adaptResultToQuery(v, query, stored);
    ASSERT_TRUE(out.ok) << out.reason;
    EXPECT_TRUE(out.adapted.commAware);
    EXPECT_TRUE(verifyResultAgainstQuery(v, query, out.adapted).ok);
}

// ------------------------------------------------- store integration

TEST(PlanCacheNeighbors, PutIndexesAndPeekFetchesRaw)
{
    std::string dir;
    ASSERT_TRUE(makeTempDir("tessel-neighbor-store-", &dir));
    const Placement v = makeShapeByName("V", 4);
    const TesselOptions opts = quickOptions();
    const Hash128 fp = fingerprintQuery(v, opts);
    const TesselResult result = solvedResult(v, opts);

    {
        PlanCache cache(dir);
        cache.put(fp, v, opts, result);
        EXPECT_EQ(cache.indexedInstances(), 1u);

        const auto peeked = cache.peek(fp);
        ASSERT_TRUE(peeked.has_value());
        EXPECT_EQ(resultPlanDigest(*peeked), resultPlanDigest(result));
        EXPECT_EQ(cache.stats().neighborFetches, 1u);
        // peek is not a lookup: no hit/miss accounting.
        EXPECT_EQ(cache.stats().lookups(), 0u);
    }

    // A fresh cache on the same directory rebuilds the index from the
    // entries' meta frames alone, without decoding a plan.
    PlanCache reopened(dir);
    EXPECT_EQ(reopened.indexedInstances(), 1u);
    TesselOptions query = opts;
    query.memLimit = 4;
    const auto near =
        reopened.neighbors(computeInstanceMeta(v, query), 2);
    ASSERT_EQ(near.size(), 1u);
    EXPECT_EQ(near[0].fingerprint, fp);
}

// --------------------------------------------- end-to-end determinism

/**
 * The tentpole guarantee, per perturbation: a seeded search returns a
 * plan bit-identical to the unseeded one (the seed only prunes), while
 * doing strictly less solver work.
 */
TEST(NeighborSeeding, PerturbedQueriesBitIdenticalSeedingOnOrOff)
{
    std::string warm_dir, cold_dir;
    ASSERT_TRUE(makeTempDir("tessel-seed-warm-", &warm_dir));
    ASSERT_TRUE(makeTempDir("tessel-seed-cold-", &cold_dir));

    // Base instances the warm store knows about: V homogeneous + V
    // hetero (small but covers both search paths).
    std::vector<PlanQuery> base;
    {
        PlanQuery homogeneous;
        homogeneous.label = "V/homogeneous";
        homogeneous.placement = makeShapeByName("V", 4);
        homogeneous.options = quickOptions();
        base.push_back(homogeneous);

        HeteroShape hs = makeHeteroShapeByName("V", 4);
        PlanQuery hetero;
        hetero.label = "V/hetero";
        hetero.placement = hs.placement;
        hetero.options = quickOptions();
        hetero.options.edgeMB = hs.edgeMB;
        hetero.cluster =
            std::make_shared<ClusterModel>(std::move(hs.cluster));
        base.push_back(hetero);
    }

    ServiceOptions warm_opts;
    warm_opts.cacheDir = warm_dir;
    warm_opts.numThreads = 1;
    warm_opts.neighborSeed = true;
    PlanningService warm(warm_opts);
    warm.runBatch(base);

    ServiceOptions cold_opts;
    cold_opts.cacheDir = cold_dir;
    cold_opts.numThreads = 1;
    cold_opts.neighborSeed = false;
    PlanningService cold(cold_opts);

    // Perturbations: a deeper NR cap, links 5% slower and 5% faster,
    // and one extra pipeline stage (structural -> must fall back cold).
    // fewer_nodes marks queries whose adaptation reuses the stored
    // timing verbatim (identical costs): those charge no solver work to
    // adaptation, so total warm nodes must be strictly below cold. The
    // link-scaled queries re-time the assignment — one candidate solve
    // charged to the warm side — so only their pruning counters are
    // asserted, not the total.
    std::vector<PlanQuery> perturbed;
    std::vector<bool> expect_seeded;
    std::vector<bool> fewer_nodes;
    {
        PlanQuery nr_cap = base[0];
        nr_cap.label = "V/nr-cap+1";
        nr_cap.options.maxRepetendMicrobatches += 1;
        perturbed.push_back(nr_cap);
        expect_seeded.push_back(true);
        fewer_nodes.push_back(true);

        for (const double scale : {1.05, 0.95}) {
            PlanQuery link = base[1];
            link.label = "V/hetero/link-scaled";
            auto scaled = std::make_shared<ClusterModel>(*link.cluster);
            scaled->defaultLink.timePerMB *= scale;
            for (auto &entry : scaled->linkOverride)
                entry.second.timePerMB *= scale;
            link.cluster = std::move(scaled);
            perturbed.push_back(link);
            expect_seeded.push_back(true);
            fewer_nodes.push_back(false);
        }

        PlanQuery wider = base[0];
        wider.label = "V/6-devices";
        wider.placement = makeShapeByName("V", 6);
        perturbed.push_back(wider);
        expect_seeded.push_back(false);
        fewer_nodes.push_back(false);
    }

    for (size_t i = 0; i < perturbed.size(); ++i) {
        QueryReport cold_report, warm_report;
        const TesselResult cold_result =
            cold.runOne(perturbed[i], &cold_report);
        const TesselResult warm_result =
            warm.runOne(perturbed[i], &warm_report);

        // The tentpole invariant: identical serialized plans.
        EXPECT_EQ(cold_report.planHash, warm_report.planHash)
            << perturbed[i].label;
        EXPECT_EQ(cold_result.period, warm_result.period)
            << perturbed[i].label;

        if (expect_seeded[i]) {
            EXPECT_FALSE(warm_report.seededFrom.empty())
                << perturbed[i].label;
            EXPECT_GE(warm_report.seedMakespan, warm_result.period)
                << perturbed[i].label;
            // The seed's virtual incumbent did real pruning.
            EXPECT_GT(warm_report.seedNodesPruned, 0u)
                << perturbed[i].label;
            // And never forced extra phase SAT checks.
            EXPECT_LE(warm_result.breakdown.satChecks,
                      cold_result.breakdown.satChecks)
                << perturbed[i].label;
            if (fewer_nodes[i]) {
                // Strictly less solver work than the unseeded search,
                // even counting what the adaptation itself spent.
                EXPECT_LT(warm_result.breakdown.solverNodes,
                          cold_result.breakdown.solverNodes)
                    << perturbed[i].label;
            }
        } else {
            EXPECT_TRUE(warm_report.seededFrom.empty())
                << perturbed[i].label;
            EXPECT_EQ(warm_report.seedMakespan, -1) << perturbed[i].label;
        }
    }
}

TEST(NeighborSeeding, SeededSearchAttributesPrunesToSeed)
{
    std::string dir;
    ASSERT_TRUE(makeTempDir("tessel-seed-attr-", &dir));
    const Placement v = makeShapeByName("V", 4);
    const TesselOptions base = quickOptions();

    ServiceOptions svc;
    svc.cacheDir = dir;
    svc.numThreads = 1;
    PlanningService service(svc);
    PlanQuery seed_query;
    seed_query.label = "V/base";
    seed_query.placement = v;
    seed_query.options = base;
    service.runOne(seed_query);

    PlanQuery miss = seed_query;
    miss.label = "V/nr-cap+1";
    miss.options.maxRepetendMicrobatches += 1;
    QueryReport report;
    const TesselResult result = service.runOne(miss, &report);
    ASSERT_TRUE(result.found);
    ASSERT_FALSE(report.seededFrom.empty());
    EXPECT_EQ(report.seededFrom, fingerprintQuery(v, base).hex());

    // The seed's virtual incumbent pruned work before the first own
    // candidate landed, and the report surfaces that attribution.
    EXPECT_GT(report.seedNodesPruned, 0u);
    EXPECT_EQ(report.seedNodesPruned,
              result.breakdown.seededNodesPruned);
    EXPECT_EQ(report.seedMakespan, result.breakdown.seedMakespan);
}

} // namespace
} // namespace tessel
