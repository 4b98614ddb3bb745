/**
 * @file
 * Plan store tests: canonical fingerprint invariances, versioned
 * serialization round-trip exactness (property-tested over random
 * instances, including a >64-resource comm-aware one), corruption and
 * version-bump rejection, the verification-on-load invariant, and
 * the exported `store.*` series summing the live caches' StoreStats.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <memory>
#include <set>
#include <string>

#include "core/search.h"
#include "placement/comm.h"
#include "placement/shapes.h"
#include "service/service.h"
#include "solver/oracle.h"
#include "store/fingerprint.h"
#include "store/serialize.h"
#include "store/store.h"
#include "support/io.h"
#include "support/metrics.h"
#include "support/rng.h"

namespace tessel {
namespace {

/** Fast search options for test instances. */
TesselOptions
quickOptions()
{
    TesselOptions opts;
    opts.maxRepetendMicrobatches = 2;
    opts.totalBudgetSec = 5.0;
    opts.repetendBudgetSec = 1.0;
    opts.phaseBudgetSec = 2.0;
    opts.numThreads = 1;
    return opts;
}

// ----------------------------------------------------------- Hash128

TEST(Hash128, HexRoundTrip)
{
    Hasher h;
    h.addU64(42);
    h.addString("tessel");
    const Hash128 digest = h.digest();
    Hash128 parsed;
    ASSERT_TRUE(Hash128::fromHex(digest.hex(), &parsed));
    EXPECT_EQ(parsed, digest);
    EXPECT_EQ(digest.hex().size(), 32u);

    EXPECT_FALSE(Hash128::fromHex("zz", &parsed));
    EXPECT_FALSE(Hash128::fromHex(std::string(32, 'g'), &parsed));
}

TEST(Hash128, DistinctInputsDistinctDigests)
{
    // Sanity distribution check: nearby integers avalanche apart.
    std::set<std::string> seen;
    for (uint64_t i = 0; i < 1000; ++i) {
        Hasher h;
        h.addU64(i);
        seen.insert(h.digest().hex());
    }
    EXPECT_EQ(seen.size(), 1000u);
}

TEST(Hash128, ResourceSetCapacityInvariant)
{
    // A set that grew past 64 bits and shrank back hashes identically
    // to one that never grew.
    ResourceSet grown;
    grown.set(300);
    grown.reset(300);
    grown.set(2);
    grown.set(63);
    ResourceSet never_grown;
    never_grown.set(2);
    never_grown.set(63);
    Hasher a, b;
    a.addResourceSet(grown);
    b.addResourceSet(never_grown);
    EXPECT_EQ(a.digest(), b.digest());
}

// ------------------------------------------------------- fingerprints

TEST(Fingerprint, DeterministicAndSensitive)
{
    const Placement p = makeShapeByName("V", 4);
    const TesselOptions opts = quickOptions();
    const Hash128 fp = fingerprintQuery(p, opts);
    EXPECT_EQ(fp, fingerprintQuery(p, opts));

    // Every plan-relevant knob moves the fingerprint.
    TesselOptions changed = opts;
    changed.memLimit = 4;
    EXPECT_NE(fp, fingerprintQuery(p, changed));
    changed = opts;
    changed.maxRepetendMicrobatches += 1;
    EXPECT_NE(fp, fingerprintQuery(p, changed));
    changed = opts;
    changed.lazy = !changed.lazy;
    EXPECT_NE(fp, fingerprintQuery(p, changed));
    changed = opts;
    changed.phaseNodeLimit += 1;
    EXPECT_NE(fp, fingerprintQuery(p, changed));
    changed = opts;
    changed.initialMem = {1, 0, 0, 0};
    EXPECT_NE(fp, fingerprintQuery(p, changed));

    // The wall budgets are serving deadlines, not plan inputs: a search
    // one of them cuts short is never stored, so they leave it alone.
    changed = opts;
    changed.totalBudgetSec += 1.0;
    changed.repetendBudgetSec = 0.0;
    changed.phaseBudgetSec *= 3.0;
    EXPECT_EQ(fp, fingerprintQuery(p, changed));

    // A different placement structure moves it too.
    EXPECT_NE(fp, fingerprintQuery(makeShapeByName("X", 4), opts));
    ShapeCosts costs;
    costs.bwdSpan = 3;
    EXPECT_NE(fp, fingerprintQuery(makeShapeByName("V", 4, costs), opts));
}

TEST(Fingerprint, PlanInvariantKnobsExcluded)
{
    const Placement p = makeShapeByName("M", 4);
    TesselOptions a = quickOptions();
    TesselOptions b = a;
    b.numThreads = 7; // Any thread count returns the same plan.
    CancelSource src;
    b.cancel = src.token();
    EXPECT_EQ(fingerprintQuery(p, a), fingerprintQuery(p, b));

    // The display name is cosmetic.
    const Placement renamed("SomethingElse", p.numDevices(),
                            p.blocks());
    EXPECT_EQ(fingerprintQuery(p, a), fingerprintQuery(renamed, a));
}

TEST(Fingerprint, CanonicalizationDropsNoOpModelEntries)
{
    const HeteroShape hs = makeHeteroShapeByName("V", 4);
    TesselOptions base = quickOptions();
    base.cluster = &hs.cluster;
    base.edgeMB = hs.edgeMB;
    const Hash128 fp = fingerprintQuery(hs.placement, base);

    // Trailing unit speed factors are invisible.
    ClusterModel padded = hs.cluster;
    padded.speedFactor.push_back(1.0);
    padded.speedFactor.push_back(1.0);
    TesselOptions opts = base;
    opts.cluster = &padded;
    EXPECT_EQ(fp, fingerprintQuery(hs.placement, opts));

    // Link overrides equal to the default link, or naming devices the
    // placement does not have, are no-ops for ClusterModel::link.
    ClusterModel redundant = hs.cluster;
    redundant.linkOverride[{0, 1}] = redundant.defaultLink;
    redundant.linkOverride[{40, 41}] = LinkParams{9.0, 9.0};
    opts = base;
    opts.cluster = &redundant;
    EXPECT_EQ(fp, fingerprintQuery(hs.placement, opts));

    // A *meaningful* override does move the fingerprint.
    ClusterModel meaningful = hs.cluster;
    meaningful.linkOverride[{0, 1}] =
        LinkParams{hs.cluster.defaultLink.latency + 1.0,
                   hs.cluster.defaultLink.timePerMB};
    opts = base;
    opts.cluster = &meaningful;
    EXPECT_NE(fp, fingerprintQuery(hs.placement, opts));

    // A zero-MB entry equals a missing one (both cost latency only),
    // and entries for edges the placement lacks are never read. Edge
    // (3, 4) is V-shape's same-device f3 -> b3 edge, absent from the
    // hetero map; (997, 998) is not an edge at all.
    opts = base;
    opts.edgeMB[{3, 4}] = 0.0;
    opts.edgeMB[{997, 998}] = 5.0;
    EXPECT_EQ(fp, fingerprintQuery(hs.placement, opts));

    // Trailing zero initial memory equals an absent vector.
    opts = base;
    opts.initialMem = {0, 0, 0, 0};
    EXPECT_EQ(fp, fingerprintQuery(hs.placement, opts));
}

TEST(Fingerprint, TrivialClusterEqualsNullCluster)
{
    const Placement p = makeShapeByName("NN", 4);
    TesselOptions no_cluster = quickOptions();

    ClusterModel trivial;
    trivial.speedFactor.assign(4, 1.0);
    TesselOptions with_trivial = no_cluster;
    with_trivial.cluster = &trivial;
    // The search takes the homogeneous path bit for bit for both, so
    // they must share a fingerprint (and hence a cache entry).
    EXPECT_EQ(fingerprintQuery(p, no_cluster),
              fingerprintQuery(p, with_trivial));

    ClusterModel nontrivial = trivial;
    nontrivial.speedFactor[1] = 2.0;
    TesselOptions with_real = no_cluster;
    with_real.cluster = &nontrivial;
    EXPECT_NE(fingerprintQuery(p, no_cluster),
              fingerprintQuery(p, with_real));
}

// ---------------------------------------------------- cluster deltas

// ClusterDelta has no fingerprint of its own: a replan keys the store
// by fingerprintQuery of the *applied* model. These invariances are
// what make that sound.

TEST(Fingerprint, NoOpClusterDeltaKeepsFingerprint)
{
    HeteroShape hs = makeHeteroShapeByName("V", 4);
    TesselOptions opts = quickOptions();
    opts.cluster = &hs.cluster;
    opts.edgeMB = hs.edgeMB;
    const Hash128 base = fingerprintQuery(hs.placement, opts);

    // Empty delta: applied model is a verbatim copy.
    const ClusterModel copied = applyDelta(hs.cluster, ClusterDelta{}, 4);
    TesselOptions with_copy = opts;
    with_copy.cluster = &copied;
    EXPECT_EQ(fingerprintQuery(hs.placement, with_copy), base);

    // Identity delta: re-states values the model already holds (the
    // link entry restates the default, which canonicalization drops).
    ClusterDelta noop;
    noop.speedFactor[1] = hs.cluster.speedOf(1);
    noop.link[{0, 1}] = hs.cluster.defaultLink;
    EXPECT_TRUE(!noop.empty());
    const ClusterModel applied = applyDelta(hs.cluster, noop, 4);
    TesselOptions with_noop = opts;
    with_noop.cluster = &applied;
    EXPECT_EQ(fingerprintQuery(hs.placement, with_noop), base);

    // A real drift moves the key.
    ClusterDelta drift;
    drift.speedFactor[1] = hs.cluster.speedOf(1) * 2.0;
    const ClusterModel drifted = applyDelta(hs.cluster, drift, 4);
    TesselOptions with_drift = opts;
    with_drift.cluster = &drifted;
    EXPECT_NE(fingerprintQuery(hs.placement, with_drift), base);
}

TEST(Fingerprint, DisjointClusterDeltasComposeOrderIndependently)
{
    HeteroShape hs = makeHeteroShapeByName("X", 4);
    TesselOptions opts = quickOptions();
    opts.edgeMB = hs.edgeMB;

    ClusterDelta speed;
    speed.speedFactor[0] = 2.0;
    ClusterDelta link;
    LinkParams lp;
    lp.latency = 3.0;
    lp.timePerMB = 1.0;
    link.link[{2, 3}] = lp;

    const ClusterModel ab =
        applyDelta(applyDelta(hs.cluster, speed, 4), link, 4);
    const ClusterModel ba =
        applyDelta(applyDelta(hs.cluster, link, 4), speed, 4);
    TesselOptions with_ab = opts;
    with_ab.cluster = &ab;
    TesselOptions with_ba = opts;
    with_ba.cluster = &ba;
    EXPECT_EQ(fingerprintQuery(hs.placement, with_ab),
              fingerprintQuery(hs.placement, with_ba));
}

TEST(ClusterDeltaDeathTest, OutOfRangeRemovalRejected)
{
    ClusterModel base;
    base.speedFactor.assign(4, 1.0);
    ClusterDelta bad;
    bad.removedDevices = {7};
    EXPECT_DEATH(applyDelta(base, bad, 4), "outside");
}

// ------------------------------------------------------ serialization

/** Round-trip a searched result and assert byte and value exactness. */
void
expectRoundTrip(const Placement &placement, const TesselOptions &options)
{
    const TesselResult result = tesselSearch(placement, options);
    const Hash128 fp = fingerprintQuery(placement, options);
    const std::string bytes = serializeResult(result, fp);

    const LoadedResult loaded = deserializeResult(bytes);
    ASSERT_TRUE(loaded.ok) << loaded.error;
    EXPECT_EQ(loaded.fingerprint, fp);
    EXPECT_EQ(loaded.result.found, result.found);
    EXPECT_EQ(loaded.result.period, result.period);
    EXPECT_EQ(loaded.result.lowerBound, result.lowerBound);
    EXPECT_EQ(loaded.result.nrUsed, result.nrUsed);
    EXPECT_EQ(loaded.result.commAware, result.commAware);
    EXPECT_TRUE(loaded.result.plan == result.plan);
    EXPECT_EQ(loaded.result.expansion.has_value(),
              result.expansion.has_value());
    if (result.expansion && loaded.result.expansion) {
        EXPECT_TRUE(loaded.result.expansion->placement ==
                    result.expansion->placement);
        EXPECT_EQ(loaded.result.expansion->origSpec,
                  result.expansion->origSpec);
        EXPECT_EQ(loaded.result.expansion->indexSpec,
                  result.expansion->indexSpec);
        EXPECT_EQ(loaded.result.expansion->linkEndpoints,
                  result.expansion->linkEndpoints);
    }

    // Byte-exact re-serialization: the strongest round-trip statement.
    EXPECT_EQ(serializeResult(loaded.result, loaded.fingerprint), bytes);

    // Found plans must still instantiate and agree on the makespan.
    if (result.found) {
        const int n = result.plan.minMicrobatches() + 1;
        EXPECT_EQ(loaded.result.plan.makespanFor(n),
                  result.plan.makespanFor(n));
    }
}

TEST(Serialize, ReferenceShapesRoundTrip)
{
    for (const char *shape : {"V", "X", "M", "NN", "K"})
        expectRoundTrip(makeShapeByName(shape, 4), quickOptions());
}

TEST(Serialize, CommAwareRoundTrip)
{
    const HeteroShape hs = makeHeteroShapeByName("V", 4);
    TesselOptions opts = quickOptions();
    opts.cluster = &hs.cluster;
    opts.edgeMB = hs.edgeMB;
    expectRoundTrip(hs.placement, opts);
}

/** Random placements via the differential oracle's generator. */
Placement
placementFromSolver(const SolverProblem &sp, const std::string &name)
{
    std::vector<BlockSpec> blocks;
    blocks.reserve(sp.blocks.size());
    for (size_t i = 0; i < sp.blocks.size(); ++i) {
        const SolverBlock &b = sp.blocks[i];
        BlockSpec spec;
        spec.name = "b" + std::to_string(i);
        spec.kind = b.memory < 0 ? BlockKind::Backward : BlockKind::Forward;
        spec.devices = b.devices;
        spec.span = b.span;
        spec.memory = b.memory;
        spec.deps = b.deps;
        blocks.push_back(std::move(spec));
    }
    return Placement(name, sp.numDevices, std::move(blocks));
}

TEST(Serialize, PropertyRandomInstancesRoundTripByteExact)
{
    Rng rng(0x9d5ce5u);
    RandomInstanceParams params;
    params.minBlocks = 3;
    params.maxBlocks = 7;
    params.maxDevices = 3;
    TesselOptions opts = quickOptions();
    opts.totalBudgetSec = 1.0;
    for (int trial = 0; trial < 30; ++trial) {
        params.withComm = trial % 3 == 0;
        const SolverProblem sp = randomInstance(rng, params);
        const Placement p = placementFromSolver(
            sp, "rand" + std::to_string(trial));
        SCOPED_TRACE(p.name());
        expectRoundTrip(p, opts);
    }
}

TEST(Serialize, WideCommAwareInstanceRoundTrips)
{
    // Sparse 71-device chain: with its two link pseudo-devices the
    // expanded placement's masks live past bit 64, exercising the
    // multi-word canonical paths end to end.
    std::vector<BlockSpec> blocks;
    const int devs[] = {0, 40, 70};
    for (int i = 0; i < 3; ++i) {
        BlockSpec f;
        f.name = "f" + std::to_string(i);
        f.devices = oneDevice(devs[i]);
        f.span = 2;
        f.memory = 1;
        if (i > 0)
            f.deps = {i - 1};
        blocks.push_back(f);
    }
    for (int i = 2; i >= 0; --i) {
        BlockSpec b;
        b.name = "b" + std::to_string(i);
        b.kind = BlockKind::Backward;
        b.devices = oneDevice(devs[i]);
        b.span = 3;
        b.memory = -1;
        b.deps = {i == 2 ? 2 : 3 + (2 - i) - 1};
        blocks.push_back(b);
    }
    const Placement p("wideV", 71, blocks);

    ClusterModel cluster = ClusterModel::uniformLink(71, {1.0, 0.25});
    cluster.speedFactor[40] = 1.5;
    TesselOptions opts = quickOptions();
    opts.cluster = &cluster;
    opts.edgeMB = crossDeviceEdgeMB(p, 4.0);

    // Confirm this instance really crosses the 64-resource line.
    EXPECT_GT(commResourceDemand(p, cluster, opts.edgeMB, opts.comm), 64);
    expectRoundTrip(p, opts);
}

TEST(Serialize, NotFoundResultRoundTrips)
{
    TesselResult result; // found = false, empty plan.
    result.breakdown.candidatesEnumerated = 3;
    const Hash128 fp{123, 456};
    const std::string bytes = serializeResult(result, fp);
    const LoadedResult loaded = deserializeResult(bytes);
    ASSERT_TRUE(loaded.ok) << loaded.error;
    EXPECT_FALSE(loaded.result.found);
    EXPECT_EQ(serializeResult(loaded.result, loaded.fingerprint), bytes);
}

TEST(Serialize, ReferencePlanDigestsPinned)
{
    // plan_hash (resultPlanDigest) hashes the serialized bytes, so these
    // pins fail if either the wire format or the searched plan moves.
    // Both instances finish in milliseconds, far inside their budget.
    const struct
    {
        const char *shape;
        const char *digest;
    } pins[] = {
        {"V", "51a433be64ed8cc318ece4f48337c2d1"},
        {"K", "6d0e8dc2917b16cb9e294a3d346af46e"},
    };
    for (const auto &pin : pins) {
        PlanQuery q = *referenceShapeQuery(pin.shape, "homogeneous", 4, 10.0);
        q.options.numThreads = 1; // Plan-invariant; keeps the test serial.
        const TesselResult result = tesselSearch(q.placement, q.options);
        ASSERT_TRUE(result.found) << pin.shape;
        ASSERT_FALSE(result.breakdown.budgetExhausted) << pin.shape;
        EXPECT_EQ(resultPlanDigest(result).hex(), pin.digest) << pin.shape;
    }

    // The breakdown block keeps its layout too, including the zero word
    // left in the retired probe-counter slot.
    TesselResult not_found;
    not_found.breakdown.candidatesEnumerated = 3;
    not_found.breakdown.candidatesSolved = 5;
    not_found.breakdown.solverNodes = 7;
    not_found.breakdown.memoReused = 11;
    not_found.breakdown.threadsUsed = 2;
    EXPECT_EQ(hashBytes(serializeResult(not_found, Hash128{123, 456})).hex(),
              "270eb0cd79ffecdd1f0a6f4e97586dd1");
}

// -------------------------------------------- corruption & versioning

TEST(Serialize, TruncationAlwaysRejected)
{
    const Placement p = makeShapeByName("V", 4);
    const TesselOptions opts = quickOptions();
    const TesselResult result = tesselSearch(p, opts);
    const std::string bytes =
        serializeResult(result, fingerprintQuery(p, opts));

    for (size_t len = 0; len < bytes.size();
         len += (len < 64 ? 1 : 37)) {
        const LoadedResult loaded =
            deserializeResult(bytes.substr(0, len));
        EXPECT_FALSE(loaded.ok) << "accepted a " << len
                                << "-byte truncation";
    }
}

TEST(Serialize, BitFlipsAlwaysRejected)
{
    const Placement p = makeShapeByName("K", 4);
    const TesselOptions opts = quickOptions();
    const TesselResult result = tesselSearch(p, opts);
    std::string bytes = serializeResult(result, fingerprintQuery(p, opts));

    // Every byte outside the fingerprint field (offsets [12, 28), which
    // is identification, not payload) is protected by the magic, the
    // version check, the length check, or the payload checksum.
    for (size_t off = 0; off < bytes.size(); ++off) {
        if (off >= 12 && off < 28)
            continue;
        std::string mutated = bytes;
        mutated[off] = static_cast<char>(mutated[off] ^ 0x40);
        const LoadedResult loaded = deserializeResult(mutated);
        EXPECT_FALSE(loaded.ok) << "accepted bit flip at offset " << off;
    }
}

TEST(Serialize, VersionBumpRejectedWithCleanError)
{
    const Placement p = makeShapeByName("V", 4);
    const TesselOptions opts = quickOptions();
    std::string bytes = serializeResult(tesselSearch(p, opts),
                                        fingerprintQuery(p, opts));
    bytes[kPlanVersionOffset] =
        static_cast<char>(kPlanFormatVersion + 1);
    const LoadedResult loaded = deserializeResult(bytes);
    EXPECT_FALSE(loaded.ok);
    EXPECT_NE(loaded.error.find("unsupported plan format version"),
              std::string::npos)
        << loaded.error;
}

TEST(Serialize, GarbageRejected)
{
    EXPECT_FALSE(deserializeResult("").ok);
    EXPECT_FALSE(deserializeResult("short").ok);
    EXPECT_FALSE(deserializeResult(std::string(4096, '\x5a')).ok);
}

TEST(Serialize, HostileMagnitudesRejected)
{
    // A well-formed entry may still carry absurd values; the decoder
    // must bound them so verification arithmetic stays in int64 and
    // allocations stay sane.
    const Placement p = makeShapeByName("V", 4);
    const int k = p.numBlocks();

    // Tiny plan claiming NR = 2^26: instantiating NR + 1 micro-batches
    // would need k * (2^26 + 1) start slots.
    RepetendAssignment huge_nr;
    huge_nr.r.assign(k, 0);
    huge_nr.numMicrobatches = 1 << 26;
    TesselResult hostile;
    hostile.found = true;
    hostile.plan = TesselPlan(p, huge_nr, std::vector<Time>(k, 0), 1, 1,
                              {}, {}, {}, {}, kUnlimitedMem, {});
    hostile.period = 1;
    LoadedResult loaded =
        deserializeResult(serializeResult(hostile, Hash128{}));
    EXPECT_FALSE(loaded.ok);
    EXPECT_NE(loaded.error.find("instance count"), std::string::npos)
        << loaded.error;

    // Window starts near int64 max would overflow the stride sums.
    RepetendAssignment small;
    small.r.assign(k, 0);
    small.numMicrobatches = 1;
    hostile.plan = TesselPlan(
        p, small, std::vector<Time>(k, Time{1} << 50), 1, 1, {}, {}, {},
        {}, kUnlimitedMem, {});
    loaded = deserializeResult(serializeResult(hostile, Hash128{}));
    EXPECT_FALSE(loaded.ok);
}

// ------------------------------------------------------- verification

TEST(Verify, AcceptsMatchingAndRejectsMismatchedQuery)
{
    const Placement p = makeShapeByName("V", 4);
    const TesselOptions opts = quickOptions();
    const TesselResult result = tesselSearch(p, opts);
    ASSERT_TRUE(result.found);

    EXPECT_TRUE(verifyResultAgainstQuery(p, opts, result).ok);

    // Same options, structurally different placement: the stored plan
    // does not schedule this query.
    const Placement other = makeShapeByName("X", 4);
    const VerifyOutcome mismatch =
        verifyResultAgainstQuery(other, opts, result);
    EXPECT_FALSE(mismatch.ok);
    EXPECT_FALSE(mismatch.reason.empty());

    // Comm-awareness mismatch is detected before any expensive work.
    const HeteroShape hs = makeHeteroShapeByName("V", 4);
    TesselOptions comm_opts = quickOptions();
    comm_opts.cluster = &hs.cluster;
    comm_opts.edgeMB = hs.edgeMB;
    EXPECT_FALSE(
        verifyResultAgainstQuery(hs.placement, comm_opts, result).ok);
}

TEST(Verify, RenamedQueryServedByStructurallyEqualEntry)
{
    // The fingerprint excludes display names, so a query differing only
    // in names maps to the same cache entry — verification must accept
    // it (structural comparison), not thrash on the name mismatch.
    const Placement p = makeShapeByName("V", 4);
    const TesselOptions opts = quickOptions();
    const TesselResult result = tesselSearch(p, opts);
    ASSERT_TRUE(result.found);

    std::vector<BlockSpec> renamed_blocks = p.blocks();
    for (size_t i = 0; i < renamed_blocks.size(); ++i)
        renamed_blocks[i].name = "other" + std::to_string(i);
    const Placement renamed("RenamedV", p.numDevices(), renamed_blocks);
    ASSERT_EQ(fingerprintQuery(p, opts), fingerprintQuery(renamed, opts));

    const VerifyOutcome verdict =
        verifyResultAgainstQuery(renamed, opts, result);
    EXPECT_TRUE(verdict.ok) << verdict.reason;

    // End to end: the disk entry stored under the original name answers
    // the renamed query.
    std::string dir;
    ASSERT_TRUE(makeTempDir("tessel-store-rename-", &dir));
    const Hash128 fp = fingerprintQuery(p, opts);
    {
        PlanCache cache(dir);
        cache.put(fp, result);
    }
    PlanCache cache(dir);
    PlanCache::Source source;
    ASSERT_TRUE(cache.get(fp, renamed, opts, &source).has_value());
    EXPECT_EQ(source, PlanCache::Source::Disk);
    EXPECT_EQ(cache.stats().verifyFailures, 0u);
}

TEST(Verify, TamperedPlanRejectedByOracle)
{
    const Placement p = makeShapeByName("V", 4);
    const TesselOptions opts = quickOptions();
    const TesselResult result = tesselSearch(p, opts);
    ASSERT_TRUE(result.found);

    // Rebuild the plan with a shrunken period: instances overlap, which
    // the oracle's exclusivity check must catch (tryInstantiate reports
    // the inconsistency instead of panicking).
    const TesselPlan &plan = result.plan;
    TesselResult tampered = result;
    tampered.plan = TesselPlan(
        plan.placement(), plan.assignment(), plan.windowStart(),
        std::max<Time>(1, plan.period() / 2), plan.windowSpan(),
        plan.warmupRefs(), plan.warmupStarts(), plan.cooldownRefs(),
        plan.cooldownStarts(), plan.memLimit(), plan.initialMem());
    tampered.period = tampered.plan.period();
    const VerifyOutcome verdict =
        verifyResultAgainstQuery(p, opts, tampered);
    EXPECT_FALSE(verdict.ok);
    EXPECT_FALSE(verdict.reason.empty());
}

// ---------------------------------------------------------- PlanCache

TEST(PlanCache, MemoryDiskAndVerifyFailurePaths)
{
    std::string dir;
    ASSERT_TRUE(makeTempDir("tessel-store-test-", &dir));

    const Placement p = makeShapeByName("M", 4);
    const TesselOptions opts = quickOptions();
    const Hash128 fp = fingerprintQuery(p, opts);
    const TesselResult result = tesselSearch(p, opts);
    ASSERT_TRUE(result.found);

    {
        PlanCache cache(dir);
        EXPECT_FALSE(cache.get(fp, p, opts).has_value());
        EXPECT_EQ(cache.stats().misses, 1u);

        cache.put(fp, result);
        PlanCache::Source source;
        const auto hit = cache.get(fp, p, opts, &source);
        ASSERT_TRUE(hit.has_value());
        EXPECT_EQ(source, PlanCache::Source::Memory);
        EXPECT_TRUE(hit->plan == result.plan);
    }

    {
        // Fresh cache, same dir: the disk tier answers, after oracle
        // verification.
        PlanCache cache(dir);
        PlanCache::Source source;
        const auto hit = cache.get(fp, p, opts, &source);
        ASSERT_TRUE(hit.has_value());
        EXPECT_EQ(source, PlanCache::Source::Disk);
        EXPECT_TRUE(hit->plan == result.plan);
        EXPECT_EQ(cache.stats().diskHits, 1u);

        // A mismatched query must NOT be served the entry even though
        // the fingerprint collides by construction here — and the
        // rejected entry is garbage-collected on the spot.
        const bool prev = setLogVerbose(false);
        PlanCache fresh(dir);
        const Placement other = makeShapeByName("NN", 4);
        EXPECT_FALSE(fresh.get(fp, other, opts).has_value());
        setLogVerbose(prev);
        EXPECT_EQ(fresh.stats().verifyFailures, 1u);
        EXPECT_FALSE(fresh.store().has(fp));
        EXPECT_GE(fresh.stats().gcRemoved, 1u);
    }

    {
        // Corrupt the payload on disk: rejected, counted, miss. (The
        // verify failure above removed the entry; publish it again.)
        {
            PlanCache republish(dir);
            republish.put(fp, result);
        }
        PlanStore store(dir);
        std::string bytes, err;
        ASSERT_TRUE(readFile(store.pathFor(fp), &bytes, &err)) << err;
        bytes[bytes.size() / 2] ^= 0x1;
        ASSERT_TRUE(writeFileAtomic(store.pathFor(fp), bytes, &err))
            << err;

        const bool prev = setLogVerbose(false);
        PlanCache cache(dir);
        EXPECT_FALSE(cache.get(fp, p, opts).has_value());
        setLogVerbose(prev);
        EXPECT_EQ(cache.stats().verifyFailures, 1u);
    }
}

TEST(PlanCache, ResidentDigestMatchesServedResult)
{
    std::string dir;
    ASSERT_TRUE(makeTempDir("tessel-store-resident-", &dir));
    // One slot in one shard, so a second admission evicts the first.
    PlanCacheOptions cache_opts;
    cache_opts.memoryCapacity = 1;
    cache_opts.shards = 1;
    PlanCache cache(dir, cache_opts);

    const Placement p = makeShapeByName("V", 4);
    const TesselOptions opts = quickOptions();
    const Hash128 fp = fingerprintQuery(p, opts);
    const TesselResult result = tesselSearch(p, opts);
    ASSERT_TRUE(result.found);
    const Hash128 digest = resultPlanDigest(result);

    // After put: the resident carries the digest, and a hit shares the
    // resident itself rather than a copy.
    const SharedPlan admitted = cache.put(fp, p, opts, result);
    EXPECT_EQ(admitted.digest, digest);
    PlanCache::Source source;
    const SharedPlan hit = cache.getShared(fp, p, opts, &source);
    ASSERT_TRUE(hit);
    EXPECT_EQ(source, PlanCache::Source::Memory);
    EXPECT_EQ(hit.result, admitted.result);
    EXPECT_EQ(hit.digest, resultPlanDigest(*hit.result));
    const std::optional<TesselResult> copy = cache.get(fp, p, opts);
    ASSERT_TRUE(copy.has_value());
    EXPECT_EQ(resultPlanDigest(*copy), digest);

    // After eviction and reload: the verified disk load is digested on
    // admission and the next hit shares that new resident.
    TesselOptions other = opts;
    other.memLimit = 10;
    cache.put(fingerprintQuery(p, other), p, other, tesselSearch(p, other));
    EXPECT_EQ(cache.stats().evictions, 1u);
    const SharedPlan reloaded = cache.getShared(fp, p, opts, &source);
    ASSERT_TRUE(reloaded);
    EXPECT_EQ(source, PlanCache::Source::Disk);
    EXPECT_EQ(reloaded.digest, digest);
    EXPECT_EQ(reloaded.digest, resultPlanDigest(*reloaded.result));
    EXPECT_EQ(cache.getShared(fp, p, opts, &source).result,
              reloaded.result);
    EXPECT_EQ(source, PlanCache::Source::Memory);

    // After a verified disk load in a fresh cache (a new process).
    PlanCache fresh(dir);
    const SharedPlan loaded = fresh.getShared(fp, p, opts, &source);
    ASSERT_TRUE(loaded);
    EXPECT_EQ(source, PlanCache::Source::Disk);
    EXPECT_EQ(loaded.digest, digest);
    EXPECT_EQ(loaded.digest, resultPlanDigest(*loaded.result));
}

TEST(PlanCache, LruEvictsBeyondCapacity)
{
    std::string dir;
    ASSERT_TRUE(makeTempDir("tessel-store-lru-", &dir));
    PlanCacheOptions cache_opts;
    cache_opts.memoryCapacity = 2;
    // One shard = one global LRU order, so "capacity 2, third insert
    // evicts the oldest" holds exactly; with multiple shards the
    // entries could land apart and nothing would need evicting.
    cache_opts.shards = 1;
    PlanCache cache(dir, cache_opts);

    const Placement p = makeShapeByName("V", 4);
    TesselOptions opts = quickOptions();
    std::vector<Hash128> fps;
    for (int i = 0; i < 3; ++i) {
        opts.memLimit = 10 + i; // Three distinct instances.
        const Hash128 fp = fingerprintQuery(p, opts);
        fps.push_back(fp);
        cache.put(fp, tesselSearch(p, opts));
    }
    EXPECT_EQ(cache.stats().evictions, 1u);

    // The evicted (oldest) entry falls back to the disk tier.
    opts.memLimit = 10;
    PlanCache::Source source;
    ASSERT_TRUE(cache.get(fps[0], p, opts, &source).has_value());
    EXPECT_EQ(source, PlanCache::Source::Disk);
}

TEST(PlanCache, MemoryCapacityHonoredBelowShardCount)
{
    // The requested capacity must be the *total* evictable capacity no
    // matter how it relates to the shard count: historically a capacity
    // below `shards` rounded each shard up to one entry, silently
    // holding `shards` results instead of `memoryCapacity`.
    std::string dir;
    ASSERT_TRUE(makeTempDir("tessel-store-cap-", &dir));

    const struct
    {
        size_t capacity;
        size_t shards;
    } cases[] = {{2, 8}, {1, 8}, {5, 4}, {8, 8}, {3, 1}, {0, 8}};
    for (const auto &c : cases) {
        PlanCacheOptions cache_opts;
        cache_opts.memoryCapacity = c.capacity;
        cache_opts.shards = c.shards;
        PlanCache cache(dir, cache_opts);
        EXPECT_EQ(cache.memoryCapacity(),
                  std::max<size_t>(1, c.capacity))
            << "capacity " << c.capacity << ", shards " << c.shards;
    }

    // Behavioral check: capacity 2 under 8 requested shards keeps at
    // most 2 results in memory — the third insert must evict.
    PlanCacheOptions cache_opts;
    cache_opts.memoryCapacity = 2;
    cache_opts.shards = 8;
    PlanCache cache(dir, cache_opts);
    const Placement p = makeShapeByName("V", 4);
    TesselOptions opts = quickOptions();
    std::vector<Hash128> fps;
    std::vector<TesselOptions> variants;
    for (int i = 0; i < 3; ++i) {
        opts.memLimit = 20 + i;
        fps.push_back(fingerprintQuery(p, opts));
        variants.push_back(opts);
        cache.put(fps.back(), tesselSearch(p, opts));
    }
    EXPECT_GE(cache.stats().evictions, 1u);
    size_t in_memory = 0;
    for (size_t i = 0; i < fps.size(); ++i) {
        PlanCache::Source source;
        ASSERT_TRUE(cache.get(fps[i], p, variants[i], &source).has_value());
        in_memory += source == PlanCache::Source::Memory ? 1 : 0;
    }
    EXPECT_LE(in_memory, 2u);
}

TEST(PlanCache, OrphanMetaSidecarSkippedAndDeletedOnOpen)
{
    std::string dir;
    ASSERT_TRUE(makeTempDir("tessel-store-orphan-", &dir));

    const Placement p = makeShapeByName("V", 4);
    const TesselOptions opts = quickOptions();
    const Hash128 fp = fingerprintQuery(p, opts);
    const TesselResult result = tesselSearch(p, opts);
    ASSERT_TRUE(result.found);

    {
        PlanCache cache(dir);
        cache.put(fp, p, opts, result);
    }

    // Delete only the .plan, stranding the .meta sidecar — the state a
    // crash between the two removals (or an external cleanup) leaves.
    PlanStore store(dir);
    ASSERT_TRUE(removeFile(store.pathFor(fp)));
    ASSERT_TRUE(fileExists(store.metaPathFor(fp)));

    // A fresh cache must not index the phantom instance; it deletes the
    // orphan sidecar instead of seeding the neighbor index with an
    // entry whose plan can never be fetched.
    PlanCache cache(dir);
    EXPECT_EQ(cache.indexedInstances(), 0u);
    EXPECT_FALSE(fileExists(store.metaPathFor(fp)));
    EXPECT_GE(cache.stats().gcRemoved, 1u);
    EXPECT_FALSE(cache.get(fp, p, opts).has_value());
}

TEST(PlanCache, RevalidationSweepDropsRottenEntries)
{
    std::string dir;
    ASSERT_TRUE(makeTempDir("tessel-store-reval-", &dir));

    const Placement p = makeShapeByName("V", 4);
    TesselOptions opts = quickOptions();
    const Hash128 good_fp = fingerprintQuery(p, opts);
    const TesselResult good = tesselSearch(p, opts);
    ASSERT_TRUE(good.found);
    opts.memLimit = 30;
    const Hash128 bad_fp = fingerprintQuery(p, opts);
    const TesselResult bad = tesselSearch(p, opts);
    ASSERT_TRUE(bad.found);

    PlanCache cache(dir);
    cache.put(good_fp, p, quickOptions(), good);
    cache.put(bad_fp, p, opts, bad);

    // Rot one entry on disk behind the cache's back.
    {
        PlanStore store(dir);
        std::string bytes, err;
        ASSERT_TRUE(readFile(store.pathFor(bad_fp), &bytes, &err)) << err;
        bytes[bytes.size() / 2] ^= 0x1;
        ASSERT_TRUE(writeFileAtomic(store.pathFor(bad_fp), bytes, &err))
            << err;
    }

    const bool prev = setLogVerbose(false);
    const size_t removed = cache.revalidateOnce();
    setLogVerbose(prev);
    EXPECT_GE(removed, 1u);
    EXPECT_GE(cache.stats().revalidated, 1u);
    EXPECT_GE(cache.stats().gcRemoved, 1u);

    // The rotten entry (and its sidecar) are gone; the good one still
    // serves — and a second sweep finds nothing left to collect.
    PlanStore store(dir);
    EXPECT_FALSE(store.has(bad_fp));
    EXPECT_FALSE(fileExists(store.metaPathFor(bad_fp)));
    EXPECT_TRUE(store.has(good_fp));
    const bool prev2 = setLogVerbose(false);
    EXPECT_EQ(cache.revalidateOnce(), 0u);
    setLogVerbose(prev2);
    PlanCache fresh(dir);
    EXPECT_TRUE(fresh.get(good_fp, p, quickOptions()).has_value());
}

TEST(PlanCache, ExportedStoreSeriesSumLiveCacheStats)
{
    std::string dir;
    ASSERT_TRUE(makeTempDir("tessel-store-metrics-", &dir));

    const Placement p = makeShapeByName("M", 4);
    const TesselOptions opts = quickOptions();
    const Hash128 fp = fingerprintQuery(p, opts);
    const TesselResult result = tesselSearch(p, opts);
    ASSERT_TRUE(result.found);

    // Two live caches on one directory, each with its own history.
    PlanCache a(dir);
    auto b = std::make_unique<PlanCache>(dir);
    EXPECT_FALSE(a.get(fp, p, opts).has_value()); // a: miss
    a.put(fp, p, opts, result);                    // a: store
    EXPECT_TRUE(a.get(fp, p, opts).has_value());  // a: memory hit
    EXPECT_TRUE(b->get(fp, p, opts).has_value()); // b: disk hit
    EXPECT_TRUE(b->get(fp, p, opts).has_value()); // b: memory hit
    EXPECT_NE(b->peekShared(fp), nullptr);        // b: neighbor fetch
    EXPECT_EQ(b->revalidateOnce(), 0u);           // b: revalidated

    const std::pair<const char *, uint64_t StoreStats::*> series[] = {
        {"store.memory_hits", &StoreStats::memoryHits},
        {"store.disk_hits", &StoreStats::diskHits},
        {"store.misses", &StoreStats::misses},
        {"store.stores", &StoreStats::stores},
        {"store.verify_failures", &StoreStats::verifyFailures},
        {"store.evictions", &StoreStats::evictions},
        {"store.lock_contended", &StoreStats::lockContended},
        {"store.neighbor_fetches", &StoreStats::neighborFetches},
        {"store.revalidated", &StoreStats::revalidated},
        {"store.gc_removed", &StoreStats::gcRemoved},
    };
    auto exported = [](const std::string &name) -> int64_t {
        for (const MetricSample &s :
             MetricsRegistry::instance().snapshot().samples)
            if (s.name == name)
                return static_cast<int64_t>(s.counterValue);
        return -1;
    };
    const StoreStats sa = a.stats(), sb = b->stats();
    EXPECT_EQ(sa.misses + sa.stores + sa.memoryHits, 3u);
    EXPECT_EQ(sb.diskHits + sb.memoryHits + sb.neighborFetches, 3u);
    EXPECT_EQ(sb.revalidated, 1u);
    for (const auto &entry : series)
        EXPECT_EQ(exported(entry.first),
                  static_cast<int64_t>(sa.*entry.second + sb.*entry.second))
            << entry.first;

    // A destroyed cache drops out of the sum.
    b.reset();
    for (const auto &entry : series)
        EXPECT_EQ(exported(entry.first),
                  static_cast<int64_t>(sa.*entry.second))
            << entry.first;
}

} // namespace
} // namespace tessel
