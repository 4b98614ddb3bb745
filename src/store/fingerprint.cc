#include "store/fingerprint.h"

#include <algorithm>

namespace tessel {

namespace {

/** Domain separator so fingerprints can never collide with payload
 * checksums (which seed hashBytes with 0). */
constexpr uint64_t kFingerprintDomain = 0x5445535345'4c4650ull; // "TESSELFP"

/** Component-digest domains: each sub-fingerprint hashes the same
 * canonical field sequence as the full fingerprint but under its own
 * seed, so components can never alias each other or the full digest. */
constexpr uint64_t kPlacementDomain = 0x5445535345'4c5043ull; // "TESSELPC"
constexpr uint64_t kClusterDomain = 0x5445535345'4c434cull;   // "TESSELCL"
constexpr uint64_t kOptionsDomain = 0x5445535345'4c4f50ull;   // "TESSELOP"

/** Phase-completion digest domain (phaseOptionsDigest). */
constexpr uint64_t kPhaseDomain = 0x5445535345'4c5048ull; // "TESSELPH"

void
hashPlacement(Hasher &h, const Placement &p)
{
    // The display name is cosmetic — two structurally identical
    // placements are the same search input whatever they are called.
    h.addI32(p.numDevices());
    h.addI32(p.numBlocks());
    for (int i = 0; i < p.numBlocks(); ++i) {
        const BlockSpec &b = p.block(i);
        h.addI32(static_cast<int32_t>(b.kind));
        h.addI64(b.span);
        h.addI64(b.memory);
        h.addResourceSet(b.devices);
        h.addU64(b.deps.size());
        for (int dep : b.deps)
            h.addI32(dep);
    }
}

/** @return true when edge (producer, consumer) exists in @p p. */
bool
placementHasEdge(const Placement &p, int producer, int consumer)
{
    if (consumer < 0 || consumer >= p.numBlocks())
        return false;
    const std::vector<int> &deps = p.block(consumer).deps;
    return std::find(deps.begin(), deps.end(), producer) != deps.end();
}

void
hashCommModel(Hasher &h, const Placement &p, const TesselOptions &o)
{
    const int nd = p.numDevices();
    const ClusterModel &cluster = *o.cluster;

    // Speed factors: trailing 1.0 entries are invisible (speedOf
    // returns 1.0 past the vector).
    size_t speeds = cluster.speedFactor.size();
    while (speeds > 0 && cluster.speedFactor[speeds - 1] == 1.0)
        --speeds;
    h.addU64(speeds);
    for (size_t d = 0; d < speeds; ++d)
        h.addDouble(cluster.speedFactor[d]);

    h.addDouble(cluster.defaultLink.latency);
    h.addDouble(cluster.defaultLink.timePerMB);

    // Link overrides in map (= sorted key) order; entries equal to the
    // default link or naming a device the placement does not have are
    // no-ops for ClusterModel::link and are dropped.
    for (const auto &[pair, lp] : cluster.linkOverride) {
        if (pair.first < 0 || pair.second < 0 || pair.first >= nd ||
            pair.second >= nd) {
            continue;
        }
        if (lp.latency == cluster.defaultLink.latency &&
            lp.timePerMB == cluster.defaultLink.timePerMB) {
            continue;
        }
        h.addI32(pair.first);
        h.addI32(pair.second);
        h.addDouble(lp.latency);
        h.addDouble(lp.timePerMB);
    }
    h.addU64(0xfeedu); // Terminator: override list vs what follows.

    // Edge volumes in map order; a zero-MB entry equals a missing one
    // (both transfer latency only), and entries for edges the placement
    // does not contain are never read by expandWithComm.
    for (const auto &[edge, mb] : o.edgeMB) {
        if (mb == 0.0 || !placementHasEdge(p, edge.first, edge.second))
            continue;
        h.addI32(edge.first);
        h.addI32(edge.second);
        h.addDouble(mb);
    }
    h.addU64(0xfeedu);

    h.addI32(static_cast<int32_t>(o.comm.granularity));
}

void
hashOptions(Hasher &h, const TesselOptions &options)
{
    h.addI64(options.memLimit);
    // Trailing zero initial-memory entries equal an absent vector.
    size_t mems = options.initialMem.size();
    while (mems > 0 && options.initialMem[mems - 1] == 0)
        --mems;
    h.addU64(mems);
    for (size_t d = 0; d < mems; ++d)
        h.addI64(options.initialMem[d]);

    h.addI32(options.maxRepetendMicrobatches);
    h.addBool(options.lazy);
    h.addU64(options.phaseNodeLimit);
    // numThreads, cancel, the warm-start seed, and the three wall
    // budgets are plan-invariant by the search's contracts and
    // deliberately not hashed: a search a deadline cut short is
    // flagged and never stored, so every stored plan is the one the
    // node cap alone determines.
}

/** The comm-aware predicate of core/search.cc. */
bool
queryIsCommAware(const Placement &placement, const TesselOptions &options)
{
    return options.cluster &&
           !options.cluster->isTrivial(placement.numDevices());
}

} // namespace

Hash128
fingerprintQuery(const Placement &placement, const TesselOptions &options)
{
    Hasher h(kFingerprintDomain);
    h.addU64(kFingerprintVersion);

    hashPlacement(h, placement);
    hashOptions(h, options);

    // The search goes comm-aware exactly when a non-trivial cluster is
    // present (core/search.cc); a null and a trivial model both take
    // the homogeneous path bit for bit, so they share a fingerprint and
    // the edge volumes / granularity are unread.
    const bool comm_aware = queryIsCommAware(placement, options);
    h.addBool(comm_aware);
    if (comm_aware)
        hashCommModel(h, placement, options);

    return h.digest();
}

SubFingerprints
subFingerprintsQuery(const Placement &placement,
                     const TesselOptions &options)
{
    SubFingerprints out;
    {
        Hasher h(kPlacementDomain);
        h.addU64(kFingerprintVersion);
        hashPlacement(h, placement);
        out.placement = h.digest();
    }
    {
        // Null and trivial models share the homogeneous sentinel digest
        // for the same reason they share a full fingerprint.
        Hasher h(kClusterDomain);
        h.addU64(kFingerprintVersion);
        const bool comm_aware = queryIsCommAware(placement, options);
        h.addBool(comm_aware);
        if (comm_aware)
            hashCommModel(h, placement, options);
        out.cluster = h.digest();
    }
    {
        Hasher h(kOptionsDomain);
        h.addU64(kFingerprintVersion);
        hashOptions(h, options);
        out.options = h.digest();
    }
    return out;
}

Hash128
phaseOptionsDigest(const TesselOptions &options)
{
    Hasher h(kPhaseDomain);
    h.addU64(kFingerprintVersion);

    // The node cap first: completeRepetendPlan runs each phase
    // minimize under phaseNodeLimit, and a capped minimize returns its
    // best-so-far, so moving the cap can move the phase schedules. The
    // wall budgets cannot: a completion they cut is never stored.
    h.addU64(options.phaseNodeLimit);

    // Memory shapes the phase instances themselves.
    h.addI64(options.memLimit);
    size_t mems = options.initialMem.size();
    while (mems > 0 && options.initialMem[mems - 1] == 0)
        --mems;
    h.addU64(mems);
    for (size_t d = 0; d < mems; ++d)
        h.addI64(options.initialMem[d]);

    // Lazy vs eager picks a different completion call site but the same
    // computation; hashed anyway — it is one bit and keeps the digest
    // conservative.
    h.addBool(options.lazy);

    return h.digest();
}

} // namespace tessel
