/**
 * @file
 * Similarity layer over the plan store: per-instance metadata (component
 * sub-fingerprints plus a cheap numeric feature vector) persisted as the
 * meta frame that ends each store entry (store/store.h), and an
 * in-memory NeighborIndex answering "which stored instances most
 * resemble this missed query?".
 *
 * The feature vector summarizes the lowered instance in a handful of
 * scalars — device/block/stage counts, work totals, a log-bucketed span
 * histogram, the memory cap, the NR sweep cap, and a link-speed summary
 * of the cluster model — so distance evaluation is a few dozen floating
 * point operations per stored instance. The index is a linear scan:
 * plan stores hold hundreds to thousands of entries, where a scan is
 * both faster and simpler than any tree structure, and results are
 * deterministic (ties broken by fingerprint).
 *
 * Nothing here decides correctness: a neighbor is only a *hint*, and
 * store/adapt.h re-verifies every adapted plan against the query before
 * it can influence a search (which the seed-only-prunes invariant then
 * keeps bit-identical to cold anyway).
 */

#ifndef TESSEL_STORE_NEIGHBOR_H
#define TESSEL_STORE_NEIGHBOR_H

#include <array>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "store/fingerprint.h"

namespace tessel {

/** Meta frame format version (bump on any layout change). */
constexpr uint32_t kMetaFormatVersion = 1;

/** Magic prefix of every meta frame. */
constexpr char kMetaMagic[8] = {'T', 'E', 'S', 'S', 'E', 'L', 'N', 'M'};

/** Number of scalar features per instance. */
constexpr size_t kFeatureCount = 16;

/** Feature-vector slots (all stored as doubles). */
enum InstanceFeature : size_t {
    kFeatDevices = 0,    ///< real device count
    kFeatBlocks,         ///< block-spec count (original placement)
    kFeatStages,         ///< distinct device masks among blocks
    kFeatTotalWork,      ///< sum of spans
    kFeatCriticalPath,   ///< longest dependency chain
    kFeatNrCap,          ///< maxRepetendMicrobatches
    kFeatMemLimit,       ///< memLimit clamped to kMemLimitFeatureCap
    kFeatSpanHist0,      ///< span histogram, log2 bucket [1, 2)
    kFeatSpanHist1,      ///< bucket [2, 4)
    kFeatSpanHist2,      ///< bucket [4, 8)
    kFeatSpanHist3,      ///< bucket [8, inf)
    kFeatLinkLatency,    ///< default link latency (0 when homogeneous)
    kFeatLinkTimePerMB,  ///< default link inverse bandwidth
    kFeatMeanSpeed,      ///< mean device speed factor
    kFeatMaxSpeed,       ///< slowest device's speed factor
    kFeatEdgeVolume,     ///< total MB over edges the placement has
};

/**
 * Byte size of every meta frame: magic, version, checksum, the five
 * digests of an InstanceMeta, the feature count and the features.
 * kFeatureCount fixes it, so a store entry needs no length field to
 * find the meta frame that ends it.
 */
constexpr size_t kMetaFrameBytes =
    sizeof(kMetaMagic) + 4 + 16 + 5 * 16 + 4 + 8 * kFeatureCount;

/** Clamp applied to the memLimit feature so kUnlimitedMem stays finite
 * and cannot dominate every distance. */
constexpr double kMemLimitFeatureCap = 1 << 20;

/** Everything the neighbor index knows about one stored instance. */
struct InstanceMeta
{
    /** Full canonical fingerprint (the store key). */
    Hash128 fingerprint;
    /** Per-component digests (exact-match structure signals). */
    SubFingerprints sub;
    /** Digest of the phase-completion-relevant options
     * (phaseOptionsDigest): agreement licenses exact reuse of a
     * neighbor's phase schedules during adaptation. */
    Hash128 phaseOptions;
    /** Cheap numeric summary (graded similarity signals). */
    std::array<double, kFeatureCount> features{};
};

/** @return the meta record of a query/lowered instance. */
InstanceMeta computeInstanceMeta(const Placement &placement,
                                 const TesselOptions &options);

/** Serialize @p meta to a meta frame (versioned, checksummed,
 * kMetaFrameBytes long). */
std::string serializeMeta(const InstanceMeta &meta);

/** Decode a meta frame; @return false on any malformed input. */
bool deserializeMeta(const std::string &bytes, InstanceMeta *meta);

/**
 * Weighted distance between two instances: squared relative feature
 * differences plus fixed penalties per disagreeing sub-fingerprint
 * (a placement mismatch outranks any cluster-model drift, which in
 * turn outranks an options drift). Zero iff the metas are identical
 * in every component the index can see.
 */
double neighborDistance(const InstanceMeta &a, const InstanceMeta &b);

/**
 * k-nearest-neighbor index over instance metas. Thread-safe; entries
 * are replaced in place when the same fingerprint is added twice.
 */
class NeighborIndex
{
  public:
    struct Neighbor
    {
        Hash128 fingerprint;
        double distance = 0.0;
    };

    /** Insert or replace the entry for @p meta's fingerprint. */
    void add(const InstanceMeta &meta);

    /** Drop the entry for @p fp; @return true when it existed. */
    bool remove(const Hash128 &fp);

    /** Copy the stored meta for @p fp into @p meta; @return false when
     * no such entry is indexed. */
    bool find(const Hash128 &fp, InstanceMeta *meta) const;

    size_t size() const;

    /**
     * The @p k stored instances nearest to @p query, ascending by
     * (distance, fingerprint) — fully deterministic. An entry whose
     * fingerprint equals the query's own is excluded (that is an exact
     * hit, the cache's job, not a neighbor).
     */
    std::vector<Neighbor> nearest(const InstanceMeta &query,
                                  size_t k) const;

  private:
    mutable std::mutex mu_;
    std::vector<InstanceMeta> metas_;
    std::unordered_map<Hash128, size_t, Hash128Hasher> index_;
};

} // namespace tessel

#endif // TESSEL_STORE_NEIGHBOR_H
