/**
 * @file
 * Canonical instance fingerprints: a stable 128-bit digest of the fully
 * lowered search input — the placement (blocks, spans, memory deltas,
 * device masks, dependency edges), the cluster model, the per-edge
 * communication volumes, and every TesselOptions field that can change
 * the resulting plan. The digest keys the plan store: two queries with
 * equal fingerprints are guaranteed to describe the same search, so a
 * cached TesselResult can answer either.
 *
 * Stability guarantee (recorded in README "Plan store & planning
 * service"): the fingerprint of a semantically identical query is
 * identical across processes, platforms, and input construction order.
 * Concretely, the digest is invariant to
 *
 *  - resource-set capacity history: device masks hash as their sorted
 *    set-bit indices, so a mask that grew past 64 bits and shrank back
 *    fingerprints like one that never grew;
 *  - container iteration order: link overrides and edge volumes live in
 *    std::map (sorted iteration) and are hashed in key order, so
 *    insertion order never matters;
 *  - no-op model entries: trailing unit speed factors, trailing zero
 *    initial-memory entries, zero-MB edge volumes, link overrides equal
 *    to the default link, link overrides naming out-of-range devices,
 *    and edge-volume entries for edges the placement does not have are
 *    all dropped before hashing (each is semantically invisible to the
 *    search);
 *  - the trivial-cluster identity: a null ClusterModel, and any model
 *    for which isTrivial(numDevices) holds, fingerprint identically
 *    (the search guarantees bit-identical plans for the two);
 *  - plan-invariant options: numThreads and the CancelToken are
 *    excluded (any thread count returns the same plan by construction),
 *    as is the placement's display name;
 *  - serving deadlines: totalBudgetSec, repetendBudgetSec and
 *    phaseBudgetSec are excluded. A search one of them cut short is
 *    flagged (SearchBreakdown::budgetExhausted) and never stored, so
 *    every stored plan is one no deadline touched.
 *
 * The work cap phaseNodeLimit IS hashed: a capped phase solve returns
 * its best-so-far, which depends on the cap but not on host speed, so
 * plans found under one cap are never served for another.
 */

#ifndef TESSEL_STORE_FINGERPRINT_H
#define TESSEL_STORE_FINGERPRINT_H

#include "core/search.h"
#include "ir/placement.h"
#include "support/hashing.h"

namespace tessel {

/**
 * Fingerprint format version. Bump whenever the hashed field set or
 * canonicalization rules change so stale store entries (keyed by file
 * name = fingerprint) can never alias a new-scheme query.
 */
constexpr uint32_t kFingerprintVersion = 2;

/** @return the canonical 128-bit fingerprint of (placement, options). */
Hash128 fingerprintQuery(const Placement &placement,
                         const TesselOptions &options);

/**
 * Per-component digests of a lowered instance, hashed with the same
 * canonicalization rules as the full fingerprint but under distinct
 * domain separators. Two instances agreeing on a component hash that
 * component identically; the neighbor index (store/neighbor.h) uses
 * agreement/disagreement per component to rank near-miss candidates
 * (e.g. "same placement, different cluster" adapts better than "same
 * cluster, different placement").
 */
struct SubFingerprints
{
    /** Placement structure + costs (display names excluded). */
    Hash128 placement;
    /** Cluster/comm model, canonicalized; fixed sentinel digest for
     * homogeneous instances (null or trivial model). */
    Hash128 cluster;
    /** Plan-relevant TesselOptions fields (the phase node cap
     * included, the wall budgets not). */
    Hash128 options;

    bool
    operator==(const SubFingerprints &other) const
    {
        return placement == other.placement && cluster == other.cluster &&
               options == other.options;
    }

    bool
    operator!=(const SubFingerprints &other) const
    {
        return !(*this == other);
    }
};

/** @return the component digests of (placement, options). */
SubFingerprints subFingerprintsQuery(const Placement &placement,
                                     const TesselOptions &options);

/**
 * Digest of every option that can influence the *phase completion*
 * output for a fixed phase instance: the phase node cap (a capped
 * warmup/cooldown minimize returns its best-so-far, so the cap is part
 * of the answer), the memory limit / initial memory (they shape the
 * phase instance), and the lazy flag. The wall budgets are not hashed:
 * a completion they cut is never stored. Plan adaptation
 * (store/adapt.h) may mark a seed's phase schedules as exactly
 * reusable ONLY when the stored and querying instance agree on this
 * digest — otherwise the neighbor's completion could legitimately
 * differ from what the query's own cold search would compute.
 */
Hash128 phaseOptionsDigest(const TesselOptions &options);

} // namespace tessel

#endif // TESSEL_STORE_FINGERPRINT_H
