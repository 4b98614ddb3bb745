/**
 * @file
 * Plan adaptation: turn a stored TesselResult for a *similar* instance
 * into a verified plan and warm-start seed for the instance actually
 * being queried. Two callers feed it: neighbor seeding, with a
 * neighbor-index candidate (store/neighbor.h), and elastic replanning
 * (prepareReplanSeed), with the plan served before a cluster drift,
 * treated as its own best neighbor.
 *
 * The pipeline mirrors the search's own lowering, then proceeds in
 * strictly cheaper-first order:
 *
 *  1. Correspondence — the neighbor's solve placement must structurally
 *     match the query's (same devices, same block kinds/masks/edges);
 *     spans and memory deltas are allowed to differ, which is exactly
 *     the "one knob turned" near-miss the index targets. This is also
 *     the whole comm-awareness check: a cluster flip that adds or drops
 *     comm blocks changes the device and block counts, while one that
 *     emits no comm block (pure speed drift) leaves a plan whose blocks
 *     still correspond. No correspondence → cold search, no seed.
 *  2. Admissibility — the neighbor's repetend assignment must be one
 *     the query's own sweep would enumerate (canonical form, Property
 *     4.2, NR within the query's CalMaxInflight). This is the seed
 *     witness guarantee: an admissible assignment means the cold sweep
 *     visits it too, so a seed derived from it can never hide a plan
 *     the cold search would have found.
 *  3. Fast path — reuse the neighbor's timing verbatim, re-deriving the
 *     period from the query's spans, and run the full store
 *     verification oracle. Identical-cost neighbors (e.g. same shape,
 *     different NR or node cap) adapt in microseconds.
 *  4. Retime path — when reused timing fails verification (spans
 *     actually moved), re-solve the repetend window and phases for the
 *     known-good assignment with the existing exact machinery, each
 *     phase solve under a fixed node cap. One candidate solve instead
 *     of a sweep over all of them.
 *
 * Every outcome that reports ok passed verifyResultAgainstQuery, so the
 * adapted plan is a *feasible* answer by itself; the search then only
 * uses it as a virtual incumbent (TesselOptions::seed), which preserves
 * bit-identical optima by the seed-only-prunes invariant.
 */

#ifndef TESSEL_STORE_ADAPT_H
#define TESSEL_STORE_ADAPT_H

#include <string>

#include "core/search.h"

namespace tessel {

/** Result of one neighbor-adaptation attempt. */
struct AdaptOutcome
{
    /** Whether an adapted, fully verified plan was produced. */
    bool ok = false;
    /** Why adaptation fell back cold (diagnostic; empty when ok). */
    std::string reason;
    /** Whether the plan came from the retime path, which re-solved the
     * repetend window (false: the stored timing was reused verbatim,
     * or adaptation failed). */
    bool retimed = false;
    /** Warm-start seed for the query's search; valid only when ok.
     * Seed-only-prunes: the seeded search returns the cold plan. */
    SearchSeed seed;
    /** The adapted result itself (found=true, verified against the
     * query); valid only when ok. For a replan this is the served plan
     * retimed under the drifted costs, the `stale` fallback answer. */
    TesselResult adapted;
    /** Solver work spent adapting (retime path only), also when it
     * failed; fold it into the search's breakdown with
     * SearchBreakdown::mergeSeedWork. */
    SearchBreakdown breakdown;
};

/**
 * Adapt @p neighbor — a stored result for some other fingerprint — to
 * the query (@p placement, @p options). Never trusts the neighbor:
 * structural correspondence and assignment admissibility are checked
 * before any solve, and the adapted plan must pass the store's
 * verification oracle before ok is reported.
 *
 * @param exactPhasesAllowed caller's attestation that the stored and
 *   querying instances share a phaseOptionsDigest (the service compares
 *   the indexed instance metas). Only then may the fast path mark its
 *   seed phasesExact — and it still independently requires the stored
 *   solve placement to equal the query's span-for-span and the memory
 *   model to agree, so a stale or wrong attestation can widen reuse
 *   only to instances where the completion pipeline's inputs are
 *   provably identical anyway.
 */
AdaptOutcome adaptResultToQuery(const Placement &placement,
                                const TesselOptions &options,
                                const TesselResult &neighbor,
                                bool exactPhasesAllowed = false);

/** A served plan adapted to a drifted re-query of its placement. */
struct ReplanSeed : AdaptOutcome
{
    /** Always false: the drifted instance is lowered from scratch.
     * Kept only because bench/e2e reads it. */
    bool incrementalLower = false;
};

/**
 * Adapt @p served — the plan answered under the pre-drift cluster — to
 * the same placement under @p drifted (the options with the perturbed
 * cluster bound): adaptResultToQuery with the served plan as the
 * neighbor. @p delta, when given, is the drift that produced
 * @p drifted; a delta that removes devices is refused, because the
 * served plan schedules blocks on a device that no longer exists
 * (failure replans search a survivor placement, placement/shapes.h
 * makeDegradedShape). @p exactPhasesAllowed is the caller's attestation
 * that the served and drifted instances share a phaseOptionsDigest
 * (true for pure cluster drift, where only the cluster knob moved).
 */
ReplanSeed prepareReplanSeed(const Placement &placement,
                             const TesselOptions &drifted,
                             const TesselResult &served,
                             const ClusterDelta *delta = nullptr,
                             bool exactPhasesAllowed = false);

} // namespace tessel

#endif // TESSEL_STORE_ADAPT_H
