/**
 * @file
 * Plan adaptation: turn a stored TesselResult for a *similar* instance
 * (a neighbor-index candidate, store/neighbor.h) into a verified plan
 * and warm-start seed for the instance actually being queried.
 *
 * The pipeline mirrors the search's own lowering, then proceeds in
 * strictly cheaper-first order:
 *
 *  1. Correspondence — the neighbor's solve placement must structurally
 *     match the query's (same devices, same block kinds/masks/edges);
 *     spans and memory deltas are allowed to differ, which is exactly
 *     the "one knob turned" near-miss the index targets. No
 *     correspondence → cold search, no seed.
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
    /** Whether the retime path ran (false = verbatim timing reuse). */
    bool retimed = false;
    /** Whether the seed carries exactly-reusable phase schedules
     * (SearchSeed::phasesExact); fast path only, and only when the
     * caller attested phase-options agreement via exactPhasesAllowed. */
    bool phasesExact = false;
    /** Warm-start seed for the query's search; valid only when ok. */
    SearchSeed seed;
    /** The adapted result itself (found=true, verified against the
     * query); valid only when ok. */
    TesselResult adapted;
    /** Solver work spent adapting (retime path only). */
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
 *   the indexed meta sidecars). Only then may the fast path mark its
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

} // namespace tessel

#endif // TESSEL_STORE_ADAPT_H
