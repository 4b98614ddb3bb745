/**
 * @file
 * Elastic replanning core: adapt a served plan to a drifted cluster and
 * seed the fresh search with it (core/search.h ReplanSeed /
 * tesselReplan).
 *
 * Adaptation itself is store/adapt.h's pipeline — the served plan is
 * treated as its own best neighbor: structural correspondence is
 * trivially satisfied (same placement), so the work reduces to
 * lowering under the new costs, re-deriving or re-solving the repetend
 * timing, and oracle verification. The verified retimed plan doubles
 * as the conservative `stale` answer the service can hand out when a
 * replan misses its latency budget.
 *
 * This file lives in core/ because replanning is a search-level
 * operation (ISSUE 9 places the API in core/search), but it reuses the
 * adaptation machinery one layer up; the dependency is source-level
 * only (everything links into one library).
 */

#include <utility>

#include "core/search.h"
#include "store/adapt.h"
#include "support/tracing.h"

namespace tessel {

ReplanSeed
prepareReplanSeed(const Placement &placement, const TesselOptions &drifted,
                  const TesselResult &served, const ClusterDelta *delta,
                  bool exactPhasesAllowed)
{
    ReplanSeed out;
    if (delta && delta->removesDevices()) {
        out.reason =
            "delta removes devices; replan onto a survivor placement";
        return out;
    }

    const bool comm_aware =
        drifted.cluster &&
        !drifted.cluster->isTrivial(placement.numDevices());

    // Pure speed drift can flip a trivial cluster non-trivial without
    // creating a single comm block (every link still free). The served
    // plan is then structurally a plan of the drifted solve placement —
    // zero comm specs, identity assignment extension — so re-brand it
    // comm-aware instead of failing adaptation's awareness check; the
    // oracle still decides whether its timing survived the new spans.
    const TesselResult *adapt_from = &served;
    TesselResult shim;
    if (comm_aware && !served.commAware &&
        commResourceDemand(placement, *drifted.cluster, drifted.edgeMB,
                           drifted.comm) == placement.numDevices()) {
        shim = served;
        shim.commAware = true;
        adapt_from = &shim;
    }

    TraceSpan span("retime");
    AdaptOutcome adapted = adaptResultToQuery(placement, drifted, *adapt_from,
                                              exactPhasesAllowed);
    span.setArg("ok", adapted.ok ? 1 : 0);
    out.work.merge(adapted.breakdown);
    if (!adapted.ok) {
        out.reason = std::move(adapted.reason);
        return out;
    }
    out.ok = true;
    out.retimed = adapted.retimed;
    out.seed = std::move(adapted.seed);
    out.retimedResult = std::move(adapted.adapted);
    return out;
}

TesselResult
tesselReplan(const Placement &placement, const TesselOptions &drifted,
             const TesselResult &served, const ClusterDelta *delta,
             bool exactPhasesAllowed, ReplanSeed *info)
{
    ReplanSeed seed = prepareReplanSeed(placement, drifted, served, delta,
                                        exactPhasesAllowed);
    TesselOptions opts = drifted;
    if (seed.ok)
        opts.seed = &seed.seed;
    TesselResult result = tesselSearch(placement, opts);
    result.breakdown.mergeSeedWork(seed.work);
    if (info)
        *info = std::move(seed);
    return result;
}

} // namespace tessel
