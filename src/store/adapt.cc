#include "store/adapt.h"

#include <algorithm>
#include <limits>
#include <optional>
#include <utility>

#include "core/repetend_solver.h"
#include "placement/comm.h"
#include "store/store.h"

namespace tessel {

namespace {

/**
 * Node cap per phase solve of a retimed seed. A seed's phases only need
 * to be feasible, so adaptation stops well short of the search's cap;
 * a work cap rather than a clock keeps seeds, and the stale answers
 * built from them, independent of host speed.
 */
constexpr uint64_t kAdaptPhaseNodeLimit = 600'000;

/** @return an AdaptOutcome that failed with @p reason. */
AdaptOutcome
fail(std::string reason)
{
    AdaptOutcome out;
    out.reason = std::move(reason);
    return out;
}

/**
 * Structural correspondence between the query's solve placement and the
 * neighbor plan's: same device count, same blocks up to costs. Spans and
 * memory deltas are the knobs adaptation absorbs; kinds, device masks,
 * and dependency edges define the search space itself and must match.
 */
bool
placementsCorrespond(const Placement &query, const Placement &stored)
{
    if (query.numDevices() != stored.numDevices() ||
        query.numBlocks() != stored.numBlocks()) {
        return false;
    }
    for (int i = 0; i < query.numBlocks(); ++i) {
        const BlockSpec &q = query.block(i);
        const BlockSpec &s = stored.block(i);
        if (q.kind != s.kind || !(q.devices == s.devices) ||
            q.deps != s.deps) {
            return false;
        }
    }
    return true;
}

/**
 * Whether @p assign is canonical for @p placement: every index in
 * [0, NR), min 0, max NR-1, and Property 4.2 (r_producer >= r_consumer
 * along every dependency edge). Exactly the invariants
 * enumerateRepetends guarantees, so an assignment passing this check is
 * one the sweep itself yields at that NR.
 */
bool
assignmentIsCanonical(const Placement &placement,
                      const RepetendAssignment &assign)
{
    const int nb = placement.numBlocks();
    const int nr = assign.numMicrobatches;
    if (nr < 1 || assign.r.size() != static_cast<size_t>(nb) || nb == 0)
        return false;
    int lo = std::numeric_limits<int>::max(), hi = -1;
    for (int r : assign.r) {
        if (r < 0 || r >= nr)
            return false;
        lo = std::min(lo, r);
        hi = std::max(hi, r);
    }
    if (lo != 0 || hi != nr - 1)
        return false;
    for (int j = 0; j < nb; ++j) {
        for (int i : placement.block(j).deps) {
            if (assign.r[i] < assign.r[j])
                return false;
        }
    }
    return true;
}

/** Wrap @p plan as a found TesselResult for the query's lowering. */
TesselResult
wrapResult(TesselPlan plan, const Placement &solve_placement, bool comm_aware,
           const std::optional<CommExpansion> &expansion)
{
    TesselResult result;
    result.found = true;
    result.period = plan.period();
    result.nrUsed = plan.minMicrobatches();
    result.lowerBound = solve_placement.perMicrobatchLowerBound();
    result.commAware = comm_aware;
    result.expansion = expansion;
    result.plan = std::move(plan);
    return result;
}

} // namespace

AdaptOutcome
adaptResultToQuery(const Placement &placement, const TesselOptions &options,
                   const TesselResult &neighbor, bool exactPhasesAllowed)
{
    if (!neighbor.found)
        return fail("neighbor result holds no plan");

    // Lower the query exactly as tesselSearch does, so correspondence is
    // judged against the placement the query would actually solve.
    const bool comm_aware =
        options.cluster &&
        !options.cluster->isTrivial(placement.numDevices());
    if (comm_aware != neighbor.commAware)
        return fail("comm-awareness mismatch");

    std::optional<CommExpansion> expansion;
    const Placement *solve_placement = &placement;
    TesselOptions eff = options;
    eff.seed = nullptr; // Adaptation must not recurse into seeding.
    if (comm_aware) {
        expansion = expandWithComm(placement, *options.cluster,
                                   options.edgeMB, options.comm);
        solve_placement = &expansion->placement;
        if (!eff.initialMem.empty())
            eff.initialMem.resize(solve_placement->numDevices(), 0);
    }

    const TesselPlan &stored = neighbor.plan;
    if (!placementsCorrespond(*solve_placement, stored.placement()))
        return fail("placement structure differs");

    // Admissibility (seed witness guarantee): the assignment must be one
    // the query's own sweep enumerates — NR within the query's in-flight
    // cap and canonical on the placement enumeration runs on (the
    // original one; comm specs adopt their consumer's index and are
    // checked by re-extension).
    const RepetendAssignment &assign = stored.assignment();
    const int nr = assign.numMicrobatches;
    const int max_inflight =
        calMaxInflight(placement, options.memLimit, options.initialMem,
                       options.maxRepetendMicrobatches);
    if (nr < 1 || nr > max_inflight)
        return fail("repetend NR outside the query's in-flight cap");
    if (comm_aware) {
        if (assign.r.size() !=
            static_cast<size_t>(solve_placement->numBlocks())) {
            return fail("assignment width differs from solve placement");
        }
        RepetendAssignment orig;
        orig.numMicrobatches = nr;
        orig.r.assign(placement.numBlocks(), 0);
        for (size_t e = 0; e < expansion->origSpec.size(); ++e) {
            const int o = expansion->origSpec[e];
            if (o >= 0)
                orig.r[o] = assign.r[e];
        }
        if (!assignmentIsCanonical(placement, orig))
            return fail("assignment is not canonical for the query");
        if (expansion->extendAssignment(orig) != assign)
            return fail("assignment does not extend from the real blocks");
    } else {
        if (!assignmentIsCanonical(*solve_placement, assign))
            return fail("assignment is not canonical for the query");
    }

    // Fast path: keep the neighbor's entire timing, re-derive only the
    // period from the query's spans (evalPeriod is exact for a fixed
    // window), and let the oracle decide whether the timing survived the
    // cost change. Bit-for-bit reuse when only non-cost knobs moved.
    {
        const std::vector<Time> &start = stored.windowStart();
        if (start.size() ==
            static_cast<size_t>(solve_placement->numBlocks())) {
            const Time period =
                evalPeriod(*solve_placement, assign, start, true);
            Time span_lo = std::numeric_limits<Time>::max(), span_hi = 0;
            for (int i = 0; i < solve_placement->numBlocks(); ++i) {
                span_lo = std::min(span_lo, start[i]);
                span_hi = std::max(span_hi,
                                   start[i] + solve_placement->block(i).span);
            }
            if (period >= 1) {
                // Pad initialMem exactly as completeRepetendPlan does,
                // so a reused plan is byte-for-byte the one a cold
                // completion would construct.
                std::vector<Mem> initial_mem =
                    eff.initialMem.empty()
                        ? std::vector<Mem>(solve_placement->numDevices(), 0)
                        : eff.initialMem;
                TesselPlan plan(*solve_placement, assign, start, period,
                                span_hi - span_lo, stored.warmupRefs(),
                                stored.warmupStarts(), stored.cooldownRefs(),
                                stored.cooldownStarts(), eff.memLimit,
                                std::move(initial_mem));
                TesselResult candidate = wrapResult(
                    std::move(plan), *solve_placement, comm_aware, expansion);
                const VerifyOutcome verify =
                    verifyResultAgainstQuery(placement, options, candidate);
                if (verify.ok) {
                    AdaptOutcome out;
                    out.ok = true;
                    out.seed.period = candidate.period;
                    out.seed.windowStart = candidate.plan.windowStart();
                    out.seed.makespan = candidate.plan.makespanFor(nr + 1);
                    // Exact phase reuse: licensed by the caller's
                    // phase-options attestation AND a proof that the
                    // completion pipeline's inputs are identical — the
                    // stored solve placement matches the query's block
                    // for block (spans and memory deltas included; the
                    // oracle pass above only certifies feasibility, not
                    // input identity) and the memory model agrees. The
                    // neighbor's phases are then the very solves this
                    // query's completion would run, so the search may
                    // return them verbatim (core/search.cc
                    // completeOrReusePlan) when this seed's candidate
                    // wins.
                    if (exactPhasesAllowed &&
                        stored.placement().structurallyEquals(
                            *solve_placement) &&
                        stored.memLimit() == eff.memLimit &&
                        stored.initialMem() ==
                            candidate.plan.initialMem()) {
                        out.seed.phasesExact = true;
                        out.seed.plan = candidate.plan;
                    }
                    out.adapted = std::move(candidate);
                    return out;
                }
            }
        }
    }

    // Retime path: the assignment is known-good but the timing is not.
    // One exact candidate solve (window + phases) under the query's
    // costs — the sweep over all other candidates is what the seed
    // saves, not this.
    AdaptOutcome out;
    out.retimed = true;
    RepetendSolveOptions rso;
    rso.memLimit = eff.memLimit;
    rso.initialMem = eff.initialMem;
    rso.timeBudgetSec = eff.repetendBudgetSec;
    rso.cancel = eff.cancel;
    const RepetendSchedule sched =
        solveRepetend(*solve_placement, assign, rso);
    out.breakdown.candidatesSolved = 1;
    out.breakdown.solverNodes += sched.stats.nodes;
    out.breakdown.valueSweeps += sched.stats.valueSweeps;
    out.breakdown.policyImprovements += sched.stats.policyImprovements;
    if (!sched.feasible) {
        out.reason = "repetend re-solve infeasible under the query";
        return out;
    }

    // A seed's phases only need to be *feasible* — the seed is a virtual
    // incumbent, never the returned plan — so don't pay the search's full
    // per-phase node cap here. If the capped completion fails we merely
    // fall back cold, losing the seed, not correctness.
    TesselOptions adapt_opts = eff;
    adapt_opts.phaseNodeLimit =
        eff.phaseNodeLimit > 0
            ? std::min(eff.phaseNodeLimit, kAdaptPhaseNodeLimit)
            : kAdaptPhaseNodeLimit;
    std::optional<TesselPlan> plan =
        completeRepetendPlan(*solve_placement, assign, sched, adapt_opts,
                             out.breakdown, eff.cancel);
    if (!plan) {
        out.reason = "phase completion failed under the query";
        return out;
    }

    TesselResult candidate =
        wrapResult(std::move(*plan), *solve_placement, comm_aware, expansion);
    const VerifyOutcome verify =
        verifyResultAgainstQuery(placement, options, candidate);
    if (!verify.ok) {
        out.reason = "adapted plan failed verification: " + verify.reason;
        return out;
    }

    out.ok = true;
    out.seed.period = candidate.period;
    out.seed.windowStart = candidate.plan.windowStart();
    out.seed.makespan = candidate.plan.makespanFor(nr + 1);
    out.adapted = std::move(candidate);
    return out;
}

} // namespace tessel
