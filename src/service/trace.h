/**
 * @file
 * Line-delimited JSON trace format for the planning daemon.
 *
 * `tessel_service --serve` reads one JSON object per line on stdin and
 * emits one JSON response object per answered (or rejected) query on
 * stdout; bench_service_load replays the same objects in-process. A
 * trace query names a reference-shape instance by coordinates instead
 * of shipping a placement, so traces are both human-writable and
 * guaranteed to fingerprint identically to the batch front-end's
 * queries for the same coordinates:
 *
 *   {"id": "q1", "shape": "V", "variant": "hetero", "devices": 4,
 *    "budget_sec": 5, "tenant": "team-a"}
 *
 * Optional perturbation knobs make cold (guaranteed-miss) traffic
 * expressible in a trace: "nr_cap" overrides maxRepetendMicrobatches
 * and "mem_limit" overrides memLimit — each changes the canonical
 * fingerprint, so a perturbed line exercises the miss/neighbor-seed
 * path against its stored base instance.
 *
 * The parser accepts exactly the flat-object subset the format needs
 * (string / number / bool values, no nesting) and rejects anything
 * malformed with a per-line error instead of crashing the daemon;
 * unknown keys are ignored for forward compatibility. Within that
 * subset it is standard JSON: strings take every JSON escape (\u
 * escapes decode to UTF-8, surrogate pairs combined, lone surrogates
 * rejected), and a number must match the JSON grammar in full.
 */

#ifndef TESSEL_SERVICE_TRACE_H
#define TESSEL_SERVICE_TRACE_H

#include <optional>
#include <string>

#include "service/loop.h"

namespace tessel {

/** One parsed trace line (defaults match the batch front-end). */
struct TraceQuery
{
    std::string id;      ///< echoed verbatim in the response line
    /**
     * Control verb instead of a query: a line `{"cmd": "stats"}` asks
     * the daemon for a live metrics snapshot in-band (answered on
     * stdout like any response). When set, "shape" is not required and
     * every query/replan knob is ignored.
     */
    std::string cmd;
    std::string shape;   ///< V / X / M / NN / K (required)
    std::string variant = "homogeneous"; ///< homogeneous/mem-capped/hetero
    std::string tenant;  ///< admission bucket; empty = anonymous tenant
    int devices = 4;
    double budgetSec = 5.0;
    /** > 0 overrides maxRepetendMicrobatches (perturbation knob). */
    int nrCap = 0;
    /** > 0 overrides memLimit (perturbation knob). */
    long long memLimit = 0;

    // Fault-injection knobs: any of these turns the line into a replan
    // request (ServiceLoop's ReplanRequest overload) against the base
    // instance the remaining coordinates name.
    /** >= 0 drifts this device's speed factor to driftSpeed. */
    int driftDevice = -1;
    double driftSpeed = 0.0;
    /** driftSrc/driftDst >= 0 drift that link's parameters. */
    int driftSrc = -1;
    int driftDst = -1;
    double driftLatency = -1.0;
    double driftTimePerMB = -1.0;
    /** >= 0 fails this device: replan onto the survivor placement. */
    int failDevice = -1;

    bool
    hasDrift() const
    {
        return driftDevice >= 0 || driftSrc >= 0 || driftDst >= 0;
    }
    bool
    hasFailure() const
    {
        return failDevice >= 0;
    }
    bool
    isReplan() const
    {
        return hasDrift() || hasFailure();
    }
    bool
    isControl() const
    {
        return !cmd.empty();
    }
};

/**
 * Parse one trace line. @return false with @p err set on malformed
 * JSON (a malformed number included), a non-scalar value, a wrong value type for a known key, or a
 * missing/unknown "shape". Unknown keys are ignored.
 */
bool parseTraceLine(const std::string &line, TraceQuery *out,
                    std::string *err);

/** Serialize @p q as one trace line (no trailing newline). */
std::string formatTraceLine(const TraceQuery &q);

/**
 * Build the PlanQuery a trace line describes: the reference-shape
 * query for (shape, variant, devices, budget) with any perturbation
 * knobs applied (and recorded in the label for readability).
 * @return nullopt with @p err set for unknown coordinates.
 */
std::optional<PlanQuery> makeTraceQuery(const TraceQuery &q,
                                        std::string *err);

/**
 * Build the ReplanRequest a fault-injecting trace line describes: the
 * base query from the plain coordinates plus a ClusterDelta from the
 * drift knobs, or (for fail_device) the degraded survivor query. The
 * trace layer validates here — mixing drift with failure, out-of-range
 * devices, or non-positive drift values — so the daemon answers a
 * malformed line with a per-line error instead of dying on the
 * service's fatal checks. @return nullopt with @p err set on any such
 * problem or when the line is not a replan (isReplan() false).
 */
std::optional<ReplanRequest> makeTraceReplan(const TraceQuery &q,
                                             std::string *err);

/**
 * Serialize one daemon response as a JSON line (no trailing newline):
 * id, label, admission verdict, fingerprint, plan hash, source,
 * found/period/wall_sec, the replanned/stale/degraded/deadline_hit
 * flags when set, and the error message when any.
 */
std::string formatResponseLine(const std::string &id,
                               const ServiceLoop::Response &resp);

} // namespace tessel

#endif // TESSEL_SERVICE_TRACE_H
