#include "service/trace.h"

#include <algorithm>
#include <cctype>
#include <cmath>
#include <cstdio>
#include <sstream>

#include "placement/shapes.h"
#include "support/io.h"

namespace tessel {

namespace {

/**
 * Minimal flat-JSON-object scanner. The trace format is one object per
 * line with scalar values only, so a full JSON library would be dead
 * weight (and the container bans new dependencies); this accepts the
 * documented subset and rejects everything else with a message.
 */
struct Scanner
{
    const std::string &s;
    size_t i = 0;
    std::string err;

    explicit Scanner(const std::string &line) : s(line) {}

    void
    skipWs()
    {
        while (i < s.size() &&
               std::isspace(static_cast<unsigned char>(s[i])))
            ++i;
    }

    bool
    fail(const std::string &what)
    {
        err = what + " at offset " + std::to_string(i);
        return false;
    }

    bool
    expect(char c)
    {
        skipWs();
        if (i >= s.size() || s[i] != c)
            return fail(std::string("expected '") + c + "'");
        ++i;
        return true;
    }

    /** Parse a JSON string (no \u escapes; traces are ASCII). */
    bool
    parseString(std::string *out)
    {
        if (!expect('"'))
            return false;
        out->clear();
        while (i < s.size() && s[i] != '"') {
            char c = s[i++];
            if (c == '\\') {
                if (i >= s.size())
                    return fail("unterminated escape");
                char e = s[i++];
                switch (e) {
                case '"': c = '"'; break;
                case '\\': c = '\\'; break;
                case '/': c = '/'; break;
                case 'n': c = '\n'; break;
                case 't': c = '\t'; break;
                case 'r': c = '\r'; break;
                default:
                    return fail("unsupported escape");
                }
            }
            out->push_back(c);
        }
        if (i >= s.size())
            return fail("unterminated string");
        ++i; // closing quote
        return true;
    }

    /** One scalar value: string, number, true/false/null. */
    bool
    parseValue(std::string *str, double *num, bool *isString)
    {
        skipWs();
        if (i >= s.size())
            return fail("expected value");
        if (s[i] == '"') {
            *isString = true;
            return parseString(str);
        }
        if (s[i] == '{' || s[i] == '[')
            return fail("nested values not supported");
        *isString = false;
        if (s.compare(i, 4, "true") == 0) {
            i += 4;
            *num = 1.0;
            return true;
        }
        if (s.compare(i, 5, "false") == 0) {
            i += 5;
            *num = 0.0;
            return true;
        }
        if (s.compare(i, 4, "null") == 0) {
            i += 4;
            *num = 0.0;
            return true;
        }
        const size_t start = i;
        if (i < s.size() && (s[i] == '-' || s[i] == '+'))
            ++i;
        while (i < s.size() &&
               (std::isdigit(static_cast<unsigned char>(s[i])) ||
                s[i] == '.' || s[i] == 'e' || s[i] == 'E' ||
                s[i] == '-' || s[i] == '+'))
            ++i;
        if (i == start)
            return fail("expected value");
        try {
            *num = std::stod(s.substr(start, i - start));
        } catch (...) {
            return fail("bad number");
        }
        return true;
    }
};

std::string
jsonNumber(double v)
{
    char buf[64];
    if (v == static_cast<double>(static_cast<long long>(v)))
        std::snprintf(buf, sizeof buf, "%lld",
                      static_cast<long long>(v));
    else
        std::snprintf(buf, sizeof buf, "%.6g", v);
    return buf;
}

} // namespace

bool
parseTraceLine(const std::string &line, TraceQuery *out, std::string *err)
{
    TraceQuery q;
    Scanner sc(line);
    auto bail = [&](const std::string &what) {
        if (err)
            *err = what;
        return false;
    };
    if (!sc.expect('{'))
        return bail(sc.err);
    sc.skipWs();
    bool sawShape = false;
    if (sc.i < sc.s.size() && sc.s[sc.i] != '}') {
        for (;;) {
            std::string key;
            if (!sc.parseString(&key))
                return bail(sc.err);
            if (!sc.expect(':'))
                return bail(sc.err);
            std::string sval;
            double nval = 0.0;
            bool isString = false;
            if (!sc.parseValue(&sval, &nval, &isString))
                return bail(sc.err);

            auto wantString = [&](std::string *dst) {
                if (!isString)
                    return bail("key \"" + key + "\" wants a string");
                *dst = sval;
                return true;
            };
            auto wantNumber = [&](double *dst) {
                if (isString)
                    return bail("key \"" + key + "\" wants a number");
                *dst = nval;
                return true;
            };

            double tmp = 0.0;
            if (key == "id") {
                if (!wantString(&q.id))
                    return false;
            } else if (key == "cmd") {
                if (!wantString(&q.cmd))
                    return false;
            } else if (key == "shape") {
                if (!wantString(&q.shape))
                    return false;
                sawShape = true;
            } else if (key == "variant") {
                if (!wantString(&q.variant))
                    return false;
            } else if (key == "tenant") {
                if (!wantString(&q.tenant))
                    return false;
            } else if (key == "devices") {
                if (!wantNumber(&tmp))
                    return false;
                q.devices = static_cast<int>(tmp);
            } else if (key == "budget_sec") {
                if (!wantNumber(&q.budgetSec))
                    return false;
            } else if (key == "nr_cap") {
                if (!wantNumber(&tmp))
                    return false;
                q.nrCap = static_cast<int>(tmp);
            } else if (key == "mem_limit") {
                if (!wantNumber(&tmp))
                    return false;
                q.memLimit = static_cast<long long>(tmp);
            } else if (key == "drift_device") {
                if (!wantNumber(&tmp))
                    return false;
                q.driftDevice = static_cast<int>(tmp);
            } else if (key == "drift_speed") {
                if (!wantNumber(&q.driftSpeed))
                    return false;
            } else if (key == "drift_src") {
                if (!wantNumber(&tmp))
                    return false;
                q.driftSrc = static_cast<int>(tmp);
            } else if (key == "drift_dst") {
                if (!wantNumber(&tmp))
                    return false;
                q.driftDst = static_cast<int>(tmp);
            } else if (key == "drift_latency") {
                if (!wantNumber(&q.driftLatency))
                    return false;
            } else if (key == "drift_time_per_mb") {
                if (!wantNumber(&q.driftTimePerMB))
                    return false;
            } else if (key == "fail_device") {
                if (!wantNumber(&tmp))
                    return false;
                q.failDevice = static_cast<int>(tmp);
            }
            // Unknown keys: parsed and dropped (forward compatibility).

            sc.skipWs();
            if (sc.i < sc.s.size() && sc.s[sc.i] == ',') {
                ++sc.i;
                continue;
            }
            break;
        }
    }
    if (!sc.expect('}'))
        return bail(sc.err);
    sc.skipWs();
    if (sc.i != sc.s.size())
        return bail("trailing characters after object");
    if (!sawShape && !q.isControl())
        return bail("missing required key \"shape\"");
    *out = std::move(q);
    return true;
}

std::string
formatTraceLine(const TraceQuery &q)
{
    std::ostringstream os;
    os << '{';
    if (!q.id.empty())
        os << "\"id\": \"" << jsonEscape(q.id) << "\", ";
    if (q.isControl()) {
        os << "\"cmd\": \"" << jsonEscape(q.cmd) << "\"}";
        return os.str();
    }
    os << "\"shape\": \"" << jsonEscape(q.shape) << "\""
       << ", \"variant\": \"" << jsonEscape(q.variant) << "\""
       << ", \"devices\": " << q.devices
       << ", \"budget_sec\": " << jsonNumber(q.budgetSec);
    if (q.nrCap > 0)
        os << ", \"nr_cap\": " << q.nrCap;
    if (q.memLimit > 0)
        os << ", \"mem_limit\": " << q.memLimit;
    if (q.driftDevice >= 0) {
        os << ", \"drift_device\": " << q.driftDevice
           << ", \"drift_speed\": " << jsonNumber(q.driftSpeed);
    }
    if (q.driftSrc >= 0 || q.driftDst >= 0) {
        os << ", \"drift_src\": " << q.driftSrc
           << ", \"drift_dst\": " << q.driftDst
           << ", \"drift_latency\": " << jsonNumber(q.driftLatency)
           << ", \"drift_time_per_mb\": " << jsonNumber(q.driftTimePerMB);
    }
    if (q.failDevice >= 0)
        os << ", \"fail_device\": " << q.failDevice;
    if (!q.tenant.empty())
        os << ", \"tenant\": \"" << jsonEscape(q.tenant) << "\"";
    os << '}';
    return os.str();
}

std::optional<PlanQuery>
makeTraceQuery(const TraceQuery &q, std::string *err)
{
    std::optional<PlanQuery> plan =
        referenceShapeQuery(q.shape, q.variant, q.devices, q.budgetSec);
    if (!plan) {
        if (err)
            *err = "unknown query coordinates: shape \"" + q.shape +
                   "\" variant \"" + q.variant + "\" devices " +
                   std::to_string(q.devices);
        return std::nullopt;
    }
    if (q.nrCap > 0) {
        plan->options.maxRepetendMicrobatches = q.nrCap;
        plan->label += "/nr=" + std::to_string(q.nrCap);
    }
    if (q.memLimit > 0) {
        plan->options.memLimit = static_cast<Mem>(q.memLimit);
        plan->label += "/mem=" + std::to_string(q.memLimit);
    }
    return plan;
}

std::optional<ReplanRequest>
makeTraceReplan(const TraceQuery &q, std::string *err)
{
    auto bail = [&](const std::string &what) {
        if (err)
            *err = what;
        return std::nullopt;
    };
    if (!q.isReplan())
        return bail("not a replan line (no drift/fail knobs)");
    std::optional<PlanQuery> base = makeTraceQuery(q, err);
    if (!base)
        return std::nullopt;
    ReplanRequest req;
    req.base = std::move(*base);

    if (q.hasFailure()) {
        // The service-level checks for these are fatal (programming
        // errors there); from a trace they are daemon *input*, so they
        // must come back as per-line errors.
        if (q.hasDrift())
            return bail("fail_device cannot be combined with drift knobs");
        if (q.failDevice >= q.devices)
            return bail("fail_device " + std::to_string(q.failDevice) +
                        " outside 0.." + std::to_string(q.devices - 1));
        if (q.devices < (q.shape == "K" ? 4 : 3))
            return bail("too few devices to survive a failure of shape " +
                        q.shape);
        PlanQuery degraded = req.base; // keeps budgets / mem-cap / label
        std::vector<DeviceId> removed;
        if (q.variant == "hetero") {
            HeteroShape hs = makeDegradedHeteroShapeByName(
                q.shape, q.devices, q.failDevice, {}, {}, &removed);
            degraded.placement = std::move(hs.placement);
            degraded.options.edgeMB = std::move(hs.edgeMB);
            degraded.cluster =
                std::make_shared<ClusterModel>(std::move(hs.cluster));
        } else {
            DegradedShape ds =
                makeDegradedShape(q.shape, q.devices, q.failDevice);
            degraded.placement = std::move(ds.placement);
            removed = std::move(ds.removedDevices);
        }
        degraded.label += "/fail=" + std::to_string(q.failDevice);
        req.delta.removedDevices = std::move(removed);
        req.degraded = std::move(degraded);
        return req;
    }

    if (q.driftDevice >= 0) {
        if (q.driftDevice >= q.devices)
            return bail("drift_device " + std::to_string(q.driftDevice) +
                        " outside 0.." + std::to_string(q.devices - 1));
        if (!(q.driftSpeed > 0.0) || !std::isfinite(q.driftSpeed))
            return bail("drift_speed must be a positive finite factor");
        req.delta.speedFactor[q.driftDevice] = q.driftSpeed;
    }
    if (q.driftSrc >= 0 || q.driftDst >= 0) {
        if (q.driftSrc < 0 || q.driftDst < 0)
            return bail("drift_src and drift_dst must both be set");
        if (q.driftSrc >= q.devices || q.driftDst >= q.devices)
            return bail("drift link endpoints outside 0.." +
                        std::to_string(q.devices - 1));
        if (q.driftSrc == q.driftDst)
            return bail("drift link endpoints must differ");
        if (q.driftLatency < 0.0 || q.driftTimePerMB < 0.0 ||
            !std::isfinite(q.driftLatency) ||
            !std::isfinite(q.driftTimePerMB))
            return bail("drift_latency and drift_time_per_mb must both "
                        "be >= 0");
        LinkParams link;
        link.latency = q.driftLatency;
        link.timePerMB = q.driftTimePerMB;
        req.delta.link[{std::min(q.driftSrc, q.driftDst),
                        std::max(q.driftSrc, q.driftDst)}] = link;
    }
    return req;
}

std::string
formatResponseLine(const std::string &id, const ServiceLoop::Response &resp)
{
    std::ostringstream os;
    os << '{';
    if (!id.empty())
        os << "\"id\": \"" << jsonEscape(id) << "\", ";
    os << "\"admission\": \"" << admissionName(resp.admission) << "\""
       << ", \"label\": \"" << jsonEscape(resp.report.label) << "\"";
    if (resp.admission == Admission::Accepted) {
        os << ", \"fingerprint\": \"" << resp.report.fingerprint << "\""
           << ", \"plan_hash\": \"" << resp.report.planHash << "\""
           << ", \"source\": \"" << resp.report.source << "\""
           << ", \"found\": " << (resp.report.found ? "true" : "false")
           << ", \"period\": " << resp.report.period
           << ", \"wall_sec\": " << jsonNumber(resp.report.wallSec)
           << ", \"value_sweeps\": " << resp.report.valueSweeps
           << ", \"policy_improvements\": "
           << resp.report.policyImprovements;
        if (resp.report.replanned)
            os << ", \"replanned\": true";
        if (resp.report.stale)
            os << ", \"stale\": true";
        if (resp.report.degraded)
            os << ", \"degraded\": true";
    }
    if (resp.cancelled)
        os << ", \"cancelled\": true";
    if (!resp.error.empty())
        os << ", \"error\": \"" << jsonEscape(resp.error) << "\"";
    os << '}';
    return os.str();
}

} // namespace tessel
