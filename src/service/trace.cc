#include "service/trace.h"

#include <algorithm>
#include <cctype>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <sstream>
#include <type_traits>

#include "placement/shapes.h"
#include "support/io.h"

namespace tessel {

namespace {

/** Append code point @p cp (a Unicode scalar value) as UTF-8. */
void
appendUtf8(std::string *out, uint32_t cp)
{
    if (cp < 0x80) {
        out->push_back(static_cast<char>(cp));
    } else if (cp < 0x800) {
        out->push_back(static_cast<char>(0xC0 | (cp >> 6)));
        out->push_back(static_cast<char>(0x80 | (cp & 0x3F)));
    } else if (cp < 0x10000) {
        out->push_back(static_cast<char>(0xE0 | (cp >> 12)));
        out->push_back(static_cast<char>(0x80 | ((cp >> 6) & 0x3F)));
        out->push_back(static_cast<char>(0x80 | (cp & 0x3F)));
    } else {
        out->push_back(static_cast<char>(0xF0 | (cp >> 18)));
        out->push_back(static_cast<char>(0x80 | ((cp >> 12) & 0x3F)));
        out->push_back(static_cast<char>(0x80 | ((cp >> 6) & 0x3F)));
        out->push_back(static_cast<char>(0x80 | (cp & 0x3F)));
    }
}

/**
 * Whether @p t follows the JSON number grammar: an optional minus, an
 * integer part without leading zeros, then an optional fraction and an
 * optional signed exponent, each with at least one digit.
 */
bool
isJsonNumber(const std::string &t)
{
    size_t k = 0;
    auto digits = [&] {
        const size_t from = k;
        while (k < t.size() && std::isdigit(static_cast<unsigned char>(t[k])))
            ++k;
        return k - from;
    };
    if (k < t.size() && t[k] == '-')
        ++k;
    const size_t int_start = k;
    const size_t int_digits = digits();
    if (int_digits == 0 || (int_digits > 1 && t[int_start] == '0'))
        return false;
    if (k < t.size() && t[k] == '.') {
        ++k;
        if (digits() == 0)
            return false;
    }
    if (k < t.size() && (t[k] == 'e' || t[k] == 'E')) {
        ++k;
        if (k < t.size() && (t[k] == '+' || t[k] == '-'))
            ++k;
        if (digits() == 0)
            return false;
    }
    return k == t.size();
}

/**
 * Minimal flat-JSON-object scanner. The trace format is one object per
 * line with scalar values only, so a full JSON library would be dead
 * weight (and the build takes no new dependencies); this accepts the
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

    /** Four hex digits of a \u escape, as a UTF-16 code unit. */
    bool
    parseHex4(unsigned *unit)
    {
        if (s.size() - i < 4)
            return fail("truncated \\u escape");
        *unit = 0;
        for (int k = 0; k < 4; ++k, ++i) {
            const char h = s[i];
            unsigned digit = 0;
            if (h >= '0' && h <= '9')
                digit = static_cast<unsigned>(h - '0');
            else if (h >= 'a' && h <= 'f')
                digit = static_cast<unsigned>(h - 'a' + 10);
            else if (h >= 'A' && h <= 'F')
                digit = static_cast<unsigned>(h - 'A' + 10);
            else
                return fail("bad hex digit in \\u escape");
            *unit = *unit * 16 + digit;
        }
        return true;
    }

    /** The code point of a \u escape (the "\u" already consumed): a
     * high surrogate must pair with a following low one. */
    bool
    parseCodePoint(uint32_t *cp)
    {
        unsigned hi = 0;
        if (!parseHex4(&hi))
            return false;
        if (hi >= 0xDC00 && hi <= 0xDFFF)
            return fail("lone low surrogate");
        if (hi < 0xD800 || hi > 0xDBFF) {
            *cp = hi;
            return true;
        }
        unsigned lo = 0;
        if (s.compare(i, 2, "\\u") != 0)
            return fail("lone high surrogate");
        i += 2;
        if (!parseHex4(&lo))
            return false;
        if (lo < 0xDC00 || lo > 0xDFFF)
            return fail("lone high surrogate");
        *cp = 0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00);
        return true;
    }

    /** Parse a JSON string, decoding every JSON escape (\u to UTF-8). */
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
                case 'b': c = '\b'; break;
                case 'f': c = '\f'; break;
                case 'n': c = '\n'; break;
                case 't': c = '\t'; break;
                case 'r': c = '\r'; break;
                case 'u': {
                    uint32_t cp = 0;
                    if (!parseCodePoint(&cp))
                        return false;
                    appendUtf8(out, cp);
                    continue;
                }
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
        // Take the whole number-like token, then accept it only when it
        // is a JSON number that std::stod consumes completely, so "4-2"
        // or "1e" is an error rather than a silently truncated 4 or 1.
        // (std::stod reads the current C locale's decimal point, so the
        // grammar check alone does not guarantee it reads the token
        // whole.)
        const size_t start = i;
        while (i < s.size() &&
               (std::isdigit(static_cast<unsigned char>(s[i])) ||
                s[i] == '.' || s[i] == 'e' || s[i] == 'E' ||
                s[i] == '-' || s[i] == '+'))
            ++i;
        if (i == start)
            return fail("expected value");
        const std::string token = s.substr(start, i - start);
        size_t used = 0;
        try {
            *num = std::stod(token, &used);
        } catch (...) {
            used = 0;
        }
        if (!isJsonNumber(token) || used != token.size()) {
            i = start;
            return fail("bad number '" + token + "'");
        }
        return true;
    }
};

/** @p v as a JSON number: an integral value as an integer, any other
 * to six significant digits or, with @p exact, to the fewest digits that
 * read back as @p v (so a parsed trace line formats to the same bytes). */
std::string
jsonNumber(double v, bool exact = false)
{
    char buf[64];
    // The range check comes first: the cast is undefined past 2^63.
    if (std::fabs(v) < 0x1p63 && v == std::trunc(v)) {
        std::snprintf(buf, sizeof buf, "%lld", static_cast<long long>(v));
        return buf;
    }
    for (int digits = exact ? 15 : 6;; ++digits) {
        std::snprintf(buf, sizeof buf, "%.*g", digits, v);
        if (!exact || digits == 17 || std::strtod(buf, nullptr) == v)
            return buf;
    }
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

            // Integer keys: the cast from double is undefined for
            // values outside the target type, so range-check first.
            auto wantInteger = [&](auto *dst) {
                using T = std::remove_pointer_t<decltype(dst)>;
                double v = 0.0;
                if (!wantNumber(&v))
                    return false;
                if (!(std::fabs(v) <
                      std::ldexp(1.0, std::numeric_limits<T>::digits)))
                    return bail("key \"" + key + "\" out of range");
                *dst = static_cast<T>(v);
                return true;
            };

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
                if (!wantInteger(&q.devices))
                    return false;
            } else if (key == "budget_sec") {
                if (!wantNumber(&q.budgetSec))
                    return false;
            } else if (key == "nr_cap") {
                if (!wantInteger(&q.nrCap))
                    return false;
            } else if (key == "mem_limit") {
                if (!wantInteger(&q.memLimit))
                    return false;
            } else if (key == "drift_device") {
                if (!wantInteger(&q.driftDevice))
                    return false;
            } else if (key == "drift_speed") {
                if (!wantNumber(&q.driftSpeed))
                    return false;
            } else if (key == "drift_src") {
                if (!wantInteger(&q.driftSrc))
                    return false;
            } else if (key == "drift_dst") {
                if (!wantInteger(&q.driftDst))
                    return false;
            } else if (key == "drift_latency") {
                if (!wantNumber(&q.driftLatency))
                    return false;
            } else if (key == "drift_time_per_mb") {
                if (!wantNumber(&q.driftTimePerMB))
                    return false;
            } else if (key == "fail_device") {
                if (!wantInteger(&q.failDevice))
                    return false;
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
       << ", \"budget_sec\": " << jsonNumber(q.budgetSec, true);
    if (q.nrCap > 0)
        os << ", \"nr_cap\": " << q.nrCap;
    if (q.memLimit > 0)
        os << ", \"mem_limit\": " << q.memLimit;
    if (q.driftDevice >= 0) {
        os << ", \"drift_device\": " << q.driftDevice
           << ", \"drift_speed\": " << jsonNumber(q.driftSpeed, true);
    }
    if (q.driftSrc >= 0 || q.driftDst >= 0) {
        os << ", \"drift_src\": " << q.driftSrc
           << ", \"drift_dst\": " << q.driftDst
           << ", \"drift_latency\": " << jsonNumber(q.driftLatency, true)
           << ", \"drift_time_per_mb\": "
           << jsonNumber(q.driftTimePerMB, true);
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
    if (q.devices > kMaxTraceDevices) {
        if (err)
            *err = "devices " + std::to_string(q.devices) +
                   " above the trace limit " +
                   std::to_string(kMaxTraceDevices);
        return std::nullopt;
    }
    if (q.nrCap > kMaxTraceNrCap) {
        if (err)
            *err = "nr_cap " + std::to_string(q.nrCap) +
                   " above the trace limit " +
                   std::to_string(kMaxTraceNrCap);
        return std::nullopt;
    }
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
formatReportFields(const QueryReport &report)
{
    std::ostringstream os;
    os << "\"fingerprint\": \"" << report.fingerprint << "\""
       << ", \"plan_hash\": \"" << report.planHash << "\""
       << ", \"source\": \"" << report.source << "\""
       << ", \"found\": " << (report.found ? "true" : "false")
       << ", \"period\": " << report.period
       << ", \"wall_sec\": " << jsonNumber(report.wallSec)
       << ", \"seeded_from\": \"" << report.seededFrom << "\""
       << ", \"seed_makespan\": " << report.seedMakespan
       << ", \"seed_nodes_pruned\": " << report.seedNodesPruned
       << ", \"value_sweeps\": " << report.valueSweeps
       << ", \"policy_improvements\": " << report.policyImprovements
       << ", \"solver_nodes\": " << report.solverNodes
       << ", \"sweep_ms\": " << jsonNumber(report.sweepMs)
       << ", \"warmup_ms\": " << jsonNumber(report.warmupMs)
       << ", \"cooldown_ms\": " << jsonNumber(report.cooldownMs)
       << ", \"phase_cap_hits\": " << report.phaseCapHits;
    if (report.replanned)
        os << ", \"replanned\": true";
    if (report.stale)
        os << ", \"stale\": true";
    if (report.degraded)
        os << ", \"degraded\": true";
    if (report.deadlineHit)
        os << ", \"deadline_hit\": true";
    return os.str();
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
    if (resp.admission == Admission::Accepted)
        os << ", " << formatReportFields(resp.report);
    if (resp.cancelled)
        os << ", \"cancelled\": true";
    if (!resp.error.empty())
        os << ", \"error\": \"" << jsonEscape(resp.error) << "\"";
    os << '}';
    return os.str();
}

} // namespace tessel
