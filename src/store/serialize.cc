#include "store/serialize.h"

#include <cstring>

#include "support/io.h"

namespace tessel {

namespace {

/**
 * Magnitude caps on deserialized quantities. The wire format could
 * carry any int64, but downstream arithmetic (tryInstantiate's
 * theta0/stride sums, the oracle's peak-memory accumulation) adds and
 * scales these values; capping magnitudes at 2^38 and the total block
 * instances at 2^24 keeps every such expression provably inside int64
 * (2^24 instances x 2^38 max |delta| < 2^63) and bounds the memory the
 * verification of a hostile entry can allocate. Real plans are orders
 * of magnitude below both limits (spans are milliseconds-scale
 * integers, NR <= maxRepetendMicrobatches). Placement allocates per
 * device, so the device count (link pseudo-devices included) is capped
 * at 2^16: an unchecked 2^31 would demand tens of gigabytes.
 */
constexpr int64_t kMaxSerializedMagnitude = int64_t{1} << 38;
constexpr int64_t kMaxSerializedInstances = int64_t{1} << 24;
constexpr int32_t kMaxSerializedDevices = int32_t{1} << 16;

bool
magnitudeOk(int64_t v)
{
    return v >= -kMaxSerializedMagnitude && v <= kMaxSerializedMagnitude;
}

// ------------------------------------------------------------- writing

void
writeMask(ByteWriter &w, const DeviceMask &mask)
{
    // Canonical form: popcount + ascending set-bit indices. Capacity
    // history can never leak into the bytes, so serialization is as
    // capacity-invariant as the fingerprint.
    w.u32(static_cast<uint32_t>(mask.count()));
    for (int bit : mask)
        w.i32(bit);
}

void
writePlacement(ByteWriter &w, const Placement &p)
{
    w.str(p.name());
    w.i32(p.numDevices());
    w.u32(static_cast<uint32_t>(p.numBlocks()));
    for (int i = 0; i < p.numBlocks(); ++i) {
        const BlockSpec &b = p.block(i);
        w.str(b.name);
        w.u8(static_cast<uint8_t>(b.kind));
        writeMask(w, b.devices);
        w.i64(b.span);
        w.i64(b.memory);
        w.u32(static_cast<uint32_t>(b.deps.size()));
        for (int dep : b.deps)
            w.i32(dep);
    }
}

void
writeRefs(ByteWriter &w, const std::vector<BlockRef> &refs)
{
    w.u32(static_cast<uint32_t>(refs.size()));
    for (const BlockRef &r : refs) {
        w.i32(r.spec);
        w.i32(r.mb);
    }
}

void
writeTimes(ByteWriter &w, const std::vector<Time> &times)
{
    w.u32(static_cast<uint32_t>(times.size()));
    for (Time t : times)
        w.i64(t);
}

void
writePlan(ByteWriter &w, const TesselPlan &plan)
{
    writePlacement(w, plan.placement());
    const RepetendAssignment &a = plan.assignment();
    w.i32(a.numMicrobatches);
    w.u32(static_cast<uint32_t>(a.r.size()));
    for (int r : a.r)
        w.i32(r);
    writeTimes(w, plan.windowStart());
    w.i64(plan.period());
    w.i64(plan.windowSpan());
    writeRefs(w, plan.warmupRefs());
    writeTimes(w, plan.warmupStarts());
    writeRefs(w, plan.cooldownRefs());
    writeTimes(w, plan.cooldownStarts());
    w.i64(plan.memLimit());
    w.u32(static_cast<uint32_t>(plan.initialMem().size()));
    for (Mem m : plan.initialMem())
        w.i64(m);
}

/** The plan-frame payload: every plan-semantic field of @p result. */
ByteWriter
writePayload(const TesselResult &result)
{
    ByteWriter payload;
    payload.boolean(result.found);
    payload.boolean(result.commAware);
    payload.i64(result.period);
    payload.i64(result.lowerBound);
    payload.i32(result.nrUsed);
    const bool has_plan = result.plan.placement().numBlocks() > 0;
    payload.boolean(has_plan);
    if (has_plan)
        writePlan(payload, result.plan);
    return payload;
}

// ------------------------------------------------------------- reading
//
// Every reader either fills its output and returns true, or returns
// false with the ByteReader's failure flag latched / an error already
// composed by the caller. Placement and TesselPlan invariants are
// re-checked here because their constructors fatal()/panic() on
// violations — untrusted bytes must be fully vetted first.

/** A device mask whose bits are all below @p num_devices. */
bool
readMask(ByteReader &r, int32_t num_devices, DeviceMask *out)
{
    uint32_t n;
    if (!r.count(&n, 4))
        return false;
    DeviceMask mask;
    int prev = -1;
    for (uint32_t i = 0; i < n; ++i) {
        int32_t bit;
        if (!r.i32(&bit))
            return false;
        // Canonical encoding is strictly ascending and non-negative.
        if (bit <= prev || bit < 0 || bit >= num_devices) {
            r.markFailed();
            return false;
        }
        mask.set(bit);
        prev = bit;
    }
    *out = std::move(mask);
    return true;
}

bool
readPlacement(ByteReader &r, Placement *out, std::string *err)
{
    std::string name;
    int32_t num_devices;
    uint32_t num_blocks;
    if (!r.str(&name) || !r.i32(&num_devices) || !r.count(&num_blocks, 25)) {
        *err = "placement header truncated";
        return false;
    }
    if (num_devices <= 0 || num_blocks == 0) {
        *err = "placement has no devices or no blocks";
        return false;
    }
    if (num_devices > kMaxSerializedDevices) {
        *err = "placement device count out of bounds";
        return false;
    }
    std::vector<BlockSpec> blocks;
    blocks.reserve(num_blocks);
    for (uint32_t i = 0; i < num_blocks; ++i) {
        BlockSpec b;
        uint8_t kind;
        uint32_t num_deps;
        if (!r.str(&b.name) || !r.u8(&kind) ||
            !readMask(r, num_devices, &b.devices) ||
            !r.i64(&b.span) || !r.i64(&b.memory) || !r.count(&num_deps, 4)) {
            *err = "placement block truncated or has out-of-range devices";
            return false;
        }
        if (kind > static_cast<uint8_t>(BlockKind::Comm)) {
            *err = "placement block has invalid kind";
            return false;
        }
        b.kind = static_cast<BlockKind>(kind);
        if (b.devices.empty()) {
            *err = "placement block has no devices";
            return false;
        }
        if (b.span <= 0 || b.span > kMaxSerializedMagnitude ||
            !magnitudeOk(b.memory)) {
            *err = "placement block span/memory out of bounds";
            return false;
        }
        b.deps.reserve(num_deps);
        for (uint32_t d = 0; d < num_deps; ++d) {
            int32_t dep;
            if (!r.i32(&dep)) {
                *err = "placement deps truncated";
                return false;
            }
            if (dep < 0 || dep >= static_cast<int32_t>(num_blocks) ||
                dep == static_cast<int32_t>(i)) {
                *err = "placement dependency out of range";
                return false;
            }
            b.deps.push_back(dep);
        }
        blocks.push_back(std::move(b));
    }

    // Acyclicity (Kahn): Placement's constructor fatal()s on cycles, so
    // prove the DAG property before letting it run.
    std::vector<int> indeg(num_blocks, 0);
    std::vector<std::vector<int>> succs(num_blocks);
    for (uint32_t i = 0; i < num_blocks; ++i) {
        for (int dep : blocks[i].deps) {
            succs[dep].push_back(static_cast<int>(i));
            ++indeg[i];
        }
    }
    std::vector<int> ready;
    for (uint32_t i = 0; i < num_blocks; ++i)
        if (indeg[i] == 0)
            ready.push_back(static_cast<int>(i));
    uint32_t seen = 0;
    while (!ready.empty()) {
        const int i = ready.back();
        ready.pop_back();
        ++seen;
        for (int s : succs[i])
            if (--indeg[s] == 0)
                ready.push_back(s);
    }
    if (seen != num_blocks) {
        *err = "placement dependency graph has a cycle";
        return false;
    }

    *out = Placement(std::move(name), num_devices, std::move(blocks));
    return true;
}

bool
readRefs(ByteReader &r, std::vector<BlockRef> *out, int num_specs, int nr)
{
    uint32_t n;
    if (!r.count(&n, 8))
        return false;
    out->clear();
    out->reserve(n);
    for (uint32_t i = 0; i < n; ++i) {
        BlockRef ref;
        if (!r.i32(&ref.spec) || !r.i32(&ref.mb))
            return false;
        if (ref.spec < 0 || ref.spec >= num_specs || ref.mb < 0 ||
            ref.mb >= nr) {
            r.markFailed();
            return false;
        }
        out->push_back(ref);
    }
    return true;
}

bool
readTimes(ByteReader &r, std::vector<Time> *out, bool non_negative)
{
    uint32_t n;
    if (!r.count(&n, 8))
        return false;
    out->clear();
    out->reserve(n);
    for (uint32_t i = 0; i < n; ++i) {
        Time t;
        if (!r.i64(&t))
            return false;
        if (non_negative && (t < 0 || t > kMaxSerializedMagnitude)) {
            r.markFailed();
            return false;
        }
        out->push_back(t);
    }
    return true;
}

bool
readPlan(ByteReader &r, TesselPlan *out, std::string *err)
{
    Placement placement;
    if (!readPlacement(r, &placement, err))
        return false;
    const int k = placement.numBlocks();

    RepetendAssignment assign;
    uint32_t num_r;
    if (!r.i32(&assign.numMicrobatches) || !r.count(&num_r, 4)) {
        *err = "plan assignment truncated";
        return false;
    }
    if (assign.numMicrobatches < 1 ||
        num_r != static_cast<uint32_t>(k)) {
        *err = "plan assignment malformed";
        return false;
    }
    // Verification instantiates NR + 1 micro-batches over k specs; cap
    // the instance count so a tiny hostile file cannot demand a
    // gigantic schedule allocation (a 6-block plan claiming NR = 2^30
    // would otherwise ask for 2^33 start slots).
    if (static_cast<int64_t>(k) * (assign.numMicrobatches + int64_t{1}) >
        kMaxSerializedInstances) {
        *err = "plan instance count out of bounds";
        return false;
    }
    assign.r.reserve(num_r);
    for (uint32_t i = 0; i < num_r; ++i) {
        int32_t ri;
        if (!r.i32(&ri)) {
            *err = "plan assignment truncated";
            return false;
        }
        if (ri < 0 || ri >= assign.numMicrobatches) {
            *err = "plan repetend index out of range";
            return false;
        }
        assign.r.push_back(ri);
    }

    std::vector<Time> window_start;
    Time period, window_span;
    if (!readTimes(r, &window_start, true) || !r.i64(&period) ||
        !r.i64(&window_span)) {
        *err = "plan window truncated";
        return false;
    }
    if (static_cast<int>(window_start.size()) != k || period < 0 ||
        period > kMaxSerializedMagnitude || window_span < 0 ||
        window_span > kMaxSerializedMagnitude) {
        *err = "plan window malformed";
        return false;
    }

    std::vector<BlockRef> warmup_refs, cooldown_refs;
    std::vector<Time> warmup_start, cooldown_start;
    if (!readRefs(r, &warmup_refs, k, assign.numMicrobatches) ||
        !readTimes(r, &warmup_start, true) ||
        !readRefs(r, &cooldown_refs, k, assign.numMicrobatches) ||
        !readTimes(r, &cooldown_start, true)) {
        *err = "plan phases truncated or out of range";
        return false;
    }
    if (warmup_refs.size() != warmup_start.size() ||
        cooldown_refs.size() != cooldown_start.size()) {
        *err = "plan phase sizes inconsistent";
        return false;
    }

    Mem mem_limit;
    uint32_t num_mem;
    if (!r.i64(&mem_limit) || !r.count(&num_mem, 8)) {
        *err = "plan memory truncated";
        return false;
    }
    std::vector<Mem> initial_mem;
    initial_mem.reserve(num_mem);
    for (uint32_t i = 0; i < num_mem; ++i) {
        Mem m;
        if (!r.i64(&m)) {
            *err = "plan memory truncated";
            return false;
        }
        // memLimit is only ever compared (kUnlimitedMem is legal), but
        // initial memory enters the peak-usage sums — cap it.
        if (!magnitudeOk(m)) {
            *err = "plan initial memory out of bounds";
            return false;
        }
        initial_mem.push_back(m);
    }

    // All TesselPlan constructor panic_ifs are now provably satisfied.
    *out = TesselPlan(std::move(placement), std::move(assign),
                      std::move(window_start), period, window_span,
                      std::move(warmup_refs), std::move(warmup_start),
                      std::move(cooldown_refs), std::move(cooldown_start),
                      mem_limit, std::move(initial_mem));
    return true;
}

} // namespace

std::string
serializeResult(const TesselResult &result, const Hash128 &fingerprint,
                Hash128 *digest)
{
    const ByteWriter payload = writePayload(result);
    const Hash128 hash = hashBytes(payload.data());
    if (digest)
        *digest = hash;

    ByteWriter out;
    out.raw(kPlanMagic, sizeof(kPlanMagic));
    out.u32(kPlanFormatVersion);
    out.u64(fingerprint.lo);
    out.u64(fingerprint.hi);
    out.u64(payload.size());
    out.raw(payload.data().data(), payload.size());
    out.u64(hash.lo);
    return out.data();
}

Hash128
resultPlanDigest(const TesselResult &result)
{
    return hashBytes(writePayload(result).data());
}

LoadedResult
deserializeResult(const std::string &bytes)
{
    LoadedResult loaded;
    ByteReader r(bytes);

    char magic[sizeof(kPlanMagic)];
    if (!r.raw(magic, sizeof(magic)) ||
        std::memcmp(magic, kPlanMagic, sizeof(magic)) != 0) {
        loaded.error = "bad magic (not a Tessel plan file)";
        return loaded;
    }
    uint32_t version;
    if (!r.u32(&version)) {
        loaded.error = "header truncated";
        return loaded;
    }
    if (version != kPlanFormatVersion) {
        loaded.error = "unsupported plan format version " +
                       std::to_string(version) + " (expected " +
                       std::to_string(kPlanFormatVersion) + ")";
        return loaded;
    }
    uint64_t payload_len;
    if (!r.u64(&loaded.fingerprint.lo) || !r.u64(&loaded.fingerprint.hi) ||
        !r.u64(&payload_len)) {
        loaded.error = "header truncated";
        return loaded;
    }
    // Bound first: a hostile length near 2^64 must not reach the
    // pointer arithmetic below.
    if (payload_len > r.remaining() || payload_len + 8 != r.remaining()) {
        loaded.error = "payload length mismatch (truncated or padded file)";
        return loaded;
    }
    const size_t payload_off = bytes.size() - r.remaining();
    const std::string payload = bytes.substr(payload_off, payload_len);
    ByteReader tail(bytes.data() + payload_off + payload_len, 8);
    uint64_t checksum;
    tail.u64(&checksum);
    loaded.digest = hashBytes(payload);
    if (checksum != loaded.digest.lo) {
        loaded.error = "payload checksum mismatch (corrupted entry)";
        return loaded;
    }

    ByteReader p(payload);
    TesselResult &res = loaded.result;
    if (!p.boolean(&res.found) || !p.boolean(&res.commAware) ||
        !p.i64(&res.period) || !p.i64(&res.lowerBound) ||
        !p.i32(&res.nrUsed)) {
        loaded.error = "result header malformed";
        return loaded;
    }

    bool has_plan;
    if (!p.boolean(&has_plan)) {
        loaded.error = "plan flag malformed";
        return loaded;
    }
    if (has_plan) {
        std::string err;
        if (!readPlan(p, &res.plan, &err)) {
            loaded.error = "plan malformed: " + err;
            return loaded;
        }
    }

    if (!p.atEnd()) {
        loaded.error = "trailing bytes after payload";
        return loaded;
    }
    loaded.ok = true;
    return loaded;
}

} // namespace tessel
