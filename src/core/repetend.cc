#include "core/repetend.h"

#include <algorithm>

#include "placement/comm.h"
#include "support/logging.h"

namespace tessel {

int
enumerateRepetends(
    const Placement &placement, int nr,
    const std::function<bool(const RepetendAssignment &)> &yield)
{
    fatal_if(nr < 1, "enumerateRepetends: nr must be >= 1");
    const int k = placement.numBlocks();
    const std::vector<int> &topo = placement.topoOrder();

    std::vector<int> r(k, -1);
    int produced = 0;
    bool stopped = false;

    // DFS over specs in topological order; each spec's index is bounded
    // above by the minimum index among its dependencies (Property 4.2).
    std::function<void(int)> recurse = [&](int pos) {
        if (stopped)
            return;
        if (pos == k) {
            int lo = nr, hi = -1;
            for (int v : r) {
                lo = std::min(lo, v);
                hi = std::max(hi, v);
            }
            if (lo != 0 || hi != nr - 1)
                return; // Canonical form violation.
            RepetendAssignment a;
            a.r = r;
            a.numMicrobatches = nr;
            ++produced;
            if (!yield(a))
                stopped = true;
            return;
        }
        const int spec = topo[pos];
        int ub = nr - 1;
        for (int dep : placement.block(spec).deps)
            ub = std::min(ub, r[dep]);
        for (int v = ub; v >= 0 && !stopped; --v) {
            r[spec] = v;
            recurse(pos + 1);
        }
        r[spec] = -1;
    };
    recurse(0);
    return produced;
}

std::vector<RepetendAssignment>
allRepetends(const Placement &placement, int nr)
{
    std::vector<RepetendAssignment> out;
    enumerateRepetends(placement, nr, [&](const RepetendAssignment &a) {
        out.push_back(a);
        return true;
    });
    return out;
}

std::vector<Mem>
repetendEntryMem(const Placement &placement,
                 const RepetendAssignment &assign)
{
    std::vector<Mem> entry(placement.numDevices(), 0);
    for (int i = 0; i < placement.numBlocks(); ++i) {
        const BlockSpec &b = placement.block(i);
        for (DeviceId d : b.devices)
            entry[d] += static_cast<Mem>(assign.r[i]) * b.memory;
    }
    return entry;
}

std::vector<BlockRef>
warmupBlocks(const Placement &placement, const RepetendAssignment &assign)
{
    std::vector<BlockRef> out;
    for (int i = 0; i < placement.numBlocks(); ++i)
        for (int n = 0; n < assign.r[i]; ++n)
            out.push_back({i, n});
    return out;
}

std::vector<BlockRef>
cooldownBlocks(const Placement &placement, const RepetendAssignment &assign)
{
    std::vector<BlockRef> out;
    for (int i = 0; i < placement.numBlocks(); ++i)
        for (int n = assign.r[i] + 1; n < assign.numMicrobatches; ++n)
            out.push_back({i, n});
    return out;
}

int
calMaxInflight(const Placement &placement, Mem mem_limit,
               const std::vector<Mem> &initial_mem, int hard_cap)
{
    fatal_if(hard_cap < 1, "calMaxInflight: hard_cap must be >= 1");
    if (mem_limit >= kUnlimitedMem)
        return hard_cap;

    int max_inflight = hard_cap;
    for (DeviceId d = 0; d < placement.numDevices(); ++d) {
        // Memory one in-flight micro-batch retains on this device: all
        // its forward allocations before any backward release.
        Mem hold = 0;
        for (int i : placement.blocksOnDevice(d)) {
            const Mem m = placement.block(i).memory;
            if (m > 0)
                hold += m;
        }
        if (hold <= 0)
            continue;
        const Mem base =
            initial_mem.empty() ? 0 : initial_mem[d];
        const Mem avail = mem_limit - base;
        if (avail < hold)
            return 1; // Even one in-flight micro-batch barely fits.
        max_inflight = std::min<int>(
            max_inflight, static_cast<int>(avail / hold));
    }
    return std::max(1, max_inflight);
}

RepetendAssignment
extendAssignment(const CommExpansion &expansion,
                 const RepetendAssignment &orig)
{
    panic_if(static_cast<int>(orig.r.size()) !=
                 expansion.numOriginalBlocks(),
             "extendAssignment: assignment size mismatch");
    RepetendAssignment out;
    out.numMicrobatches = orig.numMicrobatches;
    out.r.resize(expansion.indexSpec.size());
    for (size_t i = 0; i < expansion.indexSpec.size(); ++i)
        out.r[i] = orig.r[expansion.indexSpec[i]];
    return out;
}

} // namespace tessel
