#include "placement/comm.h"

#include <set>
#include <string>

#include "support/logging.h"

namespace tessel {

Schedule
CommExpansion::projectSchedule(const Schedule &expanded) const
{
    const Problem &exp_prob = expanded.problem();
    panic_if(exp_prob.placement().numBlocks() != placement.numBlocks(),
             "projectSchedule: schedule is not over the expanded placement");

    // Rebuild the original placement from the expansion's leading specs:
    // undo the span scaling is impossible here, so the projection keeps
    // the *scaled* spans — it answers "where does real work run", not
    // "what would the homogeneous plan be".
    std::vector<BlockSpec> specs;
    for (int i = 0; i < placement.numBlocks(); ++i) {
        if (origSpec[i] < 0)
            continue;
        BlockSpec b = placement.block(i);
        std::vector<int> deps;
        for (int dep : b.deps)
            if (origSpec[dep] >= 0)
                deps.push_back(origSpec[dep]);
        b.deps = std::move(deps);
        specs.push_back(std::move(b));
    }
    Placement orig(placement.name() + "-projected", numRealDevices,
                   std::move(specs));

    Problem prob(std::move(orig), exp_prob.numMicrobatches(),
                 exp_prob.memLimit());
    std::vector<Mem> init(exp_prob.initialMem().begin(),
                          exp_prob.initialMem().begin() + numRealDevices);
    prob.setInitialMem(std::move(init));

    Schedule out(prob);
    for (int i = 0; i < placement.numBlocks(); ++i) {
        if (origSpec[i] < 0)
            continue;
        for (int mb = 0; mb < exp_prob.numMicrobatches(); ++mb)
            out.setStart({origSpec[i], mb}, expanded.start({i, mb}));
    }
    return out;
}

namespace {

/**
 * Enumerate the transfers the lowering emits for @p placement:
 * fn(producer spec, consumer spec, src device, dst device, span) for
 * every cross-device dependency edge with a nonzero transfer cost.
 * Shared by expandWithComm and commResourceDemand so the dry run and
 * the expansion can never disagree.
 */
template <typename Fn>
void
forEachTransfer(const Placement &placement, const ClusterModel &cluster,
                const std::map<std::pair<int, int>, double> &edge_mb,
                const CommOptions &options, Fn &&fn)
{
    for (int j = 0; j < placement.numBlocks(); ++j) {
        const BlockSpec &consumer = placement.block(j);
        for (int i : consumer.deps) {
            const BlockSpec &producer = placement.block(i);
            const DeviceId src = lowestDevice(producer.devices);
            double mb = 0.0;
            if (auto it = edge_mb.find({i, j}); it != edge_mb.end())
                mb = it->second;
            for (DeviceId dst : consumer.devices) {
                if (producer.devices.test(dst))
                    continue; // Output already resident.
                const Time span = cluster.transferSpan(src, dst, mb);
                if (span > 0)
                    fn(i, j, src, dst, span);
                if (options.granularity ==
                    CommOptions::Granularity::PerEdge) {
                    break; // Lead destination only.
                }
            }
        }
    }
}

} // namespace

CommExpansion
expandWithComm(const Placement &placement, const ClusterModel &cluster,
               const std::map<std::pair<int, int>, double> &edge_mb,
               const CommOptions &options)
{
    const int k = placement.numBlocks();
    const int nd = placement.numDevices();

    CommExpansion exp;
    exp.numRealDevices = nd;

    // Original specs first, indices preserved, spans scaled by the
    // slowest participating device.
    std::vector<BlockSpec> specs;
    specs.reserve(k);
    for (int i = 0; i < k; ++i) {
        BlockSpec b = placement.block(i);
        b.span = cluster.scaledSpan(b.span, b.devices);
        specs.push_back(std::move(b));
        exp.origSpec.push_back(i);
        exp.indexSpec.push_back(i);
    }

    // Link pseudo-devices are allocated lazily for pairs that carry a
    // transfer with a nonzero cost. Device masks are width-generic
    // (support/resourceset.h), so any number of links past the real
    // device count is representable; PerEdge granularity remains as an
    // explicit option to bound the link count itself.
    std::map<std::pair<DeviceId, DeviceId>, DeviceId> link_of;
    auto link_device = [&](DeviceId a, DeviceId b) {
        const auto key =
            a < b ? std::make_pair(a, b) : std::make_pair(b, a);
        const auto next =
            static_cast<DeviceId>(nd + exp.linkEndpoints.size());
        auto [it, inserted] = link_of.try_emplace(key, next);
        if (inserted)
            exp.linkEndpoints.push_back(key);
        return it->second;
    };

    forEachTransfer(
        placement, cluster, edge_mb, options,
        [&](int i, int j, DeviceId src, DeviceId dst, Time span) {
            BlockSpec c;
            c.name = "c:" + placement.block(i).name + ">" +
                     placement.block(j).name + "@" + std::to_string(dst);
            c.kind = BlockKind::Comm;
            c.devices = oneDevice(link_device(src, dst));
            c.span = span;
            c.memory = 0;
            c.deps = {i};
            const int comm_spec = static_cast<int>(specs.size());
            specs.push_back(std::move(c));
            exp.origSpec.push_back(-1);
            exp.indexSpec.push_back(j);
            specs[j].deps.push_back(comm_spec);
        });

    exp.numLinks = static_cast<int>(exp.linkEndpoints.size());
    exp.placement = Placement(placement.name() + "+comm", nd + exp.numLinks,
                              std::move(specs));
    return exp;
}

int
commResourceDemand(const Placement &placement, const ClusterModel &cluster,
                   const std::map<std::pair<int, int>, double> &edge_mb,
                   const CommOptions &options)
{
    std::set<std::pair<DeviceId, DeviceId>> links;
    forEachTransfer(placement, cluster, edge_mb, options,
                    [&](int, int, DeviceId src, DeviceId dst, Time) {
                        links.insert(src < dst ? std::make_pair(src, dst)
                                               : std::make_pair(dst, src));
                    });
    return placement.numDevices() + static_cast<int>(links.size());
}

std::map<std::pair<int, int>, double>
crossDeviceEdgeMB(const Placement &placement, double mb)
{
    std::map<std::pair<int, int>, double> edges;
    for (int j = 0; j < placement.numBlocks(); ++j) {
        for (int i : placement.block(j).deps) {
            if (placement.block(i).devices != placement.block(j).devices)
                edges[{i, j}] = mb;
        }
    }
    return edges;
}

} // namespace tessel
