/**
 * @file
 * Heterogeneous cluster model consumed by the schedule search: per-device
 * speed factors plus a latency/bandwidth link model per device pair. The
 * default-constructed model is *trivial* (uniform speed, free links) and
 * is guaranteed to leave every search path bit-identical to the
 * homogeneous code; a non-trivial model turns cross-device dependency
 * edges into explicit communication blocks on link pseudo-devices (see
 * placement/comm.h) and scales block spans by the slowest participating
 * device.
 */

#ifndef TESSEL_IR_CLUSTER_H
#define TESSEL_IR_CLUSTER_H

#include <cmath>
#include <map>
#include <utility>
#include <vector>

#include "ir/types.h"

namespace tessel {

/** Cost parameters of one device-pair link (planner time units = ms). */
struct LinkParams
{
    /** Fixed per-transfer cost; charged even for zero-byte tensors. */
    double latency = 0.0;
    /** Inverse bandwidth: time units per MB transferred. */
    double timePerMB = 0.0;

    /** @return true when transfers over this link cost nothing. */
    bool
    free() const
    {
        return latency <= 0.0 && timePerMB <= 0.0;
    }
};

/**
 * Per-device speed factors and a per-pair link model.
 *
 * Speed factors are span multipliers (1.0 = reference device, 2.0 = a
 * device running at half the reference throughput). Links are keyed by
 * the *unordered* device pair: the transfer occupies a shared medium, so
 * the planner serializes transfers of the same pair on one link
 * pseudo-device regardless of direction.
 */
struct ClusterModel
{
    /** Per-device span multiplier; empty = uniform 1.0. */
    std::vector<double> speedFactor;
    /** Link used by pairs without an explicit override. */
    LinkParams defaultLink;
    /** Per-pair overrides, keyed by (min(a,b), max(a,b)). */
    std::map<std::pair<DeviceId, DeviceId>, LinkParams> linkOverride;

    /** @return the span multiplier of device @p d (1.0 past the vector). */
    double
    speedOf(DeviceId d) const
    {
        if (d < 0 || d >= static_cast<DeviceId>(speedFactor.size()))
            return 1.0;
        return speedFactor[d];
    }

    /** @return link parameters for the pair (a, b), order-insensitive. */
    const LinkParams &
    link(DeviceId a, DeviceId b) const
    {
        const auto key = a < b ? std::make_pair(a, b) : std::make_pair(b, a);
        const auto it = linkOverride.find(key);
        return it == linkOverride.end() ? defaultLink : it->second;
    }

    /**
     * Integer span of transferring @p size_mb MB between @p a and @p b.
     *
     * Rounds *up* so every transfer with a nonzero cost occupies at least
     * one planner time unit (a transfer the planner cannot see cannot be
     * scheduled around); a free link costs exactly 0.
     */
    Time
    transferSpan(DeviceId a, DeviceId b, double size_mb) const
    {
        const LinkParams &lp = link(a, b);
        const double raw = lp.latency + size_mb * lp.timePerMB;
        if (raw <= 0.0)
            return 0;
        return static_cast<Time>(std::ceil(raw));
    }

    /**
     * Span of a block executing on @p devices, scaled by the slowest
     * participating device (tensor-parallel groups run in lockstep).
     * Rounds up; a uniform factor of 1.0 returns @p span unchanged.
     */
    Time
    scaledSpan(Time span, const DeviceMask &devices) const
    {
        double worst = 1.0;
        for (DeviceId d : devices) {
            if (d >= static_cast<DeviceId>(speedFactor.size()))
                break;
            worst = worst > speedFactor[d] ? worst : speedFactor[d];
        }
        if (worst == 1.0)
            return span;
        const Time scaled =
            static_cast<Time>(std::ceil(static_cast<double>(span) * worst));
        return scaled < 1 ? 1 : scaled;
    }

    /**
     * Model where every device pair shares @p link and devices run at
     * uniform speed — the common case when the placement's logical
     * devices are pipeline stages joined by one fabric.
     */
    static ClusterModel
    uniformLink(int num_devices, const LinkParams &link)
    {
        ClusterModel model;
        model.speedFactor.assign(num_devices > 0 ? num_devices : 0, 1.0);
        model.defaultLink = link;
        return model;
    }

    /**
     * @return true when the model cannot change any schedule over
     * @p num_devices devices: uniform unit speed and all links free.
     */
    bool
    isTrivial(int num_devices) const
    {
        for (DeviceId d = 0; d < num_devices; ++d)
            if (speedOf(d) != 1.0)
                return false;
        if (!defaultLink.free())
            return false;
        for (const auto &[pair, lp] : linkOverride) {
            if (pair.first < num_devices && pair.second < num_devices &&
                !lp.free()) {
                return false;
            }
        }
        return true;
    }
};

/**
 * An observed change to a cluster: the difference between the model a
 * plan was produced under and the cluster as it is *now*. Drives the
 * elastic-replanning path (store/adapt.h prepareReplanSeed,
 * service/service.h PlanningService::replan).
 *
 * Speed and link entries carry the new *absolute* values, not ratios —
 * a monitoring agent reports "device 3 now runs at factor 2.0", and an
 * absolute delta applied twice is idempotent where a ratio would
 * compound. Keys are held in ordered maps, so two deltas touching
 * disjoint knobs compose commutatively and a delta's identity is
 * independent of insertion order.
 *
 * There is deliberately no delta-specific fingerprint: replans key
 * their store entries by fingerprintQuery() of the *applied* model
 * (applyDelta below), whose canonicalization already absorbs no-op
 * deltas (speeds re-set to 1.0, overrides equal to the default link) —
 * so "the same drifted cluster" always maps to the same entry no
 * matter which delta history produced it.
 */
struct ClusterDelta
{
    /** New absolute span multiplier per drifted device (> 0, finite). */
    std::map<DeviceId, double> speedFactor;
    /** New link parameters per drifted pair, keyed (min, max). */
    std::map<std::pair<DeviceId, DeviceId>, LinkParams> link;
    /** Devices that dropped out entirely (failure, not drift).
     * Survivors are re-indexed contiguously by applyDelta. */
    std::vector<DeviceId> removedDevices;

    /** @return true when the delta changes nothing at all. */
    bool
    empty() const
    {
        return speedFactor.empty() && link.empty() &&
               removedDevices.empty();
    }

    /** @return true when the delta removes at least one device. */
    bool
    removesDevices() const
    {
        return !removedDevices.empty();
    }
};

/**
 * The cluster after @p delta: @p base with the drifted speeds and links
 * overwritten, then the removed devices compacted out (survivor d maps
 * to d minus the number of removed devices below it; link overrides
 * touching a removed device are dropped, the rest are re-keyed; the
 * default link is unchanged). @p num_devices is the device count @p
 * base describes — needed because a trivial model stores no explicit
 * width.
 *
 * Validation is fatal (these are caller errors, not data errors):
 * indices out of [0, num_devices), non-positive or non-finite speed
 * factors, negative link parameters, duplicate removals, and removing
 * every device all abort with a message.
 */
ClusterModel applyDelta(const ClusterModel &base, const ClusterDelta &delta,
                        int num_devices);

} // namespace tessel

#endif // TESSEL_IR_CLUSTER_H
