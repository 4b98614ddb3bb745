#include "store/neighbor.h"

#include <algorithm>
#include <cmath>
#include <cstring>

#include "ir/cluster.h"
#include "support/io.h"

namespace tessel {

namespace {

/** Checksum domain for meta frames (distinct from plan payloads). */
constexpr uint64_t kMetaChecksumDomain = 0x5445535345'4c4d43ull; // "TESSELMC"

/** Relative difference in [0, 1): |a-b| scaled by magnitude so a span
 * delta of 2 matters on a 10-unit block and vanishes on a 10k one. */
double
relDiff(double a, double b)
{
    return std::fabs(a - b) / (1.0 + std::fabs(a) + std::fabs(b));
}

} // namespace

InstanceMeta
computeInstanceMeta(const Placement &placement, const TesselOptions &options)
{
    InstanceMeta meta;
    meta.fingerprint = fingerprintQuery(placement, options);
    meta.sub = subFingerprintsQuery(placement, options);
    meta.phaseOptions = phaseOptionsDigest(options);

    std::array<double, kFeatureCount> &f = meta.features;
    const int nb = placement.numBlocks();
    f[kFeatDevices] = placement.numDevices();
    f[kFeatBlocks] = nb;
    f[kFeatTotalWork] = static_cast<double>(placement.totalWork());
    f[kFeatCriticalPath] = static_cast<double>(placement.criticalPath());
    f[kFeatNrCap] = options.maxRepetendMicrobatches;
    f[kFeatMemLimit] =
        std::min(static_cast<double>(options.memLimit), kMemLimitFeatureCap);

    // Stage count = distinct device masks; with the few masks real
    // pipelines have, the quadratic scan beats hashing resource sets.
    int stages = 0;
    for (int i = 0; i < nb; ++i) {
        bool seen = false;
        for (int j = 0; j < i && !seen; ++j)
            seen = placement.block(i).devices == placement.block(j).devices;
        if (!seen)
            ++stages;
    }
    f[kFeatStages] = stages;

    // Span histogram: fraction of blocks per log2 bucket. Fractions
    // (not counts) so "same shape, more micro-batches" stays close.
    if (nb > 0) {
        int hist[4] = {0, 0, 0, 0};
        for (int i = 0; i < nb; ++i) {
            const double span =
                std::max(1.0, static_cast<double>(placement.block(i).span));
            const int bucket = std::min(
                3, static_cast<int>(std::floor(std::log2(span))));
            ++hist[bucket];
        }
        for (int b = 0; b < 4; ++b)
            f[kFeatSpanHist0 + b] = static_cast<double>(hist[b]) / nb;
    }

    if (options.cluster) {
        const ClusterModel &cluster = *options.cluster;
        f[kFeatLinkLatency] = cluster.defaultLink.latency;
        f[kFeatLinkTimePerMB] = cluster.defaultLink.timePerMB;
        double sum = 0.0, worst = 1.0;
        const int nd = placement.numDevices();
        for (int d = 0; d < nd; ++d) {
            const double s = cluster.speedOf(d);
            sum += s;
            worst = std::max(worst, s);
        }
        f[kFeatMeanSpeed] = nd > 0 ? sum / nd : 1.0;
        f[kFeatMaxSpeed] = worst;
    } else {
        f[kFeatMeanSpeed] = 1.0;
        f[kFeatMaxSpeed] = 1.0;
    }

    double volume = 0.0;
    for (const auto &[edge, mb] : options.edgeMB) {
        (void)edge;
        volume += mb;
    }
    f[kFeatEdgeVolume] = volume;

    return meta;
}

std::string
serializeMeta(const InstanceMeta &meta)
{
    ByteWriter body;
    body.u64(meta.fingerprint.lo);
    body.u64(meta.fingerprint.hi);
    body.u64(meta.sub.placement.lo);
    body.u64(meta.sub.placement.hi);
    body.u64(meta.sub.cluster.lo);
    body.u64(meta.sub.cluster.hi);
    body.u64(meta.sub.options.lo);
    body.u64(meta.sub.options.hi);
    body.u64(meta.phaseOptions.lo);
    body.u64(meta.phaseOptions.hi);
    body.u32(static_cast<uint32_t>(kFeatureCount));
    for (double v : meta.features)
        body.f64(v);

    const Hash128 checksum = hashBytes(body.data(), kMetaChecksumDomain);

    ByteWriter out;
    out.raw(kMetaMagic, sizeof(kMetaMagic));
    out.u32(kMetaFormatVersion);
    out.u64(checksum.lo);
    out.u64(checksum.hi);
    out.raw(body.data().data(), body.size());
    return out.data();
}

bool
deserializeMeta(const std::string &bytes, InstanceMeta *meta)
{
    ByteReader r(bytes);
    char magic[sizeof(kMetaMagic)];
    if (!r.raw(magic, sizeof(magic)) ||
        std::memcmp(magic, kMetaMagic, sizeof(magic)) != 0) {
        return false;
    }
    uint32_t version = 0;
    if (!r.u32(&version) || version != kMetaFormatVersion)
        return false;
    Hash128 stored;
    if (!r.u64(&stored.lo) || !r.u64(&stored.hi))
        return false;

    const size_t body_off = bytes.size() - r.remaining();
    const Hash128 actual =
        hashBytes(bytes.substr(body_off), kMetaChecksumDomain);
    if (actual != stored)
        return false;

    InstanceMeta out;
    bool ok = r.u64(&out.fingerprint.lo) && r.u64(&out.fingerprint.hi) &&
              r.u64(&out.sub.placement.lo) && r.u64(&out.sub.placement.hi) &&
              r.u64(&out.sub.cluster.lo) && r.u64(&out.sub.cluster.hi) &&
              r.u64(&out.sub.options.lo) && r.u64(&out.sub.options.hi) &&
              r.u64(&out.phaseOptions.lo) && r.u64(&out.phaseOptions.hi);
    uint32_t nfeat = 0;
    ok = ok && r.u32(&nfeat) && nfeat == kFeatureCount;
    for (size_t i = 0; ok && i < kFeatureCount; ++i)
        ok = r.f64(&out.features[i]);
    if (!ok || !r.atEnd())
        return false;
    *meta = out;
    return true;
}

double
neighborDistance(const InstanceMeta &a, const InstanceMeta &b)
{
    double d = 0.0;
    for (size_t i = 0; i < kFeatureCount; ++i) {
        const double r = relDiff(a.features[i], b.features[i]);
        d += r * r;
    }
    // Component mismatches are graded by how hard they are to adapt
    // across: a different placement structure usually means no
    // correspondence at all, a different cluster model just rescales
    // spans, a different options digest is often one budget knob.
    if (a.sub.placement != b.sub.placement)
        d += 0.25;
    if (a.sub.cluster != b.sub.cluster)
        d += 1.0 / 16.0;
    if (a.sub.options != b.sub.options)
        d += 1.0 / 64.0;
    return d;
}

void
NeighborIndex::add(const InstanceMeta &meta)
{
    std::lock_guard<std::mutex> lock(mu_);
    auto it = index_.find(meta.fingerprint);
    if (it != index_.end()) {
        metas_[it->second] = meta;
        return;
    }
    index_.emplace(meta.fingerprint, metas_.size());
    metas_.push_back(meta);
}

bool
NeighborIndex::remove(const Hash128 &fp)
{
    std::lock_guard<std::mutex> lock(mu_);
    auto it = index_.find(fp);
    if (it == index_.end())
        return false;
    const size_t pos = it->second;
    const size_t last = metas_.size() - 1;
    if (pos != last) {
        metas_[pos] = metas_[last];
        index_[metas_[pos].fingerprint] = pos;
    }
    metas_.pop_back();
    index_.erase(it);
    return true;
}

bool
NeighborIndex::find(const Hash128 &fp, InstanceMeta *meta) const
{
    std::lock_guard<std::mutex> lock(mu_);
    auto it = index_.find(fp);
    if (it == index_.end())
        return false;
    *meta = metas_[it->second];
    return true;
}

size_t
NeighborIndex::size() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return metas_.size();
}

std::vector<NeighborIndex::Neighbor>
NeighborIndex::nearest(const InstanceMeta &query, size_t k) const
{
    std::vector<Neighbor> out;
    if (k == 0)
        return out;
    std::lock_guard<std::mutex> lock(mu_);
    out.reserve(metas_.size());
    for (const InstanceMeta &meta : metas_) {
        if (meta.fingerprint == query.fingerprint)
            continue;
        out.push_back({meta.fingerprint, neighborDistance(query, meta)});
    }
    std::sort(out.begin(), out.end(),
              [](const Neighbor &x, const Neighbor &y) {
                  if (x.distance != y.distance)
                      return x.distance < y.distance;
                  return x.fingerprint < y.fingerprint;
              });
    if (out.size() > k)
        out.resize(k);
    return out;
}

} // namespace tessel
