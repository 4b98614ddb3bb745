#include "store/store.h"

#include <algorithm>
#include <cctype>
#include <chrono>

#include "placement/comm.h"
#include "solver/from_ir.h"
#include "solver/oracle.h"
#include "store/serialize.h"
#include "support/io.h"
#include "support/logging.h"
#include "support/metrics.h"
#include "support/tracing.h"

namespace tessel {

namespace {

/**
 * Decode the meta frame that ends entry @p bytes into @p meta and strip
 * it, leaving the plan frame. False when the frame is missing or
 * corrupt, or names another fingerprint than @p fp.
 */
bool
takeEntryMeta(std::string *bytes, const Hash128 &fp, InstanceMeta *meta)
{
    if (bytes->size() < kMetaFrameBytes ||
        !deserializeMeta(bytes->substr(bytes->size() - kMetaFrameBytes),
                         meta) ||
        meta->fingerprint != fp)
        return false;
    bytes->resize(bytes->size() - kMetaFrameBytes);
    return true;
}

/** Decode the entry @p bytes read for @p fp; !ok says why it is
 * corrupt. */
LoadedResult
loadEntry(std::string bytes, const Hash128 &fp)
{
    InstanceMeta meta;
    if (!takeEntryMeta(&bytes, fp, &meta)) {
        LoadedResult corrupt;
        corrupt.error = "meta frame missing, corrupt or for another "
                        "fingerprint";
        return corrupt;
    }
    LoadedResult loaded = deserializeResult(bytes);
    if (loaded.ok && loaded.fingerprint != fp) {
        loaded.ok = false;
        loaded.error = "entry fingerprint does not match its file name";
    }
    return loaded;
}

} // namespace

SharedPlan
makeSharedPlan(TesselResult result)
{
    SharedPlan plan;
    plan.digest = resultPlanDigest(result);
    plan.result = std::make_shared<const TesselResult>(std::move(result));
    return plan;
}

VerifyOutcome
verifyResultSelfConsistent(const TesselResult &result)
{
    VerifyOutcome out;
    // A stored "no plan found" is a legitimate answer: the service
    // stores one only when no deadline cut its search short. There is
    // nothing to schedule.
    if (!result.found) {
        if (result.plan.placement().numBlocks() != 0)
            out.reason = "not-found result carries a plan";
        else
            out.ok = true;
        return out;
    }
    if (result.period != result.plan.period()) {
        out.reason = "result period != plan period";
        return out;
    }
    // Instantiate at NR + 1 — one extra micro-batch beyond the smallest
    // supported N, so the verification exercises the periodic layout (a
    // second window instance at stride P) and the cooldown retiming,
    // not just the solved phases — then run the oracle's full
    // constraint check (dependencies, device/link exclusivity, release
    // times, peak memory) on the materialized schedule.
    if (result.plan.minMicrobatches() < 1) {
        out.reason = "plan supports no micro-batches";
        return out;
    }
    const int n = result.plan.minMicrobatches() + 1;
    std::string inst_err;
    const std::optional<Schedule> sched =
        result.plan.tryInstantiate(n, &inst_err);
    if (!sched) {
        out.reason = "plan failed to instantiate: " + inst_err;
        return out;
    }
    const Problem prob = result.plan.problemFor(n);
    const SolverProblem solver_prob = buildFullInstance(prob);
    const std::vector<Time> starts = startsFromSchedule(prob, *sched);
    const OracleVerdict verdict = verifySolverSchedule(solver_prob, starts);
    if (!verdict.ok) {
        out.reason = "oracle rejected instantiated schedule: " +
                     verdict.message;
        return out;
    }
    out.ok = true;
    return out;
}

VerifyOutcome
verifyResultAgainstQuery(const Placement &placement,
                         const TesselOptions &options,
                         const TesselResult &result)
{
    // The stored plan must schedule exactly the placement this query
    // would search: the comm-expanded placement when the query is
    // comm-aware, the original otherwise. Lowering the query here is
    // what ties a comm-aware entry to the cluster model of the
    // *current* query rather than whatever produced the file.
    VerifyOutcome out;
    const bool comm_aware =
        options.cluster &&
        !options.cluster->isTrivial(placement.numDevices());
    if (comm_aware != result.commAware) {
        out.reason = "comm-awareness mismatch between query and entry";
        return out;
    }
    if (comm_aware)
        out.expansion = expandWithComm(placement, *options.cluster,
                                       options.edgeMB, options.comm);
    // Placements compare *structurally* (display names ignored): the
    // fingerprint excludes names, so a query differing only in names
    // maps to this entry and must be served by it, not rejected.
    const Placement &expected =
        comm_aware ? out.expansion->placement : placement;
    if (result.found &&
        !result.plan.placement().structurallyEquals(expected)) {
        out.reason = comm_aware ? "stored plan placement != comm-expanded "
                                  "query placement"
                                : "stored plan placement != query placement";
        return out;
    }

    VerifyOutcome schedule = verifyResultSelfConsistent(result);
    schedule.expansion = std::move(out.expansion);
    return schedule;
}

// ----------------------------------------------------------- PlanStore

std::string
PlanStore::shardDirFor(const Hash128 &fp) const
{
    return dir_ + "/" + fp.hex().substr(0, 2);
}

std::string
PlanStore::pathFor(const Hash128 &fp) const
{
    return shardDirFor(fp) + "/" + fp.hex() + ".plan";
}

bool
PlanStore::put(const Hash128 &fp, const std::string &bytes)
{
    std::string err;
    if (!ensureDir(shardDirFor(fp), &err)) {
        warn("plan store: ", err);
        return false;
    }
    if (!writeFileAtomic(pathFor(fp), bytes, &err)) {
        warn("plan store: ", err);
        return false;
    }
    return true;
}

bool
PlanStore::get(const Hash128 &fp, std::string *bytes) const
{
    const std::string path = pathFor(fp);
    if (!fileExists(path))
        return false;
    std::string err;
    if (!readFile(path, bytes, &err)) {
        warn("plan store: ", err);
        return false;
    }
    return true;
}

bool
PlanStore::remove(const Hash128 &fp)
{
    return removeFile(pathFor(fp));
}

std::vector<Hash128>
PlanStore::list() const
{
    std::vector<Hash128> out;
    for (const std::string &shard : listDirSubdirs(dir_)) {
        // Prefix shards are exactly two hex digits; skip foreign dirs.
        if (shard.size() != 2 ||
            !std::isxdigit(static_cast<unsigned char>(shard[0])) ||
            !std::isxdigit(static_cast<unsigned char>(shard[1])))
            continue;
        for (const std::string &name :
             listDirFiles(dir_ + "/" + shard, ".plan")) {
            Hash128 fp;
            if (Hash128::fromHex(name.substr(0, name.size() - 5), &fp))
                out.push_back(fp);
        }
    }
    return out;
}

// ----------------------------------------------------------- PlanCache

PlanCache::PlanCache(std::string dir, PlanCacheOptions options)
    : store_(std::move(dir)), options_(options)
{
    // Distribute the requested capacity exactly: every unit of
    // memoryCapacity lands in exactly one shard (low shards absorb the
    // remainder one entry each), and a capacity below the shard count
    // clamps the shard count instead of silently inflating capacity.
    const size_t capacity = std::max<size_t>(1, options_.memoryCapacity);
    const size_t nshards =
        std::max<size_t>(1, std::min(options_.shards, capacity));
    shards_.reserve(nshards);
    for (size_t s = 0; s < nshards; ++s) {
        auto shard = std::make_unique<Shard>();
        shard->capacity = capacity / nshards + (s < capacity % nshards);
        shard->snap = std::make_shared<Snapshot>();
        shards_.push_back(std::move(shard));
    }

    // Rebuild the neighbor index from the entries already on disk so a
    // reopened store seeds searches immediately. Only each entry's meta
    // frame is decoded here; a corrupt one is skipped, and the first
    // get() or revalidation sweep that reads the entry removes it.
    for (const Hash128 &fp : store_.list()) {
        std::string bytes;
        InstanceMeta meta;
        if (store_.get(fp, &bytes) && takeEntryMeta(&bytes, fp, &meta))
            neighborIndex_.add(meta);
    }

    metricsSource_ = MetricsRegistry::instance().addSource(
        [this](std::vector<MetricSample> &out) {
            const StoreStats s = stats();
            const std::pair<const char *, uint64_t> counters[] = {
                {"store.memory_hits", s.memoryHits},
                {"store.disk_hits", s.diskHits},
                {"store.misses", s.misses},
                {"store.stores", s.stores},
                {"store.verify_failures", s.verifyFailures},
                {"store.evictions", s.evictions},
                {"store.lock_contended", s.lockContended},
                {"store.neighbor_fetches", s.neighborFetches},
                {"store.revalidated", s.revalidated},
                {"store.gc_removed", s.gcRemoved},
            };
            for (const auto &c : counters)
                out.push_back(MetricSample::counter(c.first, c.second));
        });
}

PlanCache::~PlanCache()
{
    MetricsRegistry::instance().removeSource(metricsSource_);
    stopRevalidation();
}

PlanCache::Shard &
PlanCache::shardFor(const Hash128 &fp)
{
    return *shards_[Hash128Hasher()(fp) % shards_.size()];
}

const PlanCache::Shard &
PlanCache::shardFor(const Hash128 &fp) const
{
    return *shards_[Hash128Hasher()(fp) % shards_.size()];
}

std::shared_ptr<const PlanCache::Snapshot>
PlanCache::loadSnapshot(const Shard &shard) const
{
    return std::atomic_load_explicit(&shard.snap,
                                     std::memory_order_acquire);
}

std::unique_lock<std::mutex>
PlanCache::lockWriter(Shard &shard)
{
    std::unique_lock<std::mutex> lock(shard.writerMu, std::try_to_lock);
    if (!lock.owns_lock()) {
        lockContended_.fetch_add(1, std::memory_order_relaxed);
        lock.lock();
    }
    return lock;
}

SharedPlan
PlanCache::getMemory(const Hash128 &fp)
{
    // Hot path: snapshot lookup without the writer lock, sharing the
    // resident. The access stamp feeds the approximate-LRU eviction;
    // relaxed order suffices (it only ranks entries, it never orders
    // memory).
    Shard &shard = shardFor(fp);
    const std::shared_ptr<const Snapshot> snap = loadSnapshot(shard);
    const auto it = snap->map.find(fp);
    if (it == snap->map.end())
        return {};
    it->second.lastUsed->store(
        tick_.fetch_add(1, std::memory_order_relaxed) + 1,
        std::memory_order_relaxed);
    shard.memoryHits.fetch_add(1, std::memory_order_relaxed);
    return it->second.plan;
}

SharedPlan
PlanCache::getShared(const Hash128 &fp, const Placement &placement,
                     const TesselOptions &options, Source *source)
{
    if (source)
        *source = Source::Miss;
    if (SharedPlan hit = getMemory(fp)) {
        if (source)
            *source = Source::Memory;
        return hit;
    }

    // Disk tier: read, decode, and verify without holding any lock so
    // slow entries do not serialize unrelated readers.
    Shard &shard = shardFor(fp);
    std::string bytes;
    {
        TraceSpan span("disk-io");
        if (!store_.get(fp, &bytes)) {
            shard.misses.fetch_add(1, std::memory_order_relaxed);
            return {};
        }
        span.setArg("bytes", bytes.size());
    }

    LoadedResult loaded = loadEntry(std::move(bytes), fp);
    VerifyOutcome verdict;
    if (loaded.ok) {
        TraceSpan span("verify");
        verdict = verifyResultAgainstQuery(placement, options, loaded.result);
        if (!verdict.ok) {
            loaded.ok = false;
            loaded.error = verdict.reason;
        }
    }
    if (!loaded.ok) {
        warn("plan store: rejecting entry ", fp.hex(), ": ", loaded.error);
        shard.verifyFailures.fetch_add(1, std::memory_order_relaxed);
        // The entry can never serve this fingerprint again; leaving it
        // behind would re-reject on every lookup and dangle neighbor
        // candidates whose fetch cannot succeed.
        removeRejectedEntry(fp);
        return {};
    }

    shard.diskHits.fetch_add(1, std::memory_order_relaxed);
    if (source)
        *source = Source::Disk;
    // The entry stores no expansion; the one verification lowered makes
    // the admitted result equal to what the search returned.
    loaded.result.expansion = std::move(verdict.expansion);
    return insertMemory(shard, fp, std::move(loaded.result), loaded.digest);
}

std::optional<TesselResult>
PlanCache::get(const Hash128 &fp, const Placement &placement,
               const TesselOptions &options, Source *source)
{
    const SharedPlan plan = getShared(fp, placement, options, source);
    if (!plan)
        return std::nullopt;
    return *plan.result;
}

SharedPlan
PlanCache::put(const Hash128 &fp, const Placement &placement,
               const TesselOptions &options, TesselResult result)
{
    const InstanceMeta meta = computeInstanceMeta(placement, options);
    panic_if(meta.fingerprint != fp,
             "plan cache: put() query does not fingerprint to ", fp.hex());
    // Serialize and write outside the writer lock; publish the memory
    // snapshot under it. The serialization yields the plan digest too.
    Hash128 digest;
    std::string bytes;
    {
        TraceSpan span("serialize");
        bytes = serializeResult(result, fp, &digest) + serializeMeta(meta);
        span.setArg("bytes", bytes.size());
    }
    bool published;
    {
        TraceSpan span("disk-io");
        published = store_.put(fp, bytes);
    }
    Shard &shard = shardFor(fp);
    shard.stores.fetch_add(1, std::memory_order_relaxed);
    SharedPlan plan = insertMemory(shard, fp, std::move(result), digest);
    // Indexed only once published, so a neighbor lookup can always
    // peek() the entry it found.
    if (published)
        neighborIndex_.add(meta);
    return plan;
}

std::shared_ptr<const TesselResult>
PlanCache::peekShared(const Hash128 &fp)
{
    neighborFetches_.fetch_add(1, std::memory_order_relaxed);

    const Shard &shard = shardFor(fp);
    {
        const std::shared_ptr<const Snapshot> snap = loadSnapshot(shard);
        const auto it = snap->map.find(fp);
        // No access stamp: a neighbor fetch is not a query for this
        // entry and must not keep it alive over genuinely hot ones.
        if (it != snap->map.end())
            return it->second.plan.result;
    }

    std::string bytes;
    if (!store_.get(fp, &bytes))
        return nullptr;
    LoadedResult loaded = loadEntry(std::move(bytes), fp);
    if (!loaded.ok)
        return nullptr;
    // Deliberately unverified and not admitted to the memory tier: the
    // caller (store/adapt.cc) oracle-checks whatever it derives, and
    // the memory tier only ever holds entries verified for their own
    // fingerprint.
    return std::make_shared<const TesselResult>(std::move(loaded.result));
}

std::optional<TesselResult>
PlanCache::peek(const Hash128 &fp)
{
    const std::shared_ptr<const TesselResult> result = peekShared(fp);
    if (!result)
        return std::nullopt;
    return *result;
}

void
PlanCache::remove(const Hash128 &fp)
{
    eraseMemory(shardFor(fp), fp);
    store_.remove(fp);
    neighborIndex_.remove(fp);
}

void
PlanCache::removeRejectedEntry(const Hash128 &fp)
{
    // remove() purges the memory tier too: a rejection on load finds
    // nothing there unless a concurrent put raced it, but revalidation
    // may drop a file that rotted after its result was admitted.
    remove(fp);
    gcRemoved_.fetch_add(1, std::memory_order_relaxed);
}

std::vector<NeighborIndex::Neighbor>
PlanCache::neighbors(const InstanceMeta &query, size_t k) const
{
    return neighborIndex_.nearest(query, k);
}

bool
PlanCache::neighborMeta(const Hash128 &fp, InstanceMeta *meta) const
{
    return neighborIndex_.find(fp, meta);
}

size_t
PlanCache::indexedInstances() const
{
    return neighborIndex_.size();
}

SharedPlan
PlanCache::insertMemory(Shard &shard, const Hash128 &fp,
                        TesselResult result, const Hash128 &digest)
{
    // Every later hit reports this digest instead of re-serializing the
    // plan.
    SharedPlan plan;
    plan.result = std::make_shared<const TesselResult>(std::move(result));
    plan.digest = digest;
    auto lock = lockWriter(shard);
    const std::shared_ptr<const Snapshot> old = loadSnapshot(shard);
    auto next = std::make_shared<Snapshot>(*old);
    Entry &entry = next->map[fp];
    entry.plan = plan;
    if (!entry.lastUsed)
        entry.lastUsed = std::make_shared<std::atomic<uint64_t>>(0);
    entry.lastUsed->store(tick_.fetch_add(1, std::memory_order_relaxed) + 1,
                          std::memory_order_relaxed);
    while (next->map.size() > shard.capacity) {
        // Approximate LRU: evict the entry with the oldest access
        // stamp. The scan is O(shard size) but shards are small and
        // eviction only runs on admissions, never on the hit path.
        auto victim = next->map.begin();
        uint64_t oldest = victim->second.lastUsed->load(
            std::memory_order_relaxed);
        for (auto it = std::next(next->map.begin());
             it != next->map.end(); ++it) {
            const uint64_t used =
                it->second.lastUsed->load(std::memory_order_relaxed);
            if (used < oldest) {
                oldest = used;
                victim = it;
            }
        }
        next->map.erase(victim);
        shard.evictions.fetch_add(1, std::memory_order_relaxed);
    }
    std::atomic_store_explicit(
        &shard.snap,
        std::shared_ptr<const Snapshot>(std::move(next)),
        std::memory_order_release);
    return plan;
}

void
PlanCache::eraseMemory(Shard &shard, const Hash128 &fp)
{
    auto lock = lockWriter(shard);
    const std::shared_ptr<const Snapshot> old = loadSnapshot(shard);
    if (old->map.find(fp) == old->map.end())
        return;
    auto next = std::make_shared<Snapshot>(*old);
    next->map.erase(fp);
    std::atomic_store_explicit(
        &shard.snap,
        std::shared_ptr<const Snapshot>(std::move(next)),
        std::memory_order_release);
}

size_t
PlanCache::revalidateOnce()
{
    // Every entry must still decode to its own fingerprint and pass the
    // oracle's self-check. The reads and verification run without any
    // cache lock; only an actual removal briefly takes the owning
    // shard's writer lock.
    size_t removed = 0;
    for (const Hash128 &fp : store_.list()) {
        std::string bytes;
        if (!store_.get(fp, &bytes))
            continue; // concurrently removed; nothing to do
        const LoadedResult loaded = loadEntry(std::move(bytes), fp);
        if (loaded.ok && verifyResultSelfConsistent(loaded.result).ok) {
            revalidated_.fetch_add(1, std::memory_order_relaxed);
            continue;
        }
        warn("plan store: revalidation dropping entry ", fp.hex());
        removeRejectedEntry(fp);
        ++removed;
    }
    return removed;
}

void
PlanCache::startRevalidation(double interval_sec)
{
    std::lock_guard<std::mutex> lock(revalMu_);
    if (revalRunning_)
        return;
    revalStop_ = false;
    revalRunning_ = true;
    const auto interval = std::chrono::duration<double>(
        std::max(interval_sec, 0.01));
    revalThread_ = std::thread([this, interval] {
        std::unique_lock<std::mutex> lock(revalMu_);
        while (!revalStop_) {
            if (revalCv_.wait_for(lock, interval,
                                  [this] { return revalStop_; }))
                break;
            lock.unlock();
            revalidateOnce();
            lock.lock();
        }
    });
}

void
PlanCache::stopRevalidation()
{
    {
        std::lock_guard<std::mutex> lock(revalMu_);
        if (!revalRunning_)
            return;
        revalStop_ = true;
    }
    revalCv_.notify_all();
    revalThread_.join();
    std::lock_guard<std::mutex> lock(revalMu_);
    revalRunning_ = false;
}

size_t
PlanCache::memoryCapacity() const
{
    size_t total = 0;
    for (const std::unique_ptr<Shard> &shard : shards_)
        total += shard->capacity;
    return total;
}

StoreStats
PlanCache::stats() const
{
    StoreStats out;
    for (const std::unique_ptr<Shard> &shard : shards_) {
        out.memoryHits += shard->memoryHits.load(std::memory_order_relaxed);
        out.diskHits += shard->diskHits.load(std::memory_order_relaxed);
        out.misses += shard->misses.load(std::memory_order_relaxed);
        out.stores += shard->stores.load(std::memory_order_relaxed);
        out.verifyFailures +=
            shard->verifyFailures.load(std::memory_order_relaxed);
        out.evictions += shard->evictions.load(std::memory_order_relaxed);
    }
    out.lockContended = lockContended_.load(std::memory_order_relaxed);
    out.neighborFetches = neighborFetches_.load(std::memory_order_relaxed);
    out.revalidated = revalidated_.load(std::memory_order_relaxed);
    out.gcRemoved = gcRemoved_.load(std::memory_order_relaxed);
    return out;
}

} // namespace tessel
