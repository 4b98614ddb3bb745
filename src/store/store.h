/**
 * @file
 * Plan store: a concurrent in-memory cache in front of an on-disk
 * store of serialized TesselResults, keyed by canonical instance
 * fingerprints (store/fingerprint.h).
 *
 * Disk layout: sharded by fingerprint prefix. An entry lives at
 * `<dir>/<2-hex>/<32-hex-digits>.plan`, where `<2-hex>` is the first
 * byte of the fingerprint in hex, published atomically (temp file +
 * rename), so any number of concurrent readers — including other
 * processes and machines sharing the directory — only ever observe
 * complete entries. Entries admitted with their query context
 * additionally publish a `<32-hex-digits>.meta` sidecar
 * (sub-fingerprints + feature vector, store/neighbor.h) next to the
 * `.plan` that feeds the neighbor index; a store without sidecars still
 * serves exact hits.
 *
 * Verification-on-load invariant: a disk entry is never trusted. Before
 * a deserialized result is returned or admitted to the memory tier, the
 * plan is re-verified against the *querying* instance: the stored
 * placement must structurally equal the placement the query would
 * search (the comm-expanded one for comm-aware queries), the plan must
 * instantiate cleanly, and the instantiated schedule must pass the
 * solver oracle's full constraint check (solver/oracle.h — dependency
 * order, device and link exclusivity, release times, peak memory).
 * Entries that fail any step count as verifyFailures and behave as
 * misses — and are garbage-collected on the spot (plan file, meta
 * sidecar, and neighbor-index entry removed together) so a corrupted
 * entry is rejected once, not on every future lookup. A corrupted or
 * version-bumped store therefore degrades to a fresh search, never to
 * a wrong plan. Memory-tier entries were either produced by this
 * process's search or already verified on load, and are returned
 * as-is. The one exception is peek(), which fetches a *neighbor's*
 * entry raw — it cannot be verified against the caller's query (it
 * answers a different fingerprint) and is only ever consumed by
 * store/adapt.cc, which runs the same oracle on the adapted plan
 * before anything downstream may use it.
 *
 * Shared residents: a memory-tier entry is a SharedPlan — one immutable
 * result plus its plan digest, computed once when the entry is admitted
 * (put() or a verified disk load). getMemory() — the memory-only lookup
 * getShared() itself starts with — hands every hit the same resident,
 * so a hit costs a reference-count increment, not a deep copy of the
 * plan and a re-serialization to digest it. get() and peek() are
 * copying wrappers over getShared() and peekShared().
 *
 * Concurrency: the memory tier is sharded by fingerprint, and within a
 * shard the hot hit path is RCU-style and never takes the shard's
 * writer lock. Each shard publishes an immutable snapshot (shared_ptr
 * to a read-only hash map); readers load the snapshot pointer with
 * std::atomic_load, look up their entry, and stamp a relaxed per-entry
 * access tick for the eviction policy. (libstdc++ implements the
 * shared_ptr atomic_load/atomic_store pair with a small pool of global
 * spinlock-guarded mutexes held for a pointer copy, so a reader may
 * wait out another thread's pointer copy — never a writer's snapshot
 * rebuild.) Writers (admissions, promotions, evictions, purges)
 * serialize on a per-shard writer mutex, build the next snapshot aside,
 * and publish it with an atomic pointer store. StoreStats::lockContended
 * counts writer-side acquisitions of that mutex that had to block; a
 * read-only trace never takes it and keeps the counter at exactly zero,
 * which the daemon tests and bench_service_load enforce as the
 * lock-free-hit regression signal.
 *
 * Background revalidation: startRevalidation() spawns one maintenance
 * thread that periodically re-reads every disk entry, drops entries
 * that no longer decode or whose plans fail the oracle's self-check,
 * and garbage-collects orphaned meta sidecars. It runs entirely off
 * the serving path (raw disk reads plus brief writer-side purges), so
 * serving latency is unaffected while the shared namespace converges
 * on verified entries.
 *
 * Metrics: StoreStats is the only home of the `store.*` counters. Each
 * PlanCache registers a metrics-registry source (support/metrics.h)
 * that reports stats() at snapshot time, so the exported series are the
 * sum of the live caches' StoreStats by construction.
 */

#ifndef TESSEL_STORE_STORE_H
#define TESSEL_STORE_STORE_H

#include <atomic>
#include <condition_variable>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "core/search.h"
#include "store/fingerprint.h"
#include "store/neighbor.h"

namespace tessel {

/**
 * Hit/miss/verification counters of one PlanCache.
 *
 * Counter definitions (each get() increments exactly one of the first
 * three; a getMemory() that misses increments none, because its caller
 * goes on to a get() that counts the lookup once): `memoryHits` +
 * `diskHits` are lookups answered from a tier,
 * `misses` are lookups absent from both tiers, and `verifyFailures`
 * are lookups whose disk entry existed but was rejected (decode or
 * oracle failure) — from the caller's perspective those behave as
 * misses, but they are counted separately because each one names a
 * store entry that was removed.
 */
struct StoreStats
{
    uint64_t memoryHits = 0;
    uint64_t diskHits = 0;   ///< served from disk after verification
    uint64_t misses = 0;     ///< absent from both tiers
    uint64_t stores = 0;     ///< results admitted via put()
    uint64_t verifyFailures = 0; ///< disk entries rejected on load
    uint64_t evictions = 0;  ///< memory-tier evictions
    /** Writer-side shard-mutex acquisitions that found the lock already
     * held (the try-lock failed and the writer had to block). The hit
     * path never takes the writer lock, so a read-only trace keeps this
     * at 0. */
    uint64_t lockContended = 0;
    /** Raw neighbor-entry fetches via peek() (not query lookups; they
     * never count toward hits/misses). */
    uint64_t neighborFetches = 0;
    /** Disk entries re-verified intact by background revalidation. */
    uint64_t revalidated = 0;
    /** Stale artifacts garbage-collected: corrupt/unverifiable plan
     * entries and orphaned meta sidecars (revalidation or load-time). */
    uint64_t gcRemoved = 0;

    uint64_t
    hits() const
    {
        return memoryHits + diskHits;
    }

    /** Total get() calls: every lookup lands in exactly one bucket. */
    uint64_t
    lookups() const
    {
        return hits() + misses + verifyFailures;
    }

    /**
     * @return hits / lookups in [0, 1] (0 when no lookups happened).
     * The denominator is *lookups*, so a rejected (verify-failed) entry
     * counts against the rate exactly like a plain miss — this is the
     * store-level rate over every get() ever made, distinct from
     * BatchReport::hitRate() which is per-batch over unique instances.
     */
    double
    hitRate() const
    {
        const uint64_t total = lookups();
        return total == 0 ? 0.0
                          : static_cast<double>(hits()) /
                                static_cast<double>(total);
    }
};

/**
 * One memory-tier resident: an immutable result plus its plan digest
 * (resultPlanDigest), computed once when the entry is admitted. Every
 * hit shares the same result; nobody may modify it. Empty (null
 * result) on a miss.
 */
struct SharedPlan
{
    std::shared_ptr<const TesselResult> result;
    Hash128 digest;

    explicit operator bool() const { return result != nullptr; }
};

/** Take ownership of @p result and digest it once. */
SharedPlan makeSharedPlan(TesselResult result);

/** Outcome of re-verifying a loaded result against its query. */
struct VerifyOutcome
{
    bool ok = false;
    std::string reason;
};

/**
 * Re-verify @p result against the instance (@p placement, @p options)
 * via the solver oracle. Cheap relative to a search: one instantiation
 * at N = NR + 1 — the extra micro-batch forces a second repetend
 * window at stride P, so the period itself is exercised (at N = NR the
 * period is unused and a tampered one would pass) — plus a linear
 * constraint sweep. Pure function, safe to call concurrently.
 */
VerifyOutcome verifyResultAgainstQuery(const Placement &placement,
                                       const TesselOptions &options,
                                       const TesselResult &result);

/**
 * Query-free self-check used by background revalidation: instantiate
 * the stored plan against its *own* placement at NR + 1 and run the
 * solver oracle. Catches rotted entries (plans that no longer satisfy
 * their own constraints) without needing the original query context;
 * the full query match still happens on every get().
 */
VerifyOutcome verifyResultSelfConsistent(const TesselResult &result);

/** On-disk tier: one atomically-published file per fingerprint, in a
 * `<2-hex>/` prefix shard directory (see file comment for layout). */
class PlanStore
{
  public:
    /** @param dir cache directory; created (mkdir -p) on first put. */
    explicit PlanStore(std::string dir) : dir_(std::move(dir)) {}

    const std::string &dir() const { return dir_; }

    /** @return the sharded entry path for @p fp (exists or not). */
    std::string pathFor(const Hash128 &fp) const;

    /** @return the sharded meta-sidecar path for @p fp. */
    std::string metaPathFor(const Hash128 &fp) const;

    /** Publish serialized bytes for @p fp; false + warn on I/O errors. */
    bool put(const Hash128 &fp, const std::string &bytes);

    /** Publish the meta sidecar for @p fp; false + warn on errors. */
    bool putMeta(const Hash128 &fp, const std::string &bytes);

    /** Read raw entry bytes; false when absent or unreadable. */
    bool get(const Hash128 &fp, std::string *bytes) const;

    /** @return whether an entry exists for @p fp. */
    bool has(const Hash128 &fp) const;

    /** Read raw sidecar bytes; false when absent or unreadable. */
    bool getMeta(const Hash128 &fp, std::string *bytes) const;

    /** Remove the entry (and sidecar) for @p fp (idempotent). */
    bool remove(const Hash128 &fp);

    /** Remove only the meta sidecar for @p fp. */
    bool removeMeta(const Hash128 &fp);

    /** @return fingerprints of all entries currently on disk. */
    std::vector<Hash128> list() const;

    /** @return fingerprints of all meta sidecars currently on disk. */
    std::vector<Hash128> listMetas() const;

  private:
    /** `<dir>/<2-hex>` prefix shard directory for @p fp. */
    std::string shardDirFor(const Hash128 &fp) const;

    std::vector<Hash128> listSuffix(const std::string &suffix) const;

    std::string dir_;
};

/** Construction knobs for PlanCache. */
struct PlanCacheOptions
{
    /** Max results kept in the memory tier before eviction. Distributed
     * exactly across shards (remainders go to the low shards one each);
     * when smaller than `shards` the shard count is clamped down so the
     * total evictable capacity always equals this value (floored at 1). */
    size_t memoryCapacity = 256;
    /** Memory-tier shard count (>= 1; fingerprints hash to shards).
     * 1 restores the single-snapshot behavior with global LRU order. */
    size_t shards = 8;
};

/**
 * Two-tier cache: sharded snapshot memory tier over a PlanStore disk
 * tier, plus a neighbor index over the meta sidecars for near-miss
 * lookups. All public methods are safe to call from any number of
 * threads; the hit path never takes a writer lock (see file comment),
 * and disk I/O
 * and verification run outside any lock, so concurrent readers never
 * serialize on the expensive parts.
 */
class PlanCache
{
  public:
    explicit PlanCache(std::string dir, PlanCacheOptions options = {});

    /** Unregisters the metrics source and joins the revalidation
     * thread if one is running. */
    ~PlanCache();

    PlanCache(const PlanCache &) = delete;
    PlanCache &operator=(const PlanCache &) = delete;

    /** Where a get() answer came from. */
    enum class Source { Memory, Disk, Miss };

    /**
     * The memory tier alone: share the resident serving @p fp and count
     * a memory hit, or return an empty SharedPlan without counting a
     * miss (the caller falls through to getShared(), which counts it).
     * Lock-free, and never reads disk or runs verification, so it is
     * cheap enough for a thread that must not block.
     */
    SharedPlan getMemory(const Hash128 &fp);

    /**
     * Look up @p fp: getMemory() first, then the disk tier. Disk
     * answers are deserialized and verified against (@p placement,
     * @p options) per the verification-on-load invariant, then admitted
     * to the memory tier (digested once there) and shared the same way.
     * A disk entry that fails verification is removed (plan + sidecar +
     * index entry).
     * @return an empty SharedPlan on miss or verification failure
     * (@p source tells which tier answered).
     */
    SharedPlan getShared(const Hash128 &fp, const Placement &placement,
                         const TesselOptions &options,
                         Source *source = nullptr);

    /** getShared() returning a private copy of the result. */
    std::optional<TesselResult> get(const Hash128 &fp,
                                    const Placement &placement,
                                    const TesselOptions &options,
                                    Source *source = nullptr);

    /**
     * Admit a freshly searched result to both tiers, publish its meta
     * sidecar, and index it for neighbor lookups. (@p placement,
     * @p options) must be the query that produced @p fp.
     * @return the memory-tier resident now serving @p fp.
     */
    SharedPlan put(const Hash128 &fp, const Placement &placement,
                   const TesselOptions &options, TesselResult result);

    /**
     * Admit a result without query context: both cache tiers are
     * updated but no meta sidecar is written, so the entry serves exact
     * hits only and never appears as a neighbor.
     */
    SharedPlan put(const Hash128 &fp, TesselResult result);

    /**
     * Raw fetch of a (neighbor) entry: memory tier first (shared), then
     * disk decode with a fingerprint check — but NO oracle verification
     * and NO memory-tier admission. Only store/adapt.cc should consume
     * the result, and it must re-verify whatever it derives. Counts as
     * a neighborFetch, never as a hit or miss. Null when absent.
     */
    std::shared_ptr<const TesselResult> peekShared(const Hash128 &fp);

    /** peekShared() returning a private copy of the result. */
    std::optional<TesselResult> peek(const Hash128 &fp);

    /**
     * Drop @p fp everywhere: memory tier, disk entry + sidecar, and
     * neighbor index. Idempotent; used by revalidation and tests.
     */
    void remove(const Hash128 &fp);

    /** The @p k indexed instances nearest to @p query (see
     * NeighborIndex::nearest; the query's own fingerprint is excluded). */
    std::vector<NeighborIndex::Neighbor>
    neighbors(const InstanceMeta &query, size_t k) const;

    /** Copy the indexed meta of a stored instance into @p meta;
     * @return false when @p fp is not in the neighbor index. Adaptation
     * callers compare the stored phaseOptions digest against the
     * query's to decide whether phase schedules may be reused verbatim. */
    bool neighborMeta(const Hash128 &fp, InstanceMeta *meta) const;

    /** Number of instances currently in the neighbor index. */
    size_t indexedInstances() const;

    /**
     * One synchronous revalidation sweep (the background thread calls
     * this on its interval; tests call it directly): re-read every disk
     * entry, drop the ones that fail to decode or whose plans fail the
     * oracle self-check, and delete orphaned meta sidecars.
     * @return number of artifacts garbage-collected by this sweep.
     */
    size_t revalidateOnce();

    /**
     * Start the background revalidation thread, sweeping every
     * @p interval_sec (clamped up to 10 ms). No-op when already
     * running. The thread is joined by stopRevalidation() or the
     * destructor; it never blocks serving threads.
     */
    void startRevalidation(double interval_sec);

    /** Stop and join the revalidation thread (idempotent). */
    void stopRevalidation();

    /** Total evictable memory-tier capacity (== the requested
     * memoryCapacity floored at 1; locked by test_store). */
    size_t memoryCapacity() const;

    StoreStats stats() const;

    const PlanStore &store() const { return store_; }

  private:
    /** One immutable memory-tier entry. `lastUsed` is shared across
     * snapshot generations so a reader's access stamp survives the
     * writer republishing the map around it. */
    struct Entry
    {
        SharedPlan plan;
        std::shared_ptr<std::atomic<uint64_t>> lastUsed;
    };

    /** Immutable map generation; readers hold it via shared_ptr. */
    struct Snapshot
    {
        std::unordered_map<Hash128, Entry, Hash128Hasher> map;
    };

    /** One memory-tier shard: an atomically-published snapshot for
     * readers, a writer mutex, and relaxed stat counters. */
    struct Shard
    {
        /** Accessed only via atomic_load/atomic_store free functions. */
        std::shared_ptr<const Snapshot> snap;
        std::mutex writerMu;
        size_t capacity = 1;
        std::atomic<uint64_t> memoryHits{0};
        std::atomic<uint64_t> diskHits{0};
        std::atomic<uint64_t> misses{0};
        std::atomic<uint64_t> stores{0};
        std::atomic<uint64_t> verifyFailures{0};
        std::atomic<uint64_t> evictions{0};
    };

    Shard &shardFor(const Hash128 &fp);
    const Shard &shardFor(const Hash128 &fp) const;

    /** Reader-side snapshot load (lock-free; acquire order). */
    std::shared_ptr<const Snapshot> loadSnapshot(const Shard &shard) const;

    /** Writer lock, counting the acquisition as contended when the
     * uncontended try-lock fails. Readers never take this. */
    std::unique_lock<std::mutex> lockWriter(Shard &shard);

    /** Digest @p result (outside the writer lock), then publish a
     * snapshot with it resident under @p fp, evicting the
     * least-recently-stamped entries beyond the shard capacity.
     * @return the new resident. */
    SharedPlan insertMemory(Shard &shard, const Hash128 &fp,
                            TesselResult result);

    /** Publish a snapshot with @p fp removed (no-op when absent). */
    void eraseMemory(Shard &shard, const Hash128 &fp);

    /** Drop a disk entry that failed load-time verification: plan
     * file, meta sidecar, and neighbor-index entry together. */
    void removeRejectedEntry(const Hash128 &fp);

    PlanStore store_;
    PlanCacheOptions options_;

    std::vector<std::unique_ptr<Shard>> shards_;
    /** Global access clock for the approximate-LRU eviction stamps. */
    mutable std::atomic<uint64_t> tick_{0};
    mutable std::atomic<uint64_t> lockContended_{0};
    std::atomic<uint64_t> neighborFetches_{0};
    std::atomic<uint64_t> revalidated_{0};
    std::atomic<uint64_t> gcRemoved_{0};

    NeighborIndex neighborIndex_;

    /** Metrics-registry source reporting stats() as `store.*`. */
    int metricsSource_ = 0;

    // Background revalidation thread state.
    std::thread revalThread_;
    std::mutex revalMu_;
    std::condition_variable revalCv_;
    bool revalStop_ = false;
    bool revalRunning_ = false;
};

} // namespace tessel

#endif // TESSEL_STORE_STORE_H
