/**
 * @file
 * Versioned binary serialization for TesselResult: the plan frame that
 * opens every store entry (store/store.h). Only plan-semantic fields
 * travel. The comm expansion is not stored, because verification on
 * load lowers the query again and attaches its expansion; neither is
 * the SearchBreakdown, which describes the search that produced the
 * plan, not the plan.
 *
 * Wire layout (format version 2):
 *
 *   [0..7]   magic "TESSELPL"
 *   [8..11]  u32 format version (kPlanFormatVersion)
 *   [12..27] Hash128 instance fingerprint (lo, hi)
 *   [28..35] u64 payload byte count
 *   [..]     payload (fixed-width little-endian fields, see .cc): found,
 *            commAware, period, lowerBound, nrUsed, then the plan when
 *            the result has one
 *   [..+7]   u64 payload checksum (Hash128.lo of hashBytes(payload))
 *
 * Guarantees:
 *  - Round-trip exactness: deserialize(serialize(r)) equals r in every
 *    serialized field, and re-serializing the loaded result reproduces
 *    the input bytes exactly (locked by tests/test_store.cc property
 *    tests).
 *  - Version policy: readers accept exactly kPlanFormatVersion; any
 *    other version is rejected with a descriptive error so a future
 *    format bump can never misparse old entries (the store then treats
 *    the entry as a miss and re-searches).
 *  - Corruption safety: every read is bounds-checked, sequence lengths
 *    are validated against the remaining bytes, the payload checksum is
 *    verified before structural decoding, and all Placement/TesselPlan
 *    invariants are re-checked *before* the validating constructors run
 *    (those call fatal()/panic() and must never see hostile data).
 *    Spans, periods, starts, and memory deltas are additionally capped
 *    in magnitude (2^38) and the plan's total block instances in count
 *    (2^24) so that downstream arithmetic on a decoded plan — window
 *    stride sums, peak-memory accumulation — provably stays inside
 *    int64 and verification cannot be tricked into gigantic
 *    allocations. A truncated, bit-flipped, or malformed buffer yields
 *    {ok=false, error}, never a crash.
 */

#ifndef TESSEL_STORE_SERIALIZE_H
#define TESSEL_STORE_SERIALIZE_H

#include <string>

#include "core/search.h"
#include "support/hashing.h"

namespace tessel {

/** On-disk plan format version; see the header comment for the policy. */
constexpr uint32_t kPlanFormatVersion = 2;

/** Magic prefix of every plan frame, and so of every store entry. */
constexpr char kPlanMagic[8] = {'T', 'E', 'S', 'S', 'E', 'L', 'P', 'L'};

/** Byte offset of the u32 version field (corruption tests poke it). */
constexpr size_t kPlanVersionOffset = 8;

/**
 * Serialize @p result (searched for @p fingerprint) to a plan frame.
 * When @p digest is set it receives the result's plan digest, which the
 * frame checksum is computed from anyway (see resultPlanDigest).
 */
std::string serializeResult(const TesselResult &result,
                            const Hash128 &fingerprint,
                            Hash128 *digest = nullptr);

/** Outcome of deserializeResult. */
struct LoadedResult
{
    bool ok = false;
    std::string error;
    /** Fingerprint recorded in the entry header. */
    Hash128 fingerprint;
    /** resultPlanDigest(result), taken from the checksum check. */
    Hash128 digest;
    /** The decoded result: no expansion and an empty breakdown. */
    TesselResult result;
};

/** Decode a plan frame; never throws, panics, or reads out of bounds. */
LoadedResult deserializeResult(const std::string &bytes);

/**
 * Digest of the plan-semantic content of a result: the 128-bit
 * hashBytes of its plan-frame payload, whose low word is the frame
 * checksum. The payload holds no timings, effort counters or
 * fingerprint, so two results with equal digests carry bit-identical
 * plans and periods — the certificate the service reports as
 * `plan_hash` and the cold/warm demonstrations diff across runs.
 */
Hash128 resultPlanDigest(const TesselResult &result);

} // namespace tessel

#endif // TESSEL_STORE_SERIALIZE_H
