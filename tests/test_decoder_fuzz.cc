/**
 * @file
 * Seeded mutation fuzz of the decoders the planning daemon runs on
 * untrusted bytes: trace lines (parseTraceLine, then the query or
 * replan they describe, without searching), plan frames
 * (deserializeResult, then verifyResultAgainstQuery) and meta frames
 * (deserializeMeta). Seeds are the reference and chaos trace lines and
 * one plan frame and one meta frame per reference shape; each seed
 * takes thousands of byte flips, truncations, insertions, deletions
 * and two-seed splices from a fixed Rng seed, so a failure reproduces
 * exactly. Every call must return a value or a clean error; run under
 * ASan/UBSan this also rules out memory and undefined-behaviour
 * faults.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "core/search.h"
#include "service/service.h"
#include "service/trace.h"
#include "store/fingerprint.h"
#include "store/neighbor.h"
#include "store/serialize.h"
#include "store/store.h"
#include "support/hashing.h"
#include "support/io.h"
#include "support/rng.h"

namespace tessel {
namespace {

constexpr int kMutationsPerSeed = 2000;

/** Bytes the mutator favours: JSON structure and number characters. */
const std::string kTokens = "0123456789-+.eE\"\\:,{}[]u \x7f\x80";

/** A byte, half the time from kTokens, else uniform. */
char
randomByte(Rng &rng)
{
    if (rng.chance(0.5))
        return kTokens[static_cast<size_t>(
            rng.range(0, static_cast<int64_t>(kTokens.size()) - 1))];
    return static_cast<char>(rng.range(0, 255));
}

size_t
randomPos(Rng &rng, size_t size)
{
    return static_cast<size_t>(rng.range(0, static_cast<int64_t>(size)));
}

/**
 * One to four random edits of @p seed: byte flips, truncations,
 * insertions, deletions, or a splice of @p seed's head onto the tail
 * of another entry of @p pool. With @p flips_only every edit is a byte
 * flip, which keeps the length.
 */
std::string
mutate(Rng &rng, const std::string &seed,
       const std::vector<std::string> &pool, bool flips_only = false)
{
    std::string s = seed;
    const int edits = static_cast<int>(rng.range(1, 4));
    for (int e = 0; e < edits; ++e) {
        switch (flips_only ? 0 : rng.range(0, 4)) {
        case 0: // flip
            if (!s.empty())
                s[randomPos(rng, s.size() - 1)] ^=
                    static_cast<char>(rng.range(1, 255));
            break;
        case 1: // truncate
            s.resize(randomPos(rng, s.size()));
            break;
        case 2: { // insert a short run
            const size_t at = randomPos(rng, s.size());
            const int n = static_cast<int>(rng.range(1, 4));
            for (int k = 0; k < n; ++k)
                s.insert(s.begin() + static_cast<std::ptrdiff_t>(at),
                         randomByte(rng));
            break;
        }
        case 3: // delete a short run
            if (!s.empty()) {
                const size_t at = randomPos(rng, s.size() - 1);
                s.erase(at, static_cast<size_t>(rng.range(1, 8)));
            }
            break;
        default: { // splice with another seed
            const std::string &other = pool[static_cast<size_t>(
                rng.range(0, static_cast<int64_t>(pool.size()) - 1))];
            s = s.substr(0, randomPos(rng, s.size())) +
                other.substr(randomPos(rng, other.size()));
            break;
        }
        }
    }
    return s;
}

/**
 * The lines `tessel_service --emit-trace [--chaos] --budget-sec 5`
 * prints: one per reference (shape, variant), and with @p chaos the
 * fault it overlays on that variant.
 */
std::vector<std::string>
referenceTraceLines(bool chaos)
{
    std::vector<std::string> lines;
    for (const char *shape : {"V", "X", "M", "NN", "K"}) {
        for (const std::string variant :
             {"homogeneous", "mem-capped", "hetero"}) {
            TraceQuery q;
            q.id = "q" + std::to_string(lines.size() + 1);
            q.shape = shape;
            q.variant = variant;
            q.budgetSec = 5.0;
            if (chaos && variant == "hetero" && q.shape == "V") {
                q.failDevice = 1;
            } else if (chaos && variant == "hetero") {
                q.driftDevice = 1;
                q.driftSpeed = 2.0;
            } else if (chaos && variant == "mem-capped") {
                q.driftSrc = 0;
                q.driftDst = 1;
                q.driftLatency = 2.0;
                q.driftTimePerMB = 0.5;
            } else if (chaos) {
                q.driftDevice = 0;
                q.driftSpeed = 1.25;
            }
            lines.push_back(formatTraceLine(q));
        }
    }
    return lines;
}

TEST(DecoderFuzz, TraceLinesParseOrFailCleanlyAndReformatToAFixedPoint)
{
    std::vector<std::string> seeds = referenceTraceLines(false);
    for (const std::string &line : referenceTraceLines(true))
        seeds.push_back(line);
    ASSERT_EQ(seeds.size(), 30u);

    Rng rng(20);
    size_t accepted = 0, queries = 0, replans = 0;
    for (const std::string &seed : seeds) {
        for (int i = 0; i < kMutationsPerSeed; ++i) {
            const std::string line = mutate(rng, seed, seeds);
            TraceQuery q;
            std::string err;
            if (!parseTraceLine(line, &q, &err)) {
                EXPECT_FALSE(err.empty()) << line;
                continue;
            }
            ++accepted;
            // Formatting an accepted line, then parsing and formatting
            // it again, must give the same bytes.
            const std::string once = formatTraceLine(q);
            TraceQuery back;
            ASSERT_TRUE(parseTraceLine(once, &back, &err))
                << err << ": " << once << " (from " << line << ")";
            EXPECT_EQ(formatTraceLine(back), once) << line;

            if (q.isControl())
                continue;
            if (q.isReplan()) {
                replans += makeTraceReplan(q, &err).has_value();
            } else {
                queries += makeTraceQuery(q, &err).has_value();
            }
        }
    }
    // The mutations must reach the query builders, not only the parser.
    EXPECT_GT(accepted, 1000u);
    EXPECT_GT(queries, 100u);
    EXPECT_GT(replans, 100u);
}

// Plan frame layout (store/serialize.h): a 28-byte header, the u64
// payload length, the payload, then its u64 checksum.
constexpr size_t kLengthOffset = 28;
constexpr size_t kPayloadOffset = kLengthOffset + 8;
constexpr size_t kChecksumBytes = 8;

/** Re-frame a mutated @p payload under @p frame's header: the length
 * and checksum match, so the structural decoder runs on it. */
std::string
reseal(const std::string &frame, const std::string &payload)
{
    ByteWriter out;
    out.raw(frame.data(), kLengthOffset);
    out.u64(payload.size());
    out.raw(payload.data(), payload.size());
    out.u64(hashBytes(payload).lo);
    return out.data();
}

TEST(DecoderFuzz, PlanFramesDecodeAndVerifyOrFailCleanly)
{
    // One variant per shape covers all three; small node caps keep the
    // seed searches fast, and verification uses the same options.
    const char *const kSeeds[][2] = {{"V", "hetero"},
                                     {"X", "mem-capped"},
                                     {"M", "homogeneous"},
                                     {"NN", "homogeneous"},
                                     {"K", "hetero"}};
    std::vector<PlanQuery> queries;
    std::vector<std::string> frames, payloads;
    for (const auto &coords : kSeeds) {
        PlanQuery q = *referenceShapeQuery(coords[0], coords[1], 4, 0.0);
        q.options.numThreads = 1;
        q.options.maxRepetendMicrobatches = 3;
        q.options.phaseNodeLimit = 20'000;
        const TesselOptions opts = q.effectiveOptions();
        const TesselResult r = tesselSearch(q.placement, opts);
        ASSERT_TRUE(r.found) << q.label;
        const std::string frame =
            serializeResult(r, fingerprintQuery(q.placement, opts));
        frames.push_back(frame);
        payloads.push_back(frame.substr(
            kPayloadOffset, frame.size() - kPayloadOffset - kChecksumBytes));
        queries.push_back(std::move(q));
    }

    Rng rng(21);
    size_t decoded = 0, verified = 0;
    for (size_t s = 0; s < queries.size(); ++s) {
        const TesselOptions opts = queries[s].effectiveOptions();
        for (int i = 0; i < 3 * kMutationsPerSeed; ++i) {
            // One round in three mutates the whole frame. The others
            // mutate the payload and re-frame it past the checksum;
            // flips alone keep every length field intact, so most of
            // those decode and reach verification.
            const std::string bytes =
                i % 3 == 0 ? mutate(rng, frames[s], frames)
                           : reseal(frames[s],
                                    mutate(rng, payloads[s], payloads,
                                           i % 3 == 2));
            const LoadedResult loaded = deserializeResult(bytes);
            if (!loaded.ok) {
                EXPECT_FALSE(loaded.error.empty());
                continue;
            }
            ++decoded;
            const VerifyOutcome v = verifyResultAgainstQuery(
                queries[s].placement, opts, loaded.result);
            if (v.ok)
                ++verified;
            else
                EXPECT_FALSE(v.reason.empty());
        }
    }
    // The resealed rounds must reach verification.
    EXPECT_GT(decoded, 1000u);
    EXPECT_GT(verified, 0u);
}

TEST(DecoderFuzz, MetaFramesDecodeOrFailCleanly)
{
    std::vector<std::string> seeds;
    for (const char *shape : {"V", "X", "M", "NN", "K"}) {
        const PlanQuery q = *referenceShapeQuery(shape, "hetero", 4, 0.0);
        seeds.push_back(serializeMeta(
            computeInstanceMeta(q.placement, q.effectiveOptions())));
    }

    Rng rng(22);
    for (const std::string &seed : seeds) {
        InstanceMeta meta;
        ASSERT_TRUE(deserializeMeta(seed, &meta));
        for (int i = 0; i < kMutationsPerSeed; ++i) {
            const std::string bytes = mutate(rng, seed, seeds);
            // Every mutation either breaks the frame or, by chance,
            // restores the seed or another one.
            if (deserializeMeta(bytes, &meta)) {
                EXPECT_NE(std::find(seeds.begin(), seeds.end(), bytes),
                          seeds.end());
            }
        }
    }
}

} // namespace
} // namespace tessel
