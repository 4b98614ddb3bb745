/**
 * @file
 * Property tests for the width-generic ResourceSet against a
 * std::bitset reference model: set/reset/test/count/contains/
 * intersects/equality agree with the model across word-boundary widths
 * (63/64/65/127/128/512), equality is canonical across different grown
 * capacities, and the value semantics (copy, move, iteration) hold on
 * both the inline one-word path and the heap path.
 */

#include <gtest/gtest.h>

#include <bitset>
#include <sstream>
#include <utility>

#include "support/resourceset.h"
#include "support/rng.h"

namespace tessel {
namespace {

constexpr int kModelBits = 512;
using Model = std::bitset<kModelBits>;

/** Assert every observable of @p s matches the reference model. */
void
expectMatchesModel(const ResourceSet &s, const Model &m, int width)
{
    ASSERT_EQ(s.count(), static_cast<int>(m.count()));
    ASSERT_EQ(s.empty(), m.none());
    for (int i = 0; i < width + 70; ++i)
        ASSERT_EQ(s.test(i), i < kModelBits && m.test(i)) << "bit " << i;
    // Iteration yields exactly the set bits, ascending.
    int prev = -1, seen = 0;
    for (int i : s) {
        ASSERT_GT(i, prev);
        ASSERT_TRUE(m.test(i)) << "iterated bit " << i;
        prev = i;
        ++seen;
    }
    ASSERT_EQ(seen, static_cast<int>(m.count()));
    if (m.any()) {
        int lo = 0;
        while (!m.test(lo))
            ++lo;
        ASSERT_EQ(s.lowest(), lo);
    }
}

TEST(ResourceSet, RandomOpsMatchBitsetAtWordBoundaryWidths)
{
    // A fresh set is empty, and probing far past its capacity reads
    // false.
    expectMatchesModel(ResourceSet{}, Model{}, 1024);
    Rng rng(0x5e7b175);
    for (int width : {63, 64, 65, 127, 128, 512}) {
        ResourceSet s;
        Model m;
        for (int step = 0; step < 2000; ++step) {
            const int bit = static_cast<int>(rng.range(0, width - 1));
            if (rng.chance(0.6)) {
                s.set(bit);
                m.set(bit);
            } else {
                s.reset(bit);
                m.reset(bit);
            }
            if (step % 97 == 0)
                expectMatchesModel(s, m, width);
        }
        expectMatchesModel(s, m, width);
    }
}

TEST(ResourceSet, ContainsIntersectsEqualityMatchModel)
{
    Rng rng(0xc0ffee);
    for (int width : {63, 64, 65, 127, 128, 512}) {
        for (int round = 0; round < 50; ++round) {
            ResourceSet a, b;
            Model ma, mb;
            const int n = static_cast<int>(rng.range(0, 40));
            for (int k = 0; k < n; ++k) {
                const int bit = static_cast<int>(rng.range(0, width - 1));
                if (rng.chance(0.5)) {
                    a.set(bit);
                    ma.set(bit);
                }
                if (rng.chance(0.5)) {
                    b.set(bit);
                    mb.set(bit);
                }
            }
            EXPECT_EQ(a.contains(b), (mb & ~ma).none());
            EXPECT_EQ(b.contains(a), (ma & ~mb).none());
            EXPECT_EQ(a.intersects(b), (ma & mb).any());
            EXPECT_EQ(a.intersects(b), b.intersects(a));
            EXPECT_EQ(a == b, ma == mb);
            // Every set contains itself, the empty set, and is contained
            // in its union with another.
            ResourceSet both = a;
            for (int bit : b)
                both.set(bit);
            EXPECT_TRUE(both.contains(a));
            EXPECT_TRUE(both.contains(b));
            EXPECT_TRUE(a.contains(a));
            EXPECT_TRUE(a.contains(ResourceSet{}));
        }
    }
}

TEST(ResourceSet, EqualityCanonicalAcrossCapacities)
{
    // One set that grew wide and shrank back, one that never grew: the
    // capacities differ, the values must not.
    ResourceSet grown;
    grown.set(500);
    grown.set(7);
    grown.reset(500);
    ResourceSet narrow;
    narrow.set(7);
    EXPECT_EQ(grown, narrow);
    EXPECT_EQ(narrow, grown);
    EXPECT_TRUE(narrow.contains(grown));
    EXPECT_TRUE(grown.contains(narrow));
    EXPECT_FALSE(grown.anyAtOrAbove(8));
    EXPECT_EQ(grown.count(), 1);

    grown.reset(7);
    EXPECT_EQ(grown, ResourceSet{});
    EXPECT_TRUE(grown.empty());
}

TEST(ResourceSet, FirstNRepresentsExactlyCountBits)
{
    for (int count : {0, 1, 63, 64, 65, 127, 128, 200, 512}) {
        const ResourceSet s = ResourceSet::firstN(count);
        EXPECT_EQ(s.count(), count) << count;
        if (count > 0) {
            EXPECT_TRUE(s.test(count - 1));
            EXPECT_EQ(s.lowest(), 0);
        }
        EXPECT_FALSE(s.test(count));
        EXPECT_FALSE(s.anyAtOrAbove(count));
        if (count > 0) {
            EXPECT_TRUE(s.anyAtOrAbove(count - 1));
        }
        EXPECT_EQ(s, ResourceSet::firstN(count));
    }
}

TEST(ResourceSetDeathTest, NegativeIndicesPanic)
{
    ResourceSet s;
    EXPECT_DEATH(s.set(-1), "negative index");
    EXPECT_DEATH(s.test(-3), "negative index");
    EXPECT_DEATH(ResourceSet::firstN(-2), "negative index");
}

TEST(ResourceSet, CopyAndMoveSemantics)
{
    for (int hot_bit : {5, 300}) { // Inline path and heap path.
        ResourceSet a;
        a.set(hot_bit);
        a.set(2);

        ResourceSet copy = a;
        EXPECT_EQ(copy, a);
        copy.set(40);
        EXPECT_NE(copy, a); // Deep copy: no shared words.
        EXPECT_FALSE(a.test(40));

        ResourceSet assigned;
        assigned.set(400); // Overwrite a heap-backed value.
        assigned = a;
        EXPECT_EQ(assigned, a);

        ResourceSet moved = std::move(copy);
        EXPECT_TRUE(moved.test(40));
        EXPECT_TRUE(moved.test(hot_bit));

        ResourceSet move_assigned;
        move_assigned = std::move(moved);
        EXPECT_TRUE(move_assigned.test(40));

        a = a; // Self-assignment must be a no-op.
        EXPECT_TRUE(a.test(hot_bit));
        EXPECT_EQ(a.count(), 2);
    }
}

TEST(ResourceSet, FromWordMatchesBitPattern)
{
    const ResourceSet s = ResourceSet::fromWord(0x8000000000000005ull);
    EXPECT_TRUE(s.test(0));
    EXPECT_TRUE(s.test(2));
    EXPECT_TRUE(s.test(63));
    EXPECT_EQ(s.count(), 3);
    EXPECT_EQ(s, [] {
        ResourceSet t;
        t.set(0);
        t.set(2);
        t.set(63);
        return t;
    }());
}

TEST(ResourceSet, StreamsAsBitList)
{
    ResourceSet s;
    s.set(0);
    s.set(3);
    s.set(130);
    std::ostringstream os;
    os << s;
    EXPECT_EQ(os.str(), "{0,3,130}");
}

} // namespace
} // namespace tessel
