/**
 * @file
 * Width-generic resource set: the bitset implementation behind the
 * device masks (devices + link pseudo-devices).
 *
 * A ResourceSet is a value type holding an unbounded set of small
 * non-negative integers. Sets whose members all fit in one 64-bit word
 * (the overwhelmingly common case: clusters up to 64 resources) live
 * entirely inline — no heap allocation, and every operation reduces to
 * the same single-word shift/mask/popcount the old raw uint64_t masks
 * compiled to. Setting a bit at index >= the
 * current capacity transparently grows the set onto a heap word block, so
 * wide clusters (32+ GPUs with per-device comm lowering) need no
 * compile-time cap and no saturation.
 *
 * The value is two machine words (the inline word and a pointer whose
 * heap block self-describes its capacity), so the narrow fast path adds
 * only 8 bytes to every struct that embeds a mask and copies stay cheap.
 *
 * Equality and containment are canonical: trailing zero words never
 * influence them, so a set that grew and shrank compares identically to
 * one that never grew. Fingerprints hash a set through its members
 * (support/hashing.h), so they are canonical the same way; the set
 * itself offers no hash.
 */

#ifndef TESSEL_SUPPORT_RESOURCESET_H
#define TESSEL_SUPPORT_RESOURCESET_H

#include <cstdint>
#include <ostream>
#include <utility>

#include "bits.h"
#include "logging.h"

namespace tessel {

class ResourceSet
{
  public:
    ResourceSet() noexcept = default;

    ~ResourceSet() { delete[] heap_; }

    ResourceSet(const ResourceSet &other) : inline_(other.inline_)
    {
        if (other.heap_)
            heap_ = cloneHeap(other.heap_);
    }

    ResourceSet(ResourceSet &&other) noexcept
        : inline_(other.inline_), heap_(other.heap_)
    {
        other.heap_ = nullptr;
        other.inline_ = 0;
    }

    ResourceSet &
    operator=(const ResourceSet &other)
    {
        if (this == &other)
            return *this;
        // Clone first so *this stays intact if new throws.
        uint64_t *copy = other.heap_ ? cloneHeap(other.heap_) : nullptr;
        delete[] heap_;
        heap_ = copy;
        inline_ = other.inline_;
        return *this;
    }

    ResourceSet &
    operator=(ResourceSet &&other) noexcept
    {
        if (this == &other)
            return *this;
        delete[] heap_;
        inline_ = other.inline_;
        heap_ = other.heap_;
        other.heap_ = nullptr;
        other.inline_ = 0;
        return *this;
    }

    /** @return a set containing only bit @p i. */
    static ResourceSet
    ofBit(int i)
    {
        ResourceSet s;
        s.set(i);
        return s;
    }

    /** @return a set of the bits set in @p word (indices 0..63). */
    static ResourceSet
    fromWord(uint64_t word)
    {
        ResourceSet s;
        s.inline_ = word;
        return s;
    }

    /** @return a set of exactly the @p count low bits (no saturation). */
    static ResourceSet
    firstN(int count)
    {
        if (count < 0)
            negativeIndexPanic(count);
        ResourceSet s;
        if (count == 0)
            return s;
        if (count <= 64) {
            s.inline_ = count == 64 ? ~uint64_t{0}
                                    : (uint64_t{1} << count) - 1;
            return s;
        }
        uint64_t *w = s.ensureBit(count - 1);
        for (int full = 0; full < count / 64; ++full)
            w[full] = ~uint64_t{0};
        if (count & 63)
            w[count / 64] = (uint64_t{1} << (count & 63)) - 1;
        return s;
    }

    /** Add bit @p i, growing the set as needed. */
    void
    set(int i)
    {
        checkIndex(i);
        const int32_t w = static_cast<int32_t>(i >> 6);
        if (!heap_ && w == 0) {
            inline_ |= uint64_t{1} << (i & 63);
            return;
        }
        uint64_t *words = w < numWords() ? heap_ + 1 : ensureBit(i);
        words[w] |= uint64_t{1} << (i & 63);
    }

    /** Remove bit @p i (no-op past the current capacity). */
    void
    reset(int i)
    {
        checkIndex(i);
        const int32_t w = static_cast<int32_t>(i >> 6);
        if (!heap_) {
            if (w == 0)
                inline_ &= ~(uint64_t{1} << (i & 63));
            return;
        }
        if (w < numWords())
            heap_[1 + w] &= ~(uint64_t{1} << (i & 63));
    }

    /** @return whether bit @p i is set (false past the capacity). */
    bool
    test(int i) const
    {
        checkIndex(i);
        const int32_t w = static_cast<int32_t>(i >> 6);
        if (!heap_)
            return w == 0 && ((inline_ >> (i & 63)) & 1);
        return w < numWords() && ((heap_[1 + w] >> (i & 63)) & 1);
    }

    /** @return the number of set bits. */
    int
    count() const
    {
        if (!heap_)
            return popcount64(inline_);
        int n = 0;
        for (int32_t w = 0, e = numWords(); w < e; ++w)
            n += popcount64(heap_[1 + w]);
        return n;
    }

    /** @return true when no bit is set. */
    bool
    empty() const
    {
        if (!heap_)
            return inline_ == 0;
        for (int32_t w = 0, e = numWords(); w < e; ++w)
            if (heap_[1 + w])
                return false;
        return true;
    }

    /** @return index of the lowest set bit (0 for an empty set). */
    int
    lowest() const
    {
        const uint64_t *w = words();
        for (int32_t k = 0, e = numWords(); k < e; ++k)
            if (w[k])
                return k * 64 + lowestBit64(w[k]);
        return 0;
    }

    /** @return true when any bit at index >= @p n is set. */
    bool
    anyAtOrAbove(int n) const
    {
        checkIndex(n);
        const uint64_t *w = words();
        const int32_t e = numWords();
        const int32_t first = static_cast<int32_t>(n >> 6);
        if (first >= e)
            return false;
        if (w[first] >> (n & 63))
            return true;
        for (int32_t k = first + 1; k < e; ++k)
            if (w[k])
                return true;
        return false;
    }

    /** @return true when *this and @p other share a set bit. */
    bool
    intersects(const ResourceSet &other) const
    {
        const uint64_t *a = words();
        const uint64_t *b = other.words();
        const int32_t na = numWords(), nb = other.numWords();
        const int32_t common = na < nb ? na : nb;
        for (int32_t w = 0; w < common; ++w)
            if (a[w] & b[w])
                return true;
        return false;
    }

    /** @return true when every bit of @p other is also set in *this. */
    bool
    contains(const ResourceSet &other) const
    {
        const uint64_t *a = words();
        const uint64_t *b = other.words();
        const int32_t na = numWords(), nb = other.numWords();
        const int32_t common = na < nb ? na : nb;
        for (int32_t w = 0; w < common; ++w)
            if (b[w] & ~a[w])
                return false;
        for (int32_t w = common; w < nb; ++w)
            if (b[w])
                return false;
        return true;
    }

    bool
    operator==(const ResourceSet &other) const
    {
        const uint64_t *a = words();
        const uint64_t *b = other.words();
        const int32_t na = numWords(), nb = other.numWords();
        const int32_t common = na < nb ? na : nb;
        for (int32_t w = 0; w < common; ++w)
            if (a[w] != b[w])
                return false;
        for (int32_t w = common; w < na; ++w)
            if (a[w])
                return false;
        for (int32_t w = common; w < nb; ++w)
            if (b[w])
                return false;
        return true;
    }

    bool
    operator!=(const ResourceSet &other) const
    {
        return !(*this == other);
    }

    /** Forward iterator over the set bit indices, in ascending order. */
    class const_iterator
    {
      public:
        int operator*() const { return word_ * 64 + lowestBit64(cur_); }

        const_iterator &
        operator++()
        {
            cur_ &= cur_ - 1;
            advance();
            return *this;
        }

        bool
        operator!=(const const_iterator &other) const
        {
            return word_ != other.word_ || cur_ != other.cur_;
        }

        bool
        operator==(const const_iterator &other) const
        {
            return !(*this != other);
        }

      private:
        friend class ResourceSet;

        const_iterator(const uint64_t *words, int32_t num_words,
                       int32_t word, uint64_t cur)
            : words_(words), numWords_(num_words), word_(word), cur_(cur)
        {
            advance();
        }

        void
        advance()
        {
            while (cur_ == 0 && ++word_ < numWords_)
                cur_ = words_[word_];
            if (word_ >= numWords_) {
                word_ = numWords_;
                cur_ = 0;
            }
        }

        const uint64_t *words_;
        int32_t numWords_;
        int32_t word_;
        uint64_t cur_;
    };

    const_iterator
    begin() const
    {
        return const_iterator(words(), numWords(), 0, words()[0]);
    }

    const_iterator
    end() const
    {
        return const_iterator(words(), numWords(), numWords(), 0);
    }

  private:
    /** Heap layout: heap_[0] = word count, heap_[1..count] = the words. */
    const uint64_t *words() const { return heap_ ? heap_ + 1 : &inline_; }
    int32_t
    numWords() const
    {
        return heap_ ? static_cast<int32_t>(heap_[0]) : 1;
    }

    static uint64_t *
    cloneHeap(const uint64_t *src)
    {
        const int32_t total = static_cast<int32_t>(src[0]) + 1;
        uint64_t *copy = new uint64_t[total];
        for (int32_t w = 0; w < total; ++w)
            copy[w] = src[w];
        return copy;
    }

    /** Keep the panic formatting machinery out of the inlined hot
     * accessors: the check is one predictable compare, the report is a
     * cold out-of-line call. */
    static void
    checkIndex(int i)
    {
        if (__builtin_expect(i < 0, 0))
            negativeIndexPanic(i);
    }

    [[noreturn]] __attribute__((noinline, cold)) static void
    negativeIndexPanic(int i)
    {
        panic("ResourceSet: negative index ", i);
    }

    /** Grow capacity (geometrically) so bit @p i is addressable;
     * @return the word array of the grown block. */
    __attribute__((noinline)) uint64_t *
    ensureBit(int i)
    {
        const int32_t cur = numWords();
        const int32_t needed = static_cast<int32_t>(i >> 6) + 1;
        if (needed <= cur)
            return heap_ + 1;
        int32_t cap = cur * 2;
        if (cap < needed)
            cap = needed;
        uint64_t *grown = new uint64_t[cap + 1];
        grown[0] = static_cast<uint64_t>(cap);
        const uint64_t *old = words();
        for (int32_t w = 0; w < cur; ++w)
            grown[1 + w] = old[w];
        for (int32_t w = cur; w < cap; ++w)
            grown[1 + w] = 0;
        delete[] heap_;
        heap_ = grown;
        return heap_ + 1;
    }

    uint64_t inline_ = 0;     ///< The single word while heap_ is null.
    uint64_t *heap_ = nullptr; ///< Self-describing word block, or null.
};

/** Render as "{0,3,17}" (test failure messages, debug dumps). */
inline std::ostream &
operator<<(std::ostream &os, const ResourceSet &s)
{
    os << '{';
    bool first = true;
    for (int i : s) {
        if (!first)
            os << ',';
        os << i;
        first = false;
    }
    return os << '}';
}

} // namespace tessel

#endif // TESSEL_SUPPORT_RESOURCESET_H
