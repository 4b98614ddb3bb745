/**
 * @file
 * Per-depth scratch storage for recursive solvers.
 *
 * Both exact solvers (PeriodSearch and the BnB makespan solver) are deep
 * depth-first recursions whose per-node temporaries used to be freshly
 * heap-allocated vectors. These helpers give every recursion depth its
 * own reusable frame, so the temporaries they hold cost no heap
 * allocation in steady state: a frame is allocated the first time its
 * depth is reached and reused on every later visit of that depth. (The
 * BnB solver's dominance memo lives outside these frames, in a flat
 * table and entry arena of its own in solver/bnb.cc.)
 */

#ifndef TESSEL_SUPPORT_ARENA_H
#define TESSEL_SUPPORT_ARENA_H

#include <cstddef>
#include <deque>
#include <vector>

#include "support/logging.h"

namespace tessel {

/**
 * Fixed-width per-depth rows backed by one flat allocation.
 *
 * reset(rows, width) sizes the arena once per solve; row(depth) then
 * hands out raw pointers into the flat buffer. Because reset() is the
 * only growth point, a pointer obtained at depth d stays valid across
 * deeper recursion — which is exactly the save/restore pattern of the
 * BnB dispatch loop, whose depth is bounded by the block count.
 */
template <typename T>
class DepthArena
{
  public:
    /** Size the arena for @p rows rows of @p width elements each. */
    void
    reset(size_t rows, size_t width)
    {
        rows_ = rows;
        width_ = width;
        if (buf_.size() < rows * width)
            buf_.resize(rows * width);
    }

    /** Row for @p depth; contents persist from the previous visit. */
    T *
    row(size_t depth)
    {
        panic_if(depth >= rows_, "DepthArena: depth ", depth,
                 " out of range (rows ", rows_, ")");
        return buf_.data() + depth * width_;
    }

  private:
    size_t rows_ = 0;
    size_t width_ = 0;
    std::vector<T> buf_;
};

/**
 * Pool of per-depth scratch frames with reference stability.
 *
 * Frames are default-constructed (and optionally initialized) on the
 * first visit of a depth and reused afterwards, retaining whatever
 * capacity their members grew to. The deque backing guarantees that
 * growing the pool for a deeper recursion never moves frames already
 * handed out to callers up the stack, so a `Frame &` held across a
 * recursive call stays valid even on unbounded-depth recursions.
 */
template <typename Frame>
class FramePool
{
  public:
    /** Frame for @p depth; @p init runs once when it is first created. */
    template <typename Init>
    Frame &
    at(size_t depth, Init &&init)
    {
        while (frames_.size() <= depth) {
            frames_.emplace_back();
            init(frames_.back());
        }
        return frames_[depth];
    }

    /** Frame for @p depth with default initialization. */
    Frame &
    at(size_t depth)
    {
        return at(depth, [](Frame &) {});
    }

  private:
    std::deque<Frame> frames_;
};

} // namespace tessel

#endif // TESSEL_SUPPORT_ARENA_H
