/**
 * @file
 * Cooperative cancellation for the schedule search.
 *
 * A CancelSource owns a cancellation flag; CancelToken is a cheap,
 * copyable view that long-running solver loops poll. Tokens can be
 * linked so one token observes several sources: every candidate solve
 * of a sweep runs under the caller's token linked with the sweep's
 * total-budget source.
 */

#ifndef TESSEL_SUPPORT_CANCEL_H
#define TESSEL_SUPPORT_CANCEL_H

#include <atomic>
#include <memory>
#include <vector>

namespace tessel {

/**
 * A view onto one or more cancellation flags. Default-constructed
 * tokens are never cancelled. Polling is wait-free; the flag count is
 * tiny (one or two) in every current use.
 */
class CancelToken
{
  public:
    CancelToken() = default;

    /** @return true once any linked source has been cancelled. */
    bool
    cancelled() const
    {
        for (const auto &flag : flags_)
            if (flag->load(std::memory_order_relaxed))
                return true;
        return false;
    }

    /** @return a token that observes this token's sources and @p other's. */
    CancelToken
    linked(const CancelToken &other) const
    {
        CancelToken t(*this);
        t.flags_.insert(t.flags_.end(), other.flags_.begin(),
                        other.flags_.end());
        return t;
    }

  private:
    friend class CancelSource;
    std::vector<std::shared_ptr<const std::atomic<bool>>> flags_;
};

/** Owner side of a cancellation flag. */
class CancelSource
{
  public:
    CancelSource() : flag_(std::make_shared<std::atomic<bool>>(false)) {}

    /** Request cancellation; idempotent and safe from any thread. */
    void cancel() { flag_->store(true, std::memory_order_relaxed); }

    /** @return whether cancel() has been called. */
    bool
    cancelled() const
    {
        return flag_->load(std::memory_order_relaxed);
    }

    /** @return a token observing this source. */
    CancelToken
    token() const
    {
        CancelToken t;
        t.flags_.push_back(flag_);
        return t;
    }

  private:
    std::shared_ptr<std::atomic<bool>> flag_;
};

} // namespace tessel

#endif // TESSEL_SUPPORT_CANCEL_H
