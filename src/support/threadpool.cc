#include "support/threadpool.h"

#include <algorithm>
#include <utility>

#include "support/logging.h"

namespace tessel {

int
ThreadPool::hardwareThreads()
{
    const unsigned n = std::thread::hardware_concurrency();
    return n == 0 ? 1 : static_cast<int>(n);
}

ThreadPool &
ThreadPool::shared()
{
    static ThreadPool *const pool = new ThreadPool;
    return *pool;
}

ThreadPool::~ThreadPool()
{
    {
        std::lock_guard<std::mutex> lock(mu_);
        stop_ = true;
    }
    workCv_.notify_all();
    for (std::thread &t : threads_)
        t.join();
}

int
ThreadPool::size() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return static_cast<int>(threads_.size());
}

void
ThreadPool::schedule(Group &group)
{
    const bool eligible =
        !group.queue_.empty() && group.onWorkers_ < group.width_;
    if (eligible == group.scheduled_)
        return;
    group.scheduled_ = eligible;
    if (eligible) {
        ready_.push_back(&group);
        workCv_.notify_one();
    } else {
        ready_.erase(std::find(ready_.begin(), ready_.end(), &group));
    }
}

void
ThreadPool::run(Group &group, Task &task, std::unique_lock<std::mutex> &lock)
{
    ++group.running_;
    lock.unlock();
    std::exception_ptr error;
    try {
        task();
    } catch (...) {
        error = std::current_exception();
    }
    task = nullptr; // Release the captures outside the lock.
    lock.lock();
    --group.running_;
    if (error && !group.error_)
        group.error_ = error;
    group.changed_.notify_all();
}

void
ThreadPool::workerLoop()
{
    std::unique_lock<std::mutex> lock(mu_);
    for (;;) {
        workCv_.wait(lock, [&] { return stop_ || !ready_.empty(); });
        if (ready_.empty())
            return;
        // The front group's oldest task; the group goes to the back of
        // the line if it still has work and width to spare.
        Group &group = *ready_.front();
        ready_.pop_front();
        group.scheduled_ = false;
        Task task = std::move(group.queue_.front());
        group.queue_.pop_front();
        ++group.onWorkers_;
        schedule(group);
        run(group, task, lock);
        --group.onWorkers_;
        schedule(group);
        // The group may be destroyed once the lock is released.
    }
}

ThreadPool::Group::Group(ThreadPool &pool, int width)
    : pool_(pool), width_(std::max(width, 0))
{
    std::lock_guard<std::mutex> lock(pool_.mu_);
    while (static_cast<int>(pool_.threads_.size()) < width_)
        pool_.threads_.emplace_back([p = &pool_] { p->workerLoop(); });
}

ThreadPool::Group::~Group()
{
    std::unique_lock<std::mutex> lock(pool_.mu_);
    drain(lock);
    lock.unlock();
    // Only an owner unwinding from an exception of its own skips wait().
    if (error_)
        warn("threadpool: a task threw, and its group was never waited for");
}

void
ThreadPool::Group::runOldest(std::unique_lock<std::mutex> &lock)
{
    Task task = std::move(queue_.front());
    queue_.pop_front();
    pool_.schedule(*this);
    pool_.run(*this, task, lock);
}

void
ThreadPool::Group::submit(Task task)
{
    panic_if(!task, "threadpool: empty task");
    std::unique_lock<std::mutex> lock(pool_.mu_);
    queue_.push_back(std::move(task));
    pool_.schedule(*this);
    changed_.notify_all(); // A waiter on another thread may run it.
    while (queue_.size() > kBacklogPerWidth * static_cast<size_t>(width_))
        runOldest(lock);
}

void
ThreadPool::Group::drain(std::unique_lock<std::mutex> &lock)
{
    for (;;) {
        if (!queue_.empty())
            runOldest(lock);
        else if (running_ == 0)
            return;
        else
            changed_.wait(lock);
    }
}

void
ThreadPool::Group::wait()
{
    std::unique_lock<std::mutex> lock(pool_.mu_);
    drain(lock);
    const std::exception_ptr error = std::exchange(error_, nullptr);
    lock.unlock();
    if (error)
        std::rethrow_exception(error);
}

} // namespace tessel
