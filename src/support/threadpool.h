/**
 * @file
 * The planner's thread pool: one process-wide set of workers that every
 * parallel loop (candidate sweep, cooldown helper, batch fan-out) shares
 * through task groups.
 *
 * A group runs at most `width` of its tasks on pool workers at once,
 * FIFO within the group; workers serve the groups that have work
 * round-robin, so a long sweep cannot delay a cooldown helper or another
 * search's candidates. Group::wait() runs the group's own queued tasks
 * on the waiting thread, never another group's, so groups nest without
 * deadlock. A width-0 group runs each task on the submitter before
 * submit() returns. Once a group holds more than kBacklogPerWidth *
 * width queued tasks, submit() runs the oldest on the submitter, so a
 * producer stays close to its consumers. The pool starts empty, grows to
 * the widest group ever opened on it and never shrinks.
 */

#ifndef TESSEL_SUPPORT_THREADPOOL_H
#define TESSEL_SUPPORT_THREADPOOL_H

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace tessel {

class ThreadPool
{
  public:
    using Task = std::function<void()>;

    /** Queued tasks a group may hold per unit of width. A 4-thread
     * sweep ran slower with caps of 1 and 2, and no faster with 8. */
    static constexpr size_t kBacklogPerWidth = 4;

    ThreadPool() = default;
    /** Joins the workers; every group on the pool must be gone. */
    ~ThreadPool();
    ThreadPool(const ThreadPool &) = delete;
    ThreadPool &operator=(const ThreadPool &) = delete;

    /**
     * The process-wide pool the planner runs on. Never destroyed, so no
     * static destructor joins a worker still running a task, or the
     * thread that calls exit() from inside one.
     */
    static ThreadPool &shared();

    /** @return the number of workers started so far. */
    int size() const;

    /** @return std::thread::hardware_concurrency(), at least 1. */
    static int hardwareThreads();

    /** Tasks with their own width, wait() and first error. Declare a
     * group after everything its tasks reference. */
    class Group
    {
      public:
        /** Grows @p pool to @p width workers (negative counts as 0). */
        Group(ThreadPool &pool, int width);
        /** A group on ThreadPool::shared(). */
        explicit Group(int width) : Group(shared(), width) {}
        /** Waits like wait(), but only logs a task's error. */
        ~Group();
        Group(const Group &) = delete;
        Group &operator=(const Group &) = delete;

        /** Queue @p task; callable from any thread. */
        void submit(Task task);

        /**
         * Run the group's queued tasks here, then wait for those on
         * workers. Rethrows the first exception a task threw since the
         * last wait(); the group stays usable.
         */
        void wait();

      private:
        friend class ThreadPool;

        /** Run the oldest queued task on this thread. */
        void runOldest(std::unique_lock<std::mutex> &lock);
        /** wait() without the rethrow. */
        void drain(std::unique_lock<std::mutex> &lock);

        ThreadPool &pool_;
        const int width_;
        // Guarded by pool_.mu_.
        std::deque<Task> queue_;
        int onWorkers_ = 0;      ///< tasks running on pool workers
        int running_ = 0;        ///< tasks running on any thread
        bool scheduled_ = false; ///< listed in pool_.ready_
        std::exception_ptr error_;
        std::condition_variable changed_; ///< a task queued or finished
    };

  private:
    void workerLoop();
    /** List @p group in ready_ iff it has a queued task and a free slot
     * of width; call after any change to either. */
    void schedule(Group &group);
    /** Run @p task for @p group with @p lock released meanwhile. */
    void run(Group &group, Task &task, std::unique_lock<std::mutex> &lock);

    mutable std::mutex mu_;
    std::deque<Group *> ready_; ///< groups workers take tasks from
    bool stop_ = false;
    std::condition_variable workCv_; ///< ready_ or stop_ changed
    std::vector<std::thread> threads_;
};

} // namespace tessel

#endif // TESSEL_SUPPORT_THREADPOOL_H
