/**
 * @file
 * Fixed-size work-stealing thread pool for the parallel candidate
 * search.
 *
 * Each worker owns a deque; submit() distributes tasks round-robin and
 * an idle worker steals from its siblings before sleeping. Tasks are
 * coarse (one repetend or phase solve each, milliseconds and up), so
 * the per-deque locks are never contended enough to matter. wait()
 * lets the submitting thread help drain the queues instead of idling,
 * which keeps a pool of size N worth N+1 solving threads during a
 * sweep. A search asked for one thread builds no pool at all: its
 * sweep solves every candidate inline on the calling thread.
 */

#ifndef TESSEL_SUPPORT_THREADPOOL_H
#define TESSEL_SUPPORT_THREADPOOL_H

#include <condition_variable>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

namespace tessel {

class ThreadPool
{
  public:
    using Task = std::function<void()>;

    /**
     * @param num_threads worker count; <= 0 uses hardwareThreads().
     */
    explicit ThreadPool(int num_threads = 0);

    /** Drains all queued tasks, then joins the workers. */
    ~ThreadPool();

    ThreadPool(const ThreadPool &) = delete;
    ThreadPool &operator=(const ThreadPool &) = delete;

    /** @return the number of worker threads. */
    int size() const { return static_cast<int>(threads_.size()); }

    /** Enqueue a task; callable from any thread. */
    void submit(Task task);

    /**
     * Block until every submitted task has finished. The calling
     * thread steals and runs queued tasks while it waits.
     */
    void wait();

    /** @return std::thread::hardware_concurrency(), at least 1. */
    static int hardwareThreads();

  private:
    struct Shard
    {
        std::mutex mu;
        std::deque<Task> queue;
    };

    /** Pop and run one task (own shard first, then steal). */
    bool tryRunOne(int self);
    void workerLoop(int self);

    std::vector<std::unique_ptr<Shard>> shards_;
    std::vector<std::thread> threads_;

    // Global coordination: `queued_` counts tasks sitting in a deque,
    // `pending_` counts tasks submitted but not yet finished. Both are
    // guarded by `mu_` so sleep/wake checks cannot miss a submission.
    std::mutex mu_;
    std::condition_variable workCv_; ///< signalled on submit / stop
    std::condition_variable idleCv_; ///< signalled when pending_ hits 0
    size_t queued_ = 0;
    size_t pending_ = 0;
    bool stop_ = false;
    unsigned nextShard_ = 0;
};

} // namespace tessel

#endif // TESSEL_SUPPORT_THREADPOOL_H
