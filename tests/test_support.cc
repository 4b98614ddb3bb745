/**
 * @file
 * Unit tests for the support library: tables, RNG, timers, the thread
 * pool's task groups, the JSON string escaper. (Resource sets have
 * their own model tests in test_resourceset.cc.)
 */

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <mutex>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include <fcntl.h>
#include <unistd.h>

#include "support/io.h"
#include "support/logging.h"
#include "support/cancel.h"
#include "support/rng.h"
#include "support/table.h"
#include "support/threadpool.h"
#include "support/timer.h"

namespace tessel {
namespace {

TEST(Table, AlignsColumnsAndPrintsHeader)
{
    Table t("demo");
    t.setHeader({"name", "value"});
    t.addRow({"alpha", "1"});
    t.addRow({"b", "22"});
    std::ostringstream os;
    t.print(os);
    const std::string out = os.str();
    EXPECT_NE(out.find("== demo =="), std::string::npos);
    EXPECT_NE(out.find("name"), std::string::npos);
    EXPECT_NE(out.find("alpha"), std::string::npos);
    EXPECT_EQ(t.numRows(), 2u);
}

TEST(Table, CsvOutput)
{
    Table t("demo");
    t.setHeader({"a", "b"});
    t.addRow({"1", "2"});
    std::ostringstream os;
    t.printCsv(os);
    EXPECT_EQ(os.str(), "a,b\n1,2\n");
}

TEST(Table, RaggedRowsTolerated)
{
    Table t("ragged");
    t.setHeader({"a", "b", "c"});
    t.addRow({"1"});
    std::ostringstream os;
    t.print(os);
    EXPECT_NE(os.str().find("1"), std::string::npos);
}

TEST(FormatHelpers, Doubles)
{
    EXPECT_EQ(fmtDouble(1.2345, 2), "1.23");
    EXPECT_EQ(fmtDouble(2.0, 0), "2");
    EXPECT_EQ(fmtPercent(0.25, 1), "25.0%");
    EXPECT_EQ(fmtPercent(0.0, 0), "0%");
}

TEST(Rng, Deterministic)
{
    Rng a(42), b(42);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiffer)
{
    Rng a(1), b(2);
    int same = 0;
    for (int i = 0; i < 64; ++i)
        if (a.next() == b.next())
            ++same;
    EXPECT_LT(same, 2);
}

TEST(Rng, RangeBounds)
{
    Rng r(7);
    for (int i = 0; i < 1000; ++i) {
        const int64_t v = r.range(-3, 9);
        EXPECT_GE(v, -3);
        EXPECT_LE(v, 9);
    }
    EXPECT_EQ(r.range(5, 5), 5);
}

TEST(Rng, UniformInUnitInterval)
{
    Rng r(11);
    double sum = 0.0;
    for (int i = 0; i < 4000; ++i) {
        const double u = r.uniform();
        EXPECT_GE(u, 0.0);
        EXPECT_LT(u, 1.0);
        sum += u;
    }
    EXPECT_NEAR(sum / 4000.0, 0.5, 0.05);
}

TEST(TimeBudget, UnlimitedNeverExpires)
{
    TimeBudget b(0.0);
    EXPECT_FALSE(b.expired());
    TimeBudget neg(-1.0);
    EXPECT_FALSE(neg.expired());
}

TEST(TimeBudget, TinyBudgetExpires)
{
    TimeBudget b(1e-9);
    // A nanosecond budget is certainly gone by now.
    EXPECT_TRUE(b.expired());
}

TEST(TimeBudget, ConcurrentPollingIsConsistent)
{
    // The deadline is fixed at construction, so many threads may poll
    // one shared instance; an unlimited budget must read false from
    // every thread, and a tiny one true.
    TimeBudget unlimited(0.0);
    TimeBudget tiny(1e-9);
    std::atomic<int> false_votes{0};
    std::atomic<int> true_votes{0};
    std::vector<std::thread> threads;
    for (int t = 0; t < 4; ++t) {
        threads.emplace_back([&] {
            for (int i = 0; i < 1000; ++i) {
                if (!unlimited.expired())
                    ++false_votes;
                if (tiny.expired())
                    ++true_votes;
            }
        });
    }
    for (auto &t : threads)
        t.join();
    EXPECT_EQ(false_votes.load(), 4000);
    EXPECT_EQ(true_votes.load(), 4000);
}

/**
 * Holds one worker of a pool with a task of a group of its own until
 * release() or destruction, so a test controls who runs the other
 * groups' tasks.
 */
class HeldWorker
{
  public:
    explicit HeldWorker(ThreadPool &pool) : group_(pool, 1)
    {
        group_.submit([this] {
            held_ = true;
            while (!released_)
                std::this_thread::yield();
        });
        while (!held_)
            std::this_thread::yield();
    }
    ~HeldWorker() { release(); }
    void release() { released_ = true; }

  private:
    std::atomic<bool> held_{false};
    std::atomic<bool> released_{false};
    ThreadPool::Group group_;
};

TEST(ThreadPool, RunsAllSubmittedTasks)
{
    ThreadPool pool;
    ThreadPool::Group group(pool, 3);
    EXPECT_EQ(pool.size(), 3);
    std::atomic<int> sum{0};
    for (int i = 0; i < 100; ++i)
        group.submit([&sum, i] { sum += i; });
    group.wait();
    EXPECT_EQ(sum.load(), 99 * 100 / 2);
    // The group is reusable after a wait().
    group.submit([&sum] { sum += 1; });
    group.wait();
    EXPECT_EQ(sum.load(), 99 * 100 / 2 + 1);
}

TEST(ThreadPool, WaiterHelpsOnTinyPool)
{
    // The pool's one worker is held by another group, so the 64 tasks
    // finish only because submit() and wait() run them on the caller.
    ThreadPool pool;
    HeldWorker held(pool);
    ThreadPool::Group group(pool, 1);
    const std::thread::id caller = std::this_thread::get_id();
    std::atomic<int> count{0};
    std::atomic<int> on_caller{0};
    for (int i = 0; i < 64; ++i)
        group.submit([&] {
            ++count;
            if (std::this_thread::get_id() == caller)
                ++on_caller;
        });
    group.wait();
    EXPECT_EQ(count.load(), 64);
    EXPECT_EQ(on_caller.load(), 64);
}

TEST(TaskGroup, WaiterRunsOnlyItsOwnGroupsTasks)
{
    ThreadPool pool;
    HeldWorker held(pool); // the pool's only worker
    ThreadPool::Group mine(pool, 1);
    ThreadPool::Group other(pool, 1);
    std::atomic<int> other_ran{0};
    std::atomic<int> mine_ran{0};
    other.submit([&other_ran] { ++other_ran; });
    mine.submit([&mine_ran] { ++mine_ran; });
    other.submit([&other_ran] { ++other_ran; });
    mine.wait();
    EXPECT_EQ(mine_ran.load(), 1);
    EXPECT_EQ(other_ran.load(), 0);
    held.release();
    other.wait();
    EXPECT_EQ(other_ran.load(), 2);
}

TEST(TaskGroup, NestedGroupsFinishOnOneWorker)
{
    // A batch miss runs a sweep, whose eager completion runs a cooldown
    // helper: three levels of groups. Each waiter runs only its own
    // group's tasks, so they finish even on a one-worker pool.
    ThreadPool pool;
    std::atomic<int> leaves{0};
    {
        ThreadPool::Group outer(pool, 1);
        for (int i = 0; i < 4; ++i)
            outer.submit([&] {
                ThreadPool::Group middle(pool, 1);
                for (int j = 0; j < 4; ++j)
                    middle.submit([&] {
                        ThreadPool::Group inner(pool, 1);
                        for (int k = 0; k < 4; ++k)
                            inner.submit([&leaves] { ++leaves; });
                        inner.wait();
                    });
                middle.wait();
            });
        outer.wait();
    }
    EXPECT_EQ(leaves.load(), 64);
    EXPECT_EQ(pool.size(), 1);
}

TEST(TaskGroup, NeverMoreThanWidthTasksOnWorkers)
{
    ThreadPool pool;
    ThreadPool::Group wide(pool, 6); // idle; leaves spare workers
    ThreadPool::Group group(pool, 2);
    const std::thread::id caller = std::this_thread::get_id();
    std::atomic<int> on_workers{0};
    std::atomic<int> peak{0};
    std::atomic<int> worker_runs{0};
    std::atomic<int> ran{0};
    for (int i = 0; i < 40; ++i)
        group.submit([&] {
            const bool worker = std::this_thread::get_id() != caller;
            if (worker) {
                ++worker_runs;
                const int now = ++on_workers;
                int seen = peak.load();
                while (now > seen && !peak.compare_exchange_weak(seen, now)) {
                }
            }
            std::this_thread::sleep_for(std::chrono::milliseconds(1));
            if (worker)
                --on_workers;
            ++ran;
        });
    group.wait();
    EXPECT_EQ(ran.load(), 40);
    EXPECT_EQ(pool.size(), 6);
    EXPECT_GT(worker_runs.load(), 0);
    EXPECT_LE(peak.load(), 2);
}

TEST(TaskGroup, WidthZeroRunsEachTaskOnTheSubmitterInOrder)
{
    ThreadPool pool;
    ThreadPool::Group group(pool, 0);
    EXPECT_EQ(pool.size(), 0);
    const std::thread::id caller = std::this_thread::get_id();
    std::vector<int> order;
    for (int i = 0; i < 8; ++i) {
        group.submit([&, i] {
            EXPECT_EQ(std::this_thread::get_id(), caller);
            order.push_back(i);
        });
        ASSERT_EQ(order.size(), static_cast<size_t>(i + 1));
    }
    group.wait();
    EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4, 5, 6, 7}));
}

TEST(TaskGroup, SubmitRunsTheOldestTaskPastTheBacklogCap)
{
    // With the pool's one worker held, a width-1 group keeps its
    // backlog cap queued and runs the oldest task beyond it on the
    // submitter, so the tasks still run in submission order.
    ThreadPool pool;
    HeldWorker held(pool);
    ThreadPool::Group group(pool, 1);
    const size_t cap = ThreadPool::kBacklogPerWidth;
    std::vector<size_t> order; // only this thread runs the tasks
    for (size_t i = 0; i < cap + 3; ++i) {
        group.submit([&order, i] { order.push_back(i); });
        EXPECT_EQ(order.size(), i < cap ? 0 : i + 1 - cap);
    }
    group.wait();
    std::vector<size_t> expected(cap + 3);
    for (size_t i = 0; i < expected.size(); ++i)
        expected[i] = i;
    EXPECT_EQ(order, expected);
}

TEST(TaskGroup, WorkersServeGroupsRoundRobin)
{
    ThreadPool pool;
    HeldWorker held(pool);
    ThreadPool::Group a(pool, 1);
    ThreadPool::Group b(pool, 1);
    std::mutex mu;
    std::vector<std::string> order; // guarded by mu
    std::atomic<int> ran{0};
    auto task = [&](const char *name) {
        return [&, name] {
            std::lock_guard<std::mutex> lock(mu);
            order.push_back(name);
            ++ran;
        };
    };
    a.submit(task("a1"));
    a.submit(task("a2"));
    b.submit(task("b1"));
    b.submit(task("b2"));
    held.release();
    while (ran.load() < 4) // the worker runs all four
        std::this_thread::yield();
    a.wait();
    b.wait();
    EXPECT_EQ(order, (std::vector<std::string>{"a1", "b1", "a2", "b2"}));
}

TEST(TaskGroup, WaitRethrowsATaskErrorAndTheDestructorWaits)
{
    ThreadPool pool;
    std::atomic<int> ran{0};
    ThreadPool::Group group(pool, 2);
    for (int i = 0; i < 20; ++i)
        group.submit([&ran, i] {
            ++ran;
            if (i == 7)
                throw std::runtime_error("task 7 failed");
        });
    EXPECT_THROW(group.wait(), std::runtime_error);
    EXPECT_EQ(ran.load(), 20); // the other tasks still ran
    // wait() reports an error once; the group stays usable.
    group.submit([&ran] { ++ran; });
    EXPECT_NO_THROW(group.wait());
    EXPECT_EQ(ran.load(), 21);

    // Inline tasks report through wait() too, the first error winning.
    ThreadPool::Group inline_group(pool, 0);
    inline_group.submit([] { throw std::runtime_error("first"); });
    inline_group.submit([] { throw std::logic_error("second"); });
    EXPECT_THROW(inline_group.wait(), std::runtime_error);

    // Leaving a group's scope waits for its tasks on workers.
    std::atomic<bool> finished{false};
    {
        ThreadPool::Group scoped(pool, 1);
        scoped.submit([&finished] {
            std::this_thread::sleep_for(std::chrono::milliseconds(20));
            finished = true;
        });
    }
    EXPECT_TRUE(finished.load());
}

TEST(TaskGroup, PoolGrowsToTheWidestGroupOnly)
{
    ThreadPool pool;
    EXPECT_EQ(pool.size(), 0);
    {
        ThreadPool::Group two(pool, 2);
        EXPECT_EQ(pool.size(), 2);
    }
    ThreadPool::Group three(pool, 3);
    EXPECT_EQ(pool.size(), 3);
    ThreadPool::Group one(pool, 1);
    ThreadPool::Group none(pool, 0);
    EXPECT_EQ(pool.size(), 3);
    // The planner's groups all open on one process-wide pool.
    EXPECT_EQ(&ThreadPool::shared(), &ThreadPool::shared());
}

TEST(CancelToken, DefaultNeverCancelled)
{
    CancelToken token;
    EXPECT_FALSE(token.cancelled());
}

TEST(CancelToken, ObservesSourceAndLinks)
{
    CancelSource a, b;
    const CancelToken linked = a.token().linked(b.token());
    EXPECT_FALSE(linked.cancelled());
    b.cancel();
    EXPECT_TRUE(linked.cancelled());
    EXPECT_FALSE(a.token().cancelled());
    EXPECT_TRUE(b.cancelled());
}

TEST(Stopwatch, MeasuresForwardProgress)
{
    Stopwatch w;
    const double a = w.seconds();
    const double b = w.seconds();
    EXPECT_GE(b, a);
    EXPECT_GE(a, 0.0);
}

TEST(JsonEscape, QuotesBackslashesAndNamedControls)
{
    EXPECT_EQ(jsonEscape(""), "");
    EXPECT_EQ(jsonEscape("plain/text"), "plain/text");
    EXPECT_EQ(jsonEscape("a\"b\\c"), "a\\\"b\\\\c");
    EXPECT_EQ(jsonEscape("a\nb\rc\td"), "a\\nb\\rc\\td");
}

TEST(JsonEscape, OtherControlBytesBecomeUnicodeEscapes)
{
    EXPECT_EQ(jsonEscape("a\x01" "b"), "a\\u0001b");
    EXPECT_EQ(jsonEscape(std::string("\0", 1)), "\\u0000");
    EXPECT_EQ(jsonEscape("\x1f\x1b"), "\\u001f\\u001b");
    // 0x20 and above pass through, UTF-8 included.
    EXPECT_EQ(jsonEscape(" \x7f\xc3\xa9"), " \x7f\xc3\xa9");
    std::string all;
    for (int c = 0; c < 0x20; ++c)
        all.push_back(static_cast<char>(c));
    for (const char c : jsonEscape(all))
        EXPECT_GE(static_cast<unsigned char>(c), 0x20);
}

TEST(Logging, VerboseToggle)
{
    const bool prev = setLogVerbose(false);
    EXPECT_FALSE(logVerbose());
    setLogVerbose(prev);
    EXPECT_EQ(logVerbose(), prev);
}

TEST(Logging, MessagesAtomicAcrossThreadPoolWorkers)
{
    // warn()/inform() must land whole, one line per message, even when
    // the tasks of a group log concurrently from pool workers (the
    // planning service's miss fan-out does exactly that). logMessage
    // writes message + newline in a single fputs, and stdio locks the
    // FILE per call, so lines can never interleave mid-message. Capture
    // stderr through a temp file shared by every worker and check each
    // line verbatim.
    std::string dir;
    ASSERT_TRUE(makeTempDir("tessel-logtest-", &dir));
    const std::string path = dir + "/stderr.txt";

    ASSERT_EQ(std::fflush(stderr), 0);
    const int saved = ::dup(STDERR_FILENO);
    ASSERT_GE(saved, 0);
    const int fd =
        ::open(path.c_str(), O_WRONLY | O_CREAT | O_APPEND, 0644);
    ASSERT_GE(fd, 0);
    ASSERT_GE(::dup2(fd, STDERR_FILENO), 0);
    ::close(fd);

    constexpr int kMessages = 400;
    // Long payload: a torn write would interleave inside the x-run.
    const std::string payload(160, 'x');
    {
        ThreadPool pool;
        ThreadPool::Group group(pool, 8);
        for (int i = 0; i < kMessages; ++i) {
            group.submit([i, &payload] {
                inform("atomic-", i, "-", payload, "-end");
            });
        }
        group.wait();
    }
    ASSERT_EQ(std::fflush(stderr), 0);
    ASSERT_GE(::dup2(saved, STDERR_FILENO), 0);
    ::close(saved);

    std::string captured, err;
    ASSERT_TRUE(readFile(path, &captured, &err)) << err;
    ::unlink(path.c_str());
    ::rmdir(dir.c_str());

    // Every line must be exactly one complete message; every message
    // must appear exactly once.
    std::set<int> seen;
    size_t pos = 0;
    while (pos < captured.size()) {
        size_t nl = captured.find('\n', pos);
        ASSERT_NE(nl, std::string::npos)
            << "unterminated line: " << captured.substr(pos, 80);
        const std::string line = captured.substr(pos, nl - pos);
        pos = nl + 1;
        const size_t tag = line.find("atomic-");
        ASSERT_NE(tag, std::string::npos) << "torn line: " << line;
        const size_t dash = line.find('-', tag + 7);
        ASSERT_NE(dash, std::string::npos) << "torn line: " << line;
        const int id = std::stoi(line.substr(tag + 7, dash - tag - 7));
        EXPECT_TRUE(seen.insert(id).second)
            << "message " << id << " split across lines";
        EXPECT_NE(line.find("-" + payload + "-end"), std::string::npos)
            << "torn line: " << line;
        // The whole line is one formatted message: "info: " prefix and
        // the source-location suffix must both be on this line.
        EXPECT_EQ(line.rfind("info: ", 0), 0u) << "torn line: " << line;
        EXPECT_NE(line.find("[" __FILE__), std::string::npos)
            << "suffix missing: " << line;
    }
    EXPECT_EQ(seen.size(), static_cast<size_t>(kMessages));
}

} // namespace
} // namespace tessel
