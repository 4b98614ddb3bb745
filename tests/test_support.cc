/**
 * @file
 * Unit tests for the support library: tables, RNG, timers, the JSON
 * string escaper. (Resource sets have their own model tests in
 * test_resourceset.cc.)
 */

#include <gtest/gtest.h>

#include <atomic>
#include <set>
#include <sstream>
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

TEST(ThreadPool, RunsAllSubmittedTasks)
{
    ThreadPool pool(3);
    EXPECT_EQ(pool.size(), 3);
    std::atomic<int> sum{0};
    for (int i = 0; i < 100; ++i)
        pool.submit([&sum, i] { sum += i; });
    pool.wait();
    EXPECT_EQ(sum.load(), 99 * 100 / 2);
    // The pool is reusable after a wait().
    pool.submit([&sum] { sum += 1; });
    pool.wait();
    EXPECT_EQ(sum.load(), 99 * 100 / 2 + 1);
}

TEST(ThreadPool, WaiterHelpsOnTinyPool)
{
    // Even a 1-thread pool finishes promptly because wait() steals.
    ThreadPool pool(1);
    std::atomic<int> count{0};
    for (int i = 0; i < 64; ++i)
        pool.submit([&count] { ++count; });
    pool.wait();
    EXPECT_EQ(count.load(), 64);
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

TEST(SharedIncumbent, ImprovesMonotonically)
{
    SharedIncumbent inc(100);
    EXPECT_EQ(inc.load(), 100);
    EXPECT_TRUE(inc.tryImprove(42));
    EXPECT_FALSE(inc.tryImprove(42)); // Equal value is not an improvement.
    EXPECT_FALSE(inc.tryImprove(50));
    EXPECT_EQ(inc.load(), 42);
}

TEST(SharedIncumbent, ConcurrentImprovesKeepMinimum)
{
    SharedIncumbent inc(1000000);
    std::vector<std::thread> threads;
    for (int t = 0; t < 4; ++t) {
        threads.emplace_back([&inc, t] {
            for (int i = 999; i >= 0; --i)
                inc.tryImprove(4 * i + t);
        });
    }
    for (auto &t : threads)
        t.join();
    EXPECT_EQ(inc.load(), 0);
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
    // ThreadPool workers log concurrently (the planning service's miss
    // fan-out does exactly that). logMessage writes message + newline
    // in a single fputs, and stdio locks the FILE per call, so lines
    // can never interleave mid-message. Capture stderr through a temp
    // file shared by every worker and check each line verbatim.
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
        ThreadPool pool(8);
        for (int i = 0; i < kMessages; ++i) {
            pool.submit([i, &payload] {
                inform("atomic-", i, "-", payload, "-end");
            });
        }
        pool.wait();
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
