/** @file Unit tests for common/thread_pool.hh. */

#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

#include "common/logging.hh"
#include "common/thread_pool.hh"

namespace dirsim
{
namespace
{

TEST(ThreadPoolTest, RunsEveryTask)
{
    ThreadPool pool(4);
    EXPECT_EQ(pool.numThreads(), 4u);
    std::atomic<int> ran{0};
    for (int i = 0; i < 100; ++i)
        pool.submit([&ran] { ran.fetch_add(1); });
    pool.wait();
    EXPECT_EQ(ran.load(), 100);
    EXPECT_EQ(pool.pendingTasks(), 0u);
}

TEST(ThreadPoolTest, SingleThreadRunsTasksInOrder)
{
    ThreadPool pool(1);
    std::vector<int> order;
    for (int i = 0; i < 20; ++i)
        pool.submit([&order, i] { order.push_back(i); });
    pool.wait();
    ASSERT_EQ(order.size(), 20u);
    for (int i = 0; i < 20; ++i)
        EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
}

TEST(ThreadPoolTest, ReusableAfterWait)
{
    ThreadPool pool(2);
    std::atomic<int> ran{0};
    pool.submit([&ran] { ran.fetch_add(1); });
    pool.wait();
    pool.submit([&ran] { ran.fetch_add(1); });
    pool.wait();
    EXPECT_EQ(ran.load(), 2);
}

TEST(ThreadPoolTest, WaitRethrowsFirstTaskError)
{
    ThreadPool pool(2);
    std::atomic<int> ran{0};
    for (int i = 0; i < 10; ++i) {
        pool.submit([&ran, i] {
            ran.fetch_add(1);
            if (i == 3)
                fatal("task ", i, " failed");
        });
    }
    EXPECT_THROW(pool.wait(), UsageError);
    // The failure did not kill the workers or drop other tasks.
    EXPECT_EQ(ran.load(), 10);
    // The error was consumed; the pool is usable again.
    pool.submit([&ran] { ran.fetch_add(1); });
    pool.wait();
    EXPECT_EQ(ran.load(), 11);
}

TEST(ThreadPoolTest, WaitWithNoTasksReturnsImmediately)
{
    ThreadPool pool(3);
    pool.wait();
    EXPECT_EQ(pool.pendingTasks(), 0u);
}

TEST(ThreadPoolTest, ZeroThreadsRejected)
{
    EXPECT_THROW(ThreadPool pool(0), UsageError);
}

TEST(ThreadPoolTest, HardwareThreadsIsPositive)
{
    EXPECT_GE(ThreadPool::hardwareThreads(), 1u);
}

TEST(RunIndexedTest, OneWorkerRunsInlineInIndexOrder)
{
    const std::thread::id caller = std::this_thread::get_id();
    std::vector<std::size_t> order;
    runIndexed(8, 1, [&](std::size_t i) {
        EXPECT_EQ(std::this_thread::get_id(), caller);
        order.push_back(i);
    });
    EXPECT_EQ(order, (std::vector<std::size_t>{0, 1, 2, 3, 4, 5, 6, 7}));
    // A single task stays inline at any worker count.
    runIndexed(1, 8, [&](std::size_t) {
        EXPECT_EQ(std::this_thread::get_id(), caller);
    });
}

TEST(RunIndexedTest, PoolRunsEveryIndexOnce)
{
    std::vector<std::atomic<int>> ran(100);
    runIndexed(ran.size(), 4,
               [&](std::size_t i) { ran[i].fetch_add(1); });
    for (const auto &count : ran)
        EXPECT_EQ(count.load(), 1);
}

TEST(RunIndexedTest, LowestFailingIndexWinsRegardlessOfTiming)
{
    // Index 1 fails last in time (it waits for index 6 to fail
    // first), yet its error is the one reported; every task ran.
    for (int repeat = 0; repeat < 5; ++repeat) {
        std::atomic<bool> late_failed{false};
        std::atomic<int> ran{0};
        try {
            runIndexed(8, 4, [&](std::size_t i) {
                ran.fetch_add(1);
                if (i == 6) {
                    late_failed = true;
                    fatal("task 6 failed");
                }
                if (i == 1) {
                    while (!late_failed.load())
                        std::this_thread::yield();
                    fatal("task 1 failed");
                }
            });
            ADD_FAILURE() << "runIndexed did not throw";
        } catch (const UsageError &error) {
            EXPECT_STREQ(error.what(), "task 1 failed");
        }
        EXPECT_EQ(ran.load(), 8);
    }
    // Inline, the first failure stops the batch.
    int ran = 0;
    EXPECT_THROW(runIndexed(8, 1,
                            [&](std::size_t i) {
                                ++ran;
                                if (i == 2)
                                    fatal("task 2 failed");
                            }),
                 UsageError);
    EXPECT_EQ(ran, 3);
}

} // namespace
} // namespace dirsim
