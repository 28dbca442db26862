/**
 * @file
 * A small fixed-size worker pool with a FIFO task queue, and
 * runIndexed(), the one batch dispatcher built on it: the cell
 * executor (sim/job.hh runPlan()), the plan's decode pass, sharded
 * cells and the manifest checksums all run through runIndexed().
 *
 * Tasks are plain std::function<void()> closures. An exception
 * escaping a task does not kill the worker: the first one is captured
 * and rethrown from the next wait(), so callers observe task failures
 * at a well-defined point.
 */

#ifndef DIRSIM_COMMON_THREAD_POOL_HH
#define DIRSIM_COMMON_THREAD_POOL_HH

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace dirsim
{

/** Fixed-size thread pool executing submitted tasks FIFO. */
class ThreadPool
{
  public:
    /**
     * Start @p num_threads workers.
     *
     * @throws UsageError when @p num_threads is zero
     */
    explicit ThreadPool(unsigned num_threads);

    /** Drains the queue (discarding pending tasks) and joins. */
    ~ThreadPool();

    ThreadPool(const ThreadPool &) = delete;
    ThreadPool &operator=(const ThreadPool &) = delete;

    /** Workers owned by the pool. */
    unsigned numThreads() const
    {
        return static_cast<unsigned>(workers.size());
    }

    /** Enqueue @p task; it runs on some worker in FIFO order. */
    void submit(std::function<void()> task);

    /**
     * Block until every submitted task has finished.
     *
     * @throws whatever the first failing task threw since the last
     *         wait(); remaining tasks still ran to completion
     */
    void wait();

    /** Tasks submitted but not yet finished. */
    std::size_t pendingTasks() const;

    /**
     * std::thread::hardware_concurrency() clamped to >= 1 (the
     * standard allows it to return 0 when undeterminable).
     */
    static unsigned hardwareThreads();

  private:
    void workerLoop();

    mutable std::mutex mutex;
    std::condition_variable taskReady;
    std::condition_variable allDone;
    std::deque<std::function<void()>> tasks;
    std::vector<std::thread> workers;
    std::size_t inFlight = 0;
    std::exception_ptr firstError;
    bool stopping = false;
};

/**
 * Run @p task(i) for every i in [0, @p count). With @p workers <= 1
 * or @p count <= 1 the tasks run inline on the calling thread in
 * index order and the first failure propagates at once; otherwise
 * they run on a pool of min(@p workers, @p count) threads, every task
 * finishes, and the failure of the *lowest index* is rethrown — so
 * which error a batch reports never depends on timing.
 */
void runIndexed(std::size_t count, unsigned workers,
                const std::function<void(std::size_t)> &task);

} // namespace dirsim

#endif // DIRSIM_COMMON_THREAD_POOL_HH
