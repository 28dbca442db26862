#include "common/thread_pool.hh"

#include <algorithm>

#include "common/logging.hh"

namespace dirsim
{

ThreadPool::ThreadPool(unsigned num_threads)
{
    fatalIf(num_threads == 0, "ThreadPool needs at least one thread");
    workers.reserve(num_threads);
    for (unsigned i = 0; i < num_threads; ++i)
        workers.emplace_back([this] { workerLoop(); });
}

ThreadPool::~ThreadPool()
{
    {
        std::lock_guard<std::mutex> lock(mutex);
        stopping = true;
        tasks.clear();
    }
    taskReady.notify_all();
    for (auto &worker : workers)
        worker.join();
}

void
ThreadPool::submit(std::function<void()> task)
{
    panicIfNot(static_cast<bool>(task), "ThreadPool::submit null task");
    {
        std::lock_guard<std::mutex> lock(mutex);
        panicIfNot(!stopping, "submit on a stopping ThreadPool");
        tasks.push_back(std::move(task));
        ++inFlight;
    }
    taskReady.notify_one();
}

void
ThreadPool::wait()
{
    std::unique_lock<std::mutex> lock(mutex);
    allDone.wait(lock, [this] { return inFlight == 0; });
    if (firstError) {
        const std::exception_ptr error = firstError;
        firstError = nullptr;
        std::rethrow_exception(error);
    }
}

std::size_t
ThreadPool::pendingTasks() const
{
    std::lock_guard<std::mutex> lock(mutex);
    return inFlight;
}

unsigned
ThreadPool::hardwareThreads()
{
    const unsigned reported = std::thread::hardware_concurrency();
    return reported > 0 ? reported : 1;
}

void
ThreadPool::workerLoop()
{
    for (;;) {
        std::function<void()> task;
        {
            std::unique_lock<std::mutex> lock(mutex);
            taskReady.wait(lock, [this] {
                return stopping || !tasks.empty();
            });
            if (stopping && tasks.empty())
                return;
            task = std::move(tasks.front());
            tasks.pop_front();
        }
        std::exception_ptr error;
        try {
            task();
        } catch (...) {
            error = std::current_exception();
        }
        {
            std::lock_guard<std::mutex> lock(mutex);
            if (error && !firstError)
                firstError = error;
            --inFlight;
            if (inFlight == 0)
                allDone.notify_all();
        }
    }
}

void
runIndexed(std::size_t count, unsigned workers,
           const std::function<void(std::size_t)> &task)
{
    if (workers <= 1 || count <= 1) {
        for (std::size_t i = 0; i < count; ++i)
            task(i);
        return;
    }
    std::vector<std::exception_ptr> errors(count);
    {
        ThreadPool pool(static_cast<unsigned>(
            std::min<std::size_t>(workers, count)));
        for (std::size_t i = 0; i < count; ++i) {
            pool.submit([&task, &errors, i] {
                try {
                    task(i);
                } catch (...) {
                    errors[i] = std::current_exception();
                }
            });
        }
        pool.wait();
    }
    for (const std::exception_ptr &error : errors)
        if (error)
            std::rethrow_exception(error);
}

} // namespace dirsim
