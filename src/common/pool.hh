/**
 * @file
 * A fixed-size thread pool with a FIFO job queue.
 *
 * The synthesis engine shards its workload into one job per
 * (axiom, size) pair; each job owns its own solver state, so the pool
 * needs no shared-data machinery beyond the queue itself. Progress
 * counters (queued/running/done) are exposed so long-running bench
 * drivers can report scheduling state, and the first exception thrown
 * by any job is captured and rethrown from wait().
 */

#ifndef LTS_COMMON_POOL_HH
#define LTS_COMMON_POOL_HH

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace lts
{

/** Scheduling-state snapshot for progress reporting. */
struct PoolCounters
{
    uint64_t queued = 0;  ///< jobs submitted so far (monotonic)
    uint64_t running = 0; ///< jobs currently executing
    uint64_t done = 0;    ///< jobs finished (monotonic)
};

/**
 * Fixed worker pool. Jobs submitted with submit() run in FIFO order
 * across the workers; wait() blocks until every submitted job has
 * finished. The destructor waits for outstanding jobs before joining.
 */
class ThreadPool
{
  public:
    /** @param threads worker count; 0 means hardware_concurrency(). */
    explicit ThreadPool(unsigned threads = 0);

    /** Waits for outstanding jobs, then joins all workers. */
    ~ThreadPool();

    ThreadPool(const ThreadPool &) = delete;
    ThreadPool &operator=(const ThreadPool &) = delete;

    /** Enqueue a job. Must not be called after the destructor starts. */
    void submit(std::function<void()> job);

    /**
     * Block until all submitted jobs have finished. Rethrows the first
     * exception any job threw since the last wait().
     */
    void wait();

    PoolCounters counters() const;

    /** Clamp a requested job count: 0 means hardware_concurrency(). */
    static unsigned resolveThreads(int requested);

  private:
    void workerLoop();

    std::vector<std::thread> workers;
    std::deque<std::function<void()>> queue;

    mutable std::mutex mu;
    std::condition_variable workReady; // signalled on submit/stop
    std::condition_variable allIdle;   // signalled when pending hits 0
    size_t pending = 0;                // queued + running (under mu)
    bool stopping = false;
    std::exception_ptr firstError; // first job exception (under mu)

    std::atomic<uint64_t> nQueued{0};
    std::atomic<uint64_t> nRunning{0};
    std::atomic<uint64_t> nDone{0};
};

} // namespace lts

#endif // LTS_COMMON_POOL_HH
