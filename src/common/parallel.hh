/**
 * @file
 * Host-thread infrastructure for the parallel execution engine
 * (DESIGN.md §7.6): a persistent pool of worker threads driven by an
 * epoch-counter barrier.
 *
 * The machine advances in quanta: the coordinating thread publishes a
 * job, bumps the epoch (release), every worker waits on the epoch
 * (acquire), runs the job for its own shard, and bumps the done
 * counter (release); the coordinator spins until all workers have
 * checked in (acquire). The release/acquire pairs on `epoch_` and
 * `done_` are the only synchronization the engine needs: everything a
 * shard wrote during a quantum happens-before the coordinator's merge
 * phase, and everything the coordinator merged happens-before the
 * next quantum's shard work. ThreadSanitizer sees those edges, so the
 * engine is clean under TSan with no locks on the simulation path.
 *
 * Workers wait for the next epoch with a bounded spin, then bounded
 * yields, then park on the epoch (a futex wait), so an idle pool (a
 * machine paused or finished but alive) costs no CPU.
 *
 * A job that throws does not take the host down: each worker's
 * exception is captured, the quantum's barrier completes as usual,
 * and the coordinator rethrows the lowest-indexed worker's exception
 * from runQuantum(). The pool stays usable and joinable.
 */

#ifndef APRIL_COMMON_PARALLEL_HH
#define APRIL_COMMON_PARALLEL_HH

#include <atomic>
#include <cstdint>
#include <exception>
#include <functional>
#include <thread>
#include <vector>

namespace april::par
{

/** Persistent worker pool; worker 0 is the calling thread. */
class WorkerPool
{
  public:
    /**
     * Spawn @p num_workers - 1 host threads (worker 0 is whoever
     * calls runQuantum). @p job is invoked as job(worker_index) once
     * per worker per quantum; it must be safe to call concurrently
     * for distinct indices.
     */
    WorkerPool(uint32_t num_workers,
               std::function<void(uint32_t)> job)
        : numWorkers_(num_workers), job_(std::move(job)),
          errors_(num_workers)
    {
        for (uint32_t w = 1; w < numWorkers_; ++w)
            threads_.emplace_back([this, w] { workerLoop(w); });
    }

    ~WorkerPool()
    {
        stop_.store(true, std::memory_order_relaxed);
        epoch_.fetch_add(1, std::memory_order_release);
        epoch_.notify_all();
        for (auto &t : threads_)
            t.join();
    }

    WorkerPool(const WorkerPool &) = delete;
    WorkerPool &operator=(const WorkerPool &) = delete;

    /**
     * Run one quantum: every worker (including the caller, as worker
     * 0) executes the job, and the call returns once all of them have
     * finished. The caller may touch any shard's data between calls.
     * If any job threw, the lowest-indexed worker's exception is
     * rethrown here, after every worker has finished.
     */
    void
    runQuantum()
    {
        done_.store(0, std::memory_order_relaxed);
        epoch_.fetch_add(1, std::memory_order_release);
        epoch_.notify_all();    // no system call unless one is parked
        runJob(0);
        // Wait for workers 1..N-1 (acquire pairs with their release).
        // Bounded spin, then yield: on an oversubscribed host the
        // laggards need this core, and a pause-only spin would burn a
        // whole scheduler timeslice per quantum waiting for them.
        uint32_t spins = 0;
        while (done_.load(std::memory_order_acquire) + 1 <
               numWorkers_) {
            if (++spins < kSpins)
                relax();
            else
                std::this_thread::yield();
        }
        std::exception_ptr first;
        for (std::exception_ptr &e : errors_) {
            if (!first)
                first = e;
            e = nullptr;
        }
        if (first)
            std::rethrow_exception(first);
    }

    uint32_t numWorkers() const { return numWorkers_; }

  private:
    /// Pause-spins, then yields, before an idle worker parks.
    static constexpr uint32_t kSpins = 128;
    static constexpr uint32_t kYields = 1024;

    static void
    relax()
    {
#if defined(__x86_64__) || defined(__i386__)
        __builtin_ia32_pause();
#else
        std::this_thread::yield();
#endif
    }

    /** Run worker @p index's job, keeping what it throws for the
     *  coordinator (published by the done_ release). */
    void
    runJob(uint32_t index)
    {
        try {
            job_(index);
        } catch (...) {
            errors_[index] = std::current_exception();
        }
    }

    void
    workerLoop(uint32_t index)
    {
        uint32_t seen = 0;
        for (;;) {
            uint32_t spins = 0;
            while (epoch_.load(std::memory_order_acquire) == seen) {
                if (++spins < kSpins)
                    relax();
                else if (spins < kSpins + kYields)
                    std::this_thread::yield();
                else
                    epoch_.wait(seen, std::memory_order_acquire);
            }
            ++seen;
            if (stop_.load(std::memory_order_relaxed))
                return;
            runJob(index);
            done_.fetch_add(1, std::memory_order_release);
        }
    }

    uint32_t numWorkers_;
    std::function<void(uint32_t)> job_;
    std::vector<std::exception_ptr> errors_;    ///< per worker
    std::atomic<uint32_t> epoch_{0};    ///< futex-sized; wraps harmlessly
    std::atomic<uint32_t> done_{0};
    std::atomic<bool> stop_{false};
    std::vector<std::thread> threads_;
};

} // namespace april::par

#endif // APRIL_COMMON_PARALLEL_HH
