#pragma once
// Fixed-size worker thread pool with a fork-join parallel_for. This is the
// execution engine behind the sweep layer (exec/sweep.hpp): BER surfaces,
// JTOL/FTOL searches and multi-channel behavioral runs are embarrassingly
// parallel across grid points / channels, and this pool turns that into
// wall-clock speedup without giving up determinism — work items are
// addressed by index, each index writes only its own result slot, and any
// randomness is derived from the index (exec::derive_seed), never from
// which thread or in what order an item ran.
//
// Concurrency model:
//   - The caller participates: a pool of size N has N-1 worker threads and
//     drains indices on the calling thread too, so ThreadPool(1) spawns no
//     threads at all and parallel_for degenerates to a plain serial loop.
//   - Indices are handed out dynamically (one atomic fetch_add per item),
//     so uneven per-item cost load-balances automatically. Items should be
//     chunky (>= ~10 us); for micro-work, batch indices in the callback.
//   - parallel_for is a barrier: it returns only after every index ran.
//     The first exception thrown by any item is rethrown to the caller
//     (remaining items still execute; they are not cancelled).
//   - A job may carry a stop flag (the serving layer's deadline/cancel
//     paths): once it reads true, no NEW index is handed out.
//   - parallel_for is NOT reentrant from inside an item. Nested calls are
//     detected and run their loop inline on the calling worker.

#include <cstddef>
#include <cstdint>
#include <exception>
#include <functional>
#include <string>
#include <thread>
#include <vector>

#include <atomic>
#include <condition_variable>
#include <mutex>

#include "obs/metrics.hpp"

namespace gcdr::exec {

class ThreadPool {
public:
    /// `n_threads` = total concurrency including the caller; 0 picks
    /// std::thread::hardware_concurrency() (min 1).
    explicit ThreadPool(std::size_t n_threads = 0);
    ~ThreadPool();

    ThreadPool(const ThreadPool&) = delete;
    ThreadPool& operator=(const ThreadPool&) = delete;

    /// Total lanes (worker threads + the calling thread).
    [[nodiscard]] std::size_t size() const { return workers_.size() + 1; }

    /// Run fn(i) for every i in [0, n); blocks until all completed and
    /// returns the number of items that ran (n without a stop flag).
    /// With `stop`, once it reads true no NEW index is handed out (items
    /// already started run to completion — fn is never torn mid-item).
    /// Which indices ran under a mid-flight stop is scheduling-dependent
    /// by nature; determinism is preserved in the only sense that matters
    /// to the serving cache — every index either ran fn completely or not
    /// at all. A job without a stop flag pays nothing for it per item.
    std::size_t parallel_for(std::size_t n,
                             const std::function<void(std::size_t)>& fn,
                             const std::atomic<bool>* stop = nullptr);

    /// Lane index of the current thread during a parallel_for: 0 for the
    /// calling thread (and any thread outside the pool), 1..size()-1 for
    /// workers. Stable for the lifetime of the pool; use it to index
    /// per-lane state (the MC margin models' flight rings).
    [[nodiscard]] static std::size_t lane_index();

    /// Attach telemetry (obs/). Registers under `prefix`:
    ///   <prefix>.jobs / .items          counters (parallel_for calls /
    ///                                   indices that ran, incl. serial)
    ///   <prefix>.job_seconds            histogram, barrier-to-barrier wall
    ///   <prefix>.item_seconds           histogram, per-item latency
    ///   <prefix>.lanes                  gauge, size()
    ///   <prefix>.lane_utilization       gauge, sum(lane busy) /
    ///                                   (lanes * job wall) of the last
    ///                                   parallel job (1.0 = no idle lanes)
    /// Pass nullptr to detach. Detached (the default), parallel_for takes
    /// no clock reads and no atomic RMWs beyond the index handout (and,
    /// with a stop flag, the tally of items that ran); items are assumed
    /// chunky (>= ~10 us), so the two steady_clock reads per item when
    /// attached stay in the noise.
    void attach_metrics(obs::MetricsRegistry* registry,
                        const std::string& prefix = "exec");

private:
    void worker_main(std::size_t lane);
    void drain();

    std::vector<std::thread> workers_;

    std::mutex mu_;
    std::condition_variable cv_start_;
    std::condition_variable cv_done_;
    bool stop_ = false;
    std::uint64_t generation_ = 0;      ///< bumped per parallel_for
    std::size_t active_workers_ = 0;    ///< workers still in current job

    const std::function<void(std::size_t)>* job_fn_ = nullptr;
    std::size_t job_n_ = 0;
    std::atomic<std::size_t> next_{0};
    std::exception_ptr first_error_;
    /// Non-null only during a job with a stop flag: the caller's flag,
    /// polled before each index handout. executed_ tallies items that ran.
    const std::atomic<bool>* job_stop_ = nullptr;
    std::atomic<std::size_t> executed_{0};

    // Telemetry instruments (null when no registry is attached).
    obs::Counter* m_jobs_ = nullptr;
    obs::Counter* m_items_ = nullptr;
    obs::Histogram* m_job_seconds_ = nullptr;
    obs::Histogram* m_item_seconds_ = nullptr;
    obs::Gauge* m_lanes_ = nullptr;
    obs::Gauge* m_lane_utilization_ = nullptr;
    /// Per-job busy time summed across lanes (ns); reset at job start.
    std::atomic<std::int64_t> busy_ns_{0};
};

}  // namespace gcdr::exec
