#include "exec/thread_pool.hpp"

#include <algorithm>
#include <chrono>

namespace gcdr::exec {

namespace {
using MonoClock = std::chrono::steady_clock;

double ns_to_s(std::int64_t ns) { return static_cast<double>(ns) * 1e-9; }

std::int64_t elapsed_ns(MonoClock::time_point t0) {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               MonoClock::now() - t0)
        .count();
}
}  // namespace

namespace {
// 0 on the caller and on foreign threads; workers overwrite on startup.
thread_local std::size_t t_lane_index = 0;
// Set while a thread is inside drain(): nested parallel_for runs inline.
thread_local bool t_in_parallel_region = false;
}  // namespace

std::size_t ThreadPool::lane_index() { return t_lane_index; }

ThreadPool::ThreadPool(std::size_t n_threads) {
    if (n_threads == 0) {
        n_threads = std::max<std::size_t>(1, std::thread::hardware_concurrency());
    }
    workers_.reserve(n_threads - 1);
    for (std::size_t lane = 1; lane < n_threads; ++lane) {
        workers_.emplace_back([this, lane] { worker_main(lane); });
    }
}

ThreadPool::~ThreadPool() {
    {
        std::lock_guard<std::mutex> lk(mu_);
        stop_ = true;
    }
    cv_start_.notify_all();
    for (auto& w : workers_) w.join();
}

void ThreadPool::worker_main(std::size_t lane) {
    t_lane_index = lane;
    std::unique_lock<std::mutex> lk(mu_);
    std::uint64_t seen_generation = 0;
    for (;;) {
        cv_start_.wait(lk, [&] {
            return stop_ || generation_ != seen_generation;
        });
        if (stop_) return;
        seen_generation = generation_;
        lk.unlock();
        drain();
        lk.lock();
        if (--active_workers_ == 0) cv_done_.notify_all();
    }
}

void ThreadPool::drain() {
    t_in_parallel_region = true;
    const bool timed = m_item_seconds_ != nullptr;
    const std::atomic<bool>* stop = job_stop_;
    const auto lane_t0 = timed ? MonoClock::now() : MonoClock::time_point{};
    for (;;) {
        if (stop && stop->load(std::memory_order_relaxed)) break;
        const std::size_t i = next_.fetch_add(1, std::memory_order_relaxed);
        if (i >= job_n_) break;
        const auto item_t0 =
            timed ? MonoClock::now() : MonoClock::time_point{};
        try {
            (*job_fn_)(i);
        } catch (...) {
            std::lock_guard<std::mutex> lk(mu_);
            if (!first_error_) first_error_ = std::current_exception();
        }
        if (timed) m_item_seconds_->record(ns_to_s(elapsed_ns(item_t0)));
        if (stop) executed_.fetch_add(1, std::memory_order_relaxed);
    }
    if (timed) busy_ns_.fetch_add(elapsed_ns(lane_t0),
                                  std::memory_order_relaxed);
    t_in_parallel_region = false;
}

std::size_t ThreadPool::parallel_for(
    std::size_t n, const std::function<void(std::size_t)>& fn,
    const std::atomic<bool>* stop) {
    if (n == 0) return 0;
    const bool timed = m_job_seconds_ != nullptr;
    const auto job_t0 = timed ? MonoClock::now() : MonoClock::time_point{};
    // Serial path: a 1-lane pool, a single item, or a nested call from
    // inside an item. Runs the exact same per-index code.
    const bool serial = workers_.empty() || n == 1 || t_in_parallel_region;
    std::size_t ran = 0;
    std::exception_ptr error;
    if (serial) {
        for (; ran < n; ++ran) {
            if (stop && stop->load(std::memory_order_relaxed)) break;
            const auto item_t0 =
                timed ? MonoClock::now() : MonoClock::time_point{};
            fn(ran);
            if (timed) {
                m_item_seconds_->record(ns_to_s(elapsed_ns(item_t0)));
            }
        }
    } else {
        {
            std::lock_guard<std::mutex> lk(mu_);
            job_fn_ = &fn;
            job_n_ = n;
            next_.store(0, std::memory_order_relaxed);
            first_error_ = nullptr;
            active_workers_ = workers_.size();
            ++generation_;
            busy_ns_.store(0, std::memory_order_relaxed);
            job_stop_ = stop;
            executed_.store(0, std::memory_order_relaxed);
        }
        cv_start_.notify_all();
        drain();  // the caller is lane 0
        std::unique_lock<std::mutex> lk(mu_);
        cv_done_.wait(lk, [&] { return active_workers_ == 0; });
        job_stop_ = nullptr;
        ran = stop ? executed_.load(std::memory_order_relaxed) : n;
        error = first_error_;
    }
    if (timed) {
        const std::int64_t wall_ns = elapsed_ns(job_t0);
        m_jobs_->inc();
        m_items_->inc(ran);
        m_job_seconds_->record(ns_to_s(wall_ns));
        if (serial) {
            // No idle lanes on the serial path by construction; nested
            // calls fold into the enclosing job's utilization instead.
            if (!t_in_parallel_region) m_lane_utilization_->set(1.0);
        } else if (wall_ns > 0) {
            const double busy =
                static_cast<double>(busy_ns_.load(std::memory_order_relaxed));
            m_lane_utilization_->set(
                busy / (static_cast<double>(size()) *
                        static_cast<double>(wall_ns)));
        }
    }
    if (error) std::rethrow_exception(error);
    return ran;
}

void ThreadPool::attach_metrics(obs::MetricsRegistry* registry,
                                const std::string& prefix) {
    if (!registry) {
        m_jobs_ = m_items_ = nullptr;
        m_job_seconds_ = m_item_seconds_ = nullptr;
        m_lanes_ = m_lane_utilization_ = nullptr;
        return;
    }
    m_jobs_ = &registry->counter(prefix + ".jobs");
    m_items_ = &registry->counter(prefix + ".items");
    m_job_seconds_ = &registry->histogram(prefix + ".job_seconds");
    m_item_seconds_ = &registry->histogram(prefix + ".item_seconds");
    m_lanes_ = &registry->gauge(prefix + ".lanes");
    m_lane_utilization_ = &registry->gauge(prefix + ".lane_utilization");
    m_lanes_->set(static_cast<double>(size()));
}

}  // namespace gcdr::exec
