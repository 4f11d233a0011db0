#include "gpu/ThreadPool.hpp"

#ifdef CROCCO_CHECK
#include "check/RaceDetector.hpp"
#endif

#include <algorithm>
#include <atomic>
#include <charconv>
#include <chrono>
#include <condition_variable>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <mutex>
#include <stdexcept>
#include <thread>
#include <vector>

namespace crocco::gpu {

namespace {
thread_local bool tlInTask = false;
} // namespace

struct ThreadPool::Impl {
    std::mutex m;
    std::condition_variable wake;  // workers wait here for a new epoch
    std::condition_variable done;  // caller waits here for every check-in
    std::vector<std::thread> workers;

    // Job state, guarded by m (read by workers only between wake/done).
    const std::function<void(int)>* job = nullptr;
    int ntasks = 0;
    std::uint64_t epoch = 0; // bumped per run(); workers run once per epoch
    int remaining = 0;       // workers still executing the current epoch
    bool stop = false;
    // Next unclaimed task of the current launch. Reset under m before the
    // epoch is bumped, so every claimer sees the reset.
    std::atomic<int> next{0};

    std::exception_ptr firstError;
    std::mutex errM;

    // Schedule tracing (single-threaded only; no locking needed).
    bool tracing = false;
    std::vector<TracedLaunch> trace;

    /// Claim and run tasks until the launch has none left: whichever thread
    /// is free takes the next fab, as a GPU hands each block to whichever
    /// multiprocessor is free.
    void claimTasks() {
        tlInTask = true;
        try {
            for (;;) {
                const int t = next.fetch_add(1);
                if (t >= ntasks) break;
#ifdef CROCCO_CHECK
                // Bind this thread's Array4 accesses to task t; nested
                // launches run inline here, so their accesses are charged to
                // the enclosing task — exactly the serialization rule.
                check::RaceDetector::TaskScope scope(t);
#endif
                (*job)(t);
            }
        } catch (...) {
            std::lock_guard<std::mutex> lk(errM);
            if (!firstError) firstError = std::current_exception();
        }
        tlInTask = false;
    }

    void workerLoop() {
        std::uint64_t seen = 0;
        for (;;) {
            {
                std::unique_lock<std::mutex> lk(m);
                wake.wait(lk, [&] { return stop || epoch != seen; });
                if (stop) return;
                seen = epoch;
            }
            claimTasks();
            {
                std::lock_guard<std::mutex> lk(m);
                if (--remaining == 0) done.notify_one();
            }
        }
    }

    void spawn(int n) {
        for (int t = 1; t < n; ++t) workers.emplace_back([this] { workerLoop(); });
    }

    void joinAll() {
        {
            std::lock_guard<std::mutex> lk(m);
            stop = true;
        }
        wake.notify_all();
        for (auto& w : workers) w.join();
        workers.clear();
        stop = false;
        // Workers spawned later start with seen == 0; the epoch must restart
        // there too, or they would "see" a phantom new epoch with no job.
        epoch = 0;
        job = nullptr;
        remaining = 0;
    }
};

ThreadPool::ThreadPool() : impl_(new Impl) {
    nthreads_ = defaultNumThreads();
    impl_->spawn(nthreads_);
}

ThreadPool::~ThreadPool() {
    impl_->joinAll();
    delete impl_;
}

ThreadPool& ThreadPool::instance() {
    static ThreadPool pool;
    return pool;
}

std::optional<int> ThreadPool::parseInt(const char* text) {
    const char* end = text + std::strlen(text);
    int n = 0;
    const auto [ptr, ec] = std::from_chars(text, end, n);
    if (ec != std::errc() || ptr != end) return std::nullopt;
    return n;
}

int ThreadPool::defaultNumThreads() {
    if (const char* env = std::getenv("GPU_NUM_THREADS")) {
        const std::optional<int> n = parseInt(env);
        if (n && *n >= 1) return std::min(*n, kMaxThreads);
    }
    const unsigned hw = std::thread::hardware_concurrency();
    return std::clamp(static_cast<int>(hw), 1, kMaxThreads);
}

void ThreadPool::setNumThreads(int n) {
    n = std::clamp(n, 1, kMaxThreads);
    if (n == nthreads_) return;
    impl_->joinAll();
    nthreads_ = n;
    impl_->spawn(n);
}

void ThreadPool::beginScheduleTrace() {
    if (nthreads_ != 1)
        throw std::logic_error(
            "ThreadPool::beginScheduleTrace requires numThreads() == 1");
    impl_->trace.clear();
    impl_->tracing = true;
}

std::vector<TracedLaunch> ThreadPool::endScheduleTrace() {
    impl_->tracing = false;
    return std::move(impl_->trace);
}

void ThreadPool::run(int ntasks, const std::function<void(int)>& f) {
    if (ntasks <= 0) return;
    if (nthreads_ == 1 || ntasks == 1 || tlInTask) {
        if (impl_->tracing && !tlInTask) {
            std::vector<double> taskNs(static_cast<std::size_t>(ntasks));
            for (int t = 0; t < ntasks; ++t) {
                const auto t0 = std::chrono::steady_clock::now();
                f(t);
                taskNs[static_cast<std::size_t>(t)] =
                    std::chrono::duration<double, std::nano>(
                        std::chrono::steady_clock::now() - t0)
                        .count();
            }
            impl_->trace.push_back(TracedLaunch{std::move(taskNs)});
            return;
        }
        for (int t = 0; t < ntasks; ++t) f(t);
        return;
    }
#ifdef CROCCO_CHECK
    check::RaceDetector::instance().beginLaunch(ntasks);
#endif
    {
        std::lock_guard<std::mutex> lk(impl_->m);
        impl_->job = &f;
        impl_->ntasks = ntasks;
        impl_->next = 0;
        impl_->remaining = nthreads_ - 1;
        ++impl_->epoch;
    }
    impl_->wake.notify_all();
    impl_->claimTasks(); // the caller claims tasks too
    {
        std::unique_lock<std::mutex> lk(impl_->m);
        impl_->done.wait(lk, [&] { return impl_->remaining == 0; });
        impl_->job = nullptr;
    }
#ifdef CROCCO_CHECK
    // Scan before rethrowing a task exception: a race report should not be
    // masked by the exception it may well have caused.
    check::RaceDetector::instance().endLaunch();
#endif
    if (impl_->firstError) {
        auto e = impl_->firstError;
        impl_->firstError = nullptr;
        std::rethrow_exception(e);
    }
}

} // namespace crocco::gpu
