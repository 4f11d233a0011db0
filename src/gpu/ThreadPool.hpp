#pragma once

#include <functional>
#include <optional>
#include <vector>

namespace crocco::gpu {

/// One top-level launch recorded by ThreadPool schedule tracing: each
/// task's serial duration.
struct TracedLaunch {
    std::vector<double> taskNs;
};

/// Host thread pool behind gpu::ParallelForIndex, the one host-parallel
/// launch: one task per fab (AMReX's CPU model, where each box's
/// ParallelFor is a plain loop and parallelism is over boxes).
///
/// Design constraints, in order:
///  1. *Deterministic results.* Tasks are claimed from one counter per
///     launch, so whichever thread is free runs the next task, as a GPU
///     hands each block to whichever multiprocessor is free. Which thread
///     runs a task depends on timing; no result does: each task writes only
///     its own data, and callers combine per-fab partials in fab order after
///     the launch (see MultiFab norms, core::computeDt). Every result is
///     therefore bitwise independent of the thread count.
///  2. *Safety under nesting.* A task that itself calls run() must not
///     deadlock: a nested run() detects it is inside a pool task and runs
///     serially on the calling worker, exactly as nested device launches
///     serialize on one stream.
///  3. *1 thread == the serial code.* With numThreads() == 1 nothing is
///     dispatched and callers' serial Fortran-order loops are preserved.
///
/// Configured via the ParmParse key `gpu.num_threads`; the environment
/// variable GPU_NUM_THREADS overrides the deck, and with neither set the
/// default is std::thread::hardware_concurrency(). Every thread count is
/// clamped to [1, kMaxThreads].
class ThreadPool {
public:
    /// Ceiling on the thread count: a deck or environment typo must not
    /// spawn thousands of OS threads.
    static constexpr int kMaxThreads = 256;

    static ThreadPool& instance();

    int numThreads() const { return nthreads_; }

    /// Resize the pool (clamped to [1, kMaxThreads]). Joins and respawns
    /// workers; must not be called from inside a pool task.
    void setNumThreads(int n);

    /// GPU_NUM_THREADS env var if it is a positive integer, else
    /// hardware_concurrency(); clamped to kMaxThreads. A malformed value
    /// ('3x', '2.9') counts as unset.
    static int defaultNumThreads();

    /// The whole of `text` as a decimal integer, or nullopt if any of it is
    /// not ('', '3x', '2.9', out of int range). The one integer parse of
    /// GPU_NUM_THREADS and of every integer deck key (ParmParse::query).
    static std::optional<int> parseInt(const char* text);

    /// Run f(t) for every t in [0, ntasks). f must write disjoint data for
    /// distinct t (the per-cell kernel contract). Runs serially in task
    /// order when numThreads() == 1, ntasks <= 1, or when nested inside
    /// another run(). The first exception thrown by any task is rethrown on
    /// the calling thread after all tasks finish.
    void run(int ntasks, const std::function<void(int)>& f);

    /// Schedule tracing (bench/thread_scaling support). While active — it
    /// requires numThreads() == 1 — every top-level run() records its
    /// tasks' serial durations (ns), one TracedLaunch per launch, so a
    /// bench can compute the makespan of in-order claiming (each task to
    /// the thread that becomes free first) at any hypothetical thread count
    /// without executing it. Nested launches are serial by contract and
    /// charge their parent task.
    void beginScheduleTrace();
    /// Stop tracing and return the launches recorded since begin.
    std::vector<TracedLaunch> endScheduleTrace();

    ~ThreadPool();
    ThreadPool(const ThreadPool&) = delete;
    ThreadPool& operator=(const ThreadPool&) = delete;

private:
    ThreadPool();
    struct Impl;
    Impl* impl_;
    int nthreads_ = 1;
};

inline int numThreads() { return ThreadPool::instance().numThreads(); }
inline void setNumThreads(int n) { ThreadPool::instance().setNumThreads(n); }

} // namespace crocco::gpu
