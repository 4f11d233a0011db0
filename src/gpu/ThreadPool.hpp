#pragma once

#include <functional>
#include <vector>

namespace crocco::gpu {

/// One top-level launch recorded by ThreadPool schedule tracing: each
/// task's serial duration.
struct TracedLaunch {
    std::vector<double> taskNs;
};

/// Deterministic host thread pool behind the tiled gpu::ParallelFor /
/// reduction launches (the host-backend analog of Parthenon-style tiled
/// kernel execution).
///
/// Design constraints, in order:
///  1. *Determinism.* There is no work stealing: task t always runs on
///     thread t % numThreads(), so the tile→thread assignment is a pure
///     function of (ntasks, numThreads) and never of timing. Combined with
///     fixed-order combination of reduction partials (see MultiFab norms),
///     every result is bitwise independent of the thread count.
///  2. *Safety under nesting.* A task that itself calls ParallelFor (fab-
///     level parallelism over kernels that launch per-cell loops) must not
///     deadlock: nested launches detect they are inside a pool task and run
///     serially, exactly as nested device launches serialize on one stream.
///  3. *1 thread == today's behavior.* With numThreads() == 1 nothing is
///     dispatched and callers' serial Fortran-order loops are preserved.
///
/// Configured via the ParmParse key `gpu.num_threads`; the environment
/// variable GPU_NUM_THREADS overrides the deck, and with neither set the
/// default is std::thread::hardware_concurrency().
class ThreadPool {
public:
    static ThreadPool& instance();

    int numThreads() const { return nthreads_; }

    /// Resize the pool (clamped to >= 1). Joins and respawns workers; must
    /// not be called from inside a pool task.
    void setNumThreads(int n);

    /// GPU_NUM_THREADS env var if set, else hardware_concurrency().
    static int defaultNumThreads();

    /// True while the calling thread is executing a pool task (used to
    /// serialize nested launches).
    static bool inParallelRegion();

    /// Run f(t) for every t in [0, ntasks). f must write disjoint data for
    /// distinct t (the per-cell kernel contract). Runs serially in task
    /// order when numThreads() == 1, ntasks <= 1, or when nested inside
    /// another run(). The first exception thrown by any task is rethrown on
    /// the calling thread after all tasks finish.
    void run(int ntasks, const std::function<void(int)>& f);

    /// Schedule tracing (bench/thread_scaling support). While active — it
    /// requires numThreads() == 1 — every top-level run() records its
    /// tasks' serial durations (ns), one TracedLaunch per launch, so a
    /// bench can compute the critical path of the deterministic stripe
    /// schedule (task t on thread t % T) at any hypothetical thread count
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
