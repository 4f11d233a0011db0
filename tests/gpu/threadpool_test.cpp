#include "gpu/Gpu.hpp"
#include "gpu/ThreadPool.hpp"

#include "amr/MultiFab.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstdlib>
#include <mutex>
#include <thread>
#include <vector>

namespace crocco::gpu {
namespace {

using amr::Box;
using amr::BoxArray;
using amr::DistributionMapping;
using amr::IntVect;
using amr::MultiFab;

std::vector<Box> tiledBoxes(const Box& domain, int tile) {
    std::vector<Box> out;
    for (int k = domain.smallEnd(2); k <= domain.bigEnd(2); k += tile)
        for (int j = domain.smallEnd(1); j <= domain.bigEnd(1); j += tile)
            for (int i = domain.smallEnd(0); i <= domain.bigEnd(0); i += tile)
                out.emplace_back(IntVect{i, j, k},
                                 IntVect{i + tile - 1, j + tile - 1, k + tile - 1});
    return out;
}

/// Restore the process-wide pool size on scope exit so test order and the
/// GPU_NUM_THREADS ctest instances don't interfere.
struct ThreadGuard {
    int saved = numThreads();
    ~ThreadGuard() { setNumThreads(saved); }
};

// The determinism contract (docs/performance.md): reductions combine
// per-fab partials in fab order, so results are bitwise identical —
// EXPECT_EQ on doubles, not EXPECT_NEAR — for every thread count. The
// solver's own fab-parallel reductions (ComputeDt, the health scan) are
// checked the same way in resilience_test.
TEST(ThreadPool, MultiFabReductionsBitwiseIdenticalAcrossThreadCounts) {
    ThreadGuard guard;
    const Box domain(IntVect::zero(), IntVect(31));
    BoxArray ba(tiledBoxes(domain, 8));
    DistributionMapping dm(ba, 2);
    MultiFab mf(ba, dm, 2, 1);
    for (int f = 0; f < mf.numFabs(); ++f) {
        auto a = mf.array(f);
        for (int n = 0; n < 2; ++n)
            amr::forEachCell(mf.validBox(f), [&](int i, int j, int k) {
                a(i, j, k, n) = std::sin(0.7 * i + 1.3 * j + 2.1 * k + n) * 1e3;
            });
    }

    setNumThreads(1);
    const double norm1 = mf.norm2(0);
    const double sum1 = mf.sum(1);
    const double min1 = mf.min(0);
    const double max1 = mf.max(1);

    for (int nt : {2, 3, 4, 8}) {
        setNumThreads(nt);
        EXPECT_EQ(mf.norm2(0), norm1) << "threads=" << nt;
        EXPECT_EQ(mf.sum(1), sum1) << "threads=" << nt;
        EXPECT_EQ(mf.min(0), min1) << "threads=" << nt;
        EXPECT_EQ(mf.max(1), max1) << "threads=" << nt;
    }
}

TEST(ThreadPool, EveryTaskRunsExactlyOnce) {
    ThreadGuard guard;
    for (int nt : {1, 2, 4, 8}) {
        setNumThreads(nt);
        // Back-to-back launches of different sizes: each starts its claims
        // from task 0 again, and none leaks into the next.
        for (int ntasks : {1, 2, 7, 64, 1000}) {
            std::vector<std::atomic<int>> runs(static_cast<std::size_t>(ntasks));
            ThreadPool::instance().run(ntasks, [&](int t) {
                runs[static_cast<std::size_t>(t)].fetch_add(1);
            });
            for (int t = 0; t < ntasks; ++t)
                ASSERT_EQ(runs[static_cast<std::size_t>(t)].load(), 1)
                    << "threads=" << nt << " ntasks=" << ntasks << " task " << t;
        }
    }
}

TEST(ThreadPool, StalledTaskDoesNotHoldUpTheRest) {
    // Tasks go to whichever thread is free: while one thread is stuck in
    // task 0, the other claims and finishes every other task. A fixed
    // task-to-thread map would leave some of them queued behind task 0.
    ThreadGuard guard;
    setNumThreads(2);
    const int ntasks = 8;
    std::mutex m;
    std::condition_variable cv;
    int finished = 0;
    int finishedWhileStalled = -1;
    ThreadPool::instance().run(ntasks, [&](int t) {
        std::unique_lock<std::mutex> lk(m);
        if (t != 0) {
            ++finished;
            cv.notify_all();
            return;
        }
        cv.wait_for(lk, std::chrono::seconds(5),
                    [&] { return finished == ntasks - 1; });
        finishedWhileStalled = finished;
    });
    EXPECT_EQ(finishedWhileStalled, ntasks - 1)
        << "other tasks finished while task 0 waited";
}

TEST(ThreadPool, NestedLaunchesSerializeInsteadOfDeadlocking) {
    ThreadGuard guard;
    setNumThreads(4);
    const int outer = 8;
    const int inner = 5;
    const Box cells(IntVect::zero(), IntVect(3));
    std::vector<std::thread::id> outerOwner(outer);
    std::vector<std::thread::id> innerOwner(outer * inner);
    std::vector<std::vector<int>> innerOrder(outer);
    std::vector<std::int64_t> counts(outer, 0);
    ParallelForIndex(outer, [&](int t) {
        const auto ts = static_cast<std::size_t>(t);
        outerOwner[ts] = std::this_thread::get_id();
        // A nested launch runs serially on this worker, in task order (no
        // pool re-entry), so plain per-task containers are race-free here.
        ParallelForIndex(inner, [&](int u) {
            innerOwner[ts * inner + static_cast<std::size_t>(u)] =
                std::this_thread::get_id();
            innerOrder[ts].push_back(u);
        });
        std::int64_t c = 0;
        ParallelFor(cells, [&](int, int, int) { ++c; });
        counts[ts] = c;
    });
    for (int t = 0; t < outer; ++t) {
        const auto ts = static_cast<std::size_t>(t);
        for (int u = 0; u < inner; ++u)
            EXPECT_EQ(innerOwner[ts * inner + static_cast<std::size_t>(u)],
                      outerOwner[ts])
                << "task " << t << " nested task " << u;
        EXPECT_EQ(innerOrder[ts], (std::vector<int>{0, 1, 2, 3, 4}));
        EXPECT_EQ(counts[ts], cells.numPts());
    }
}

TEST(ThreadPool, ExceptionInTaskPropagatesToCaller) {
    ThreadGuard guard;
    setNumThreads(3);
    EXPECT_THROW(ThreadPool::instance().run(
                     6,
                     [&](int t) {
                         if (t == 4) throw std::runtime_error("task 4 failed");
                     }),
                 std::runtime_error);
    // The pool survives a throwing job and runs the next one.
    std::vector<int> seen(5, 0);
    ThreadPool::instance().run(5, [&](int t) { seen[static_cast<std::size_t>(t)] = 1; });
    for (int s : seen) EXPECT_EQ(s, 1);
}

TEST(ThreadPool, SingleThreadRunsTasksInOrderOnCaller) {
    ThreadGuard guard;
    setNumThreads(1);
    const auto caller = std::this_thread::get_id();
    std::vector<int> order;
    ThreadPool::instance().run(5, [&](int t) {
        EXPECT_EQ(std::this_thread::get_id(), caller);
        order.push_back(t);
    });
    EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(ThreadPool, DefaultHonorsEnvironmentOverride) {
    // defaultNumThreads reads GPU_NUM_THREADS each call — the hook the
    // GPU_NUM_THREADS=4 ctest instances and ParmParse rely on.
    const char* old = std::getenv("GPU_NUM_THREADS");
    const std::string saved = old ? old : "";
    ::setenv("GPU_NUM_THREADS", "7", 1);
    EXPECT_EQ(ThreadPool::defaultNumThreads(), 7);
    // A typo cannot ask for thousands of workers: the default is clamped
    // (nothing is spawned here — defaultNumThreads only reads the value).
    ::setenv("GPU_NUM_THREADS", "40000", 1);
    EXPECT_EQ(ThreadPool::defaultNumThreads(), ThreadPool::kMaxThreads);
    // A malformed value counts as unset (ParmParse rejects it with the same
    // parse): the default is hardware_concurrency(), not a prefix of the text.
    ::unsetenv("GPU_NUM_THREADS");
    const int unset = ThreadPool::defaultNumThreads();
    for (const char* bad : {"3x", "2.9", "", "four"}) {
        ::setenv("GPU_NUM_THREADS", bad, 1);
        EXPECT_EQ(ThreadPool::defaultNumThreads(), unset) << "'" << bad << "'";
    }
    if (old) ::setenv("GPU_NUM_THREADS", saved.c_str(), 1);
    else ::unsetenv("GPU_NUM_THREADS");
    EXPECT_GE(ThreadPool::defaultNumThreads(), 1);
}

} // namespace
} // namespace crocco::gpu
