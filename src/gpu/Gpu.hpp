#pragma once

#include "amr/Box.hpp"
#include "gpu/LaunchStats.hpp"
#include "gpu/ThreadPool.hpp"

#include <limits>
#include <vector>

namespace crocco::gpu {

using amr::Box;

/// Kernel-launch abstractions mirroring the AMReX GPU API the paper ports
/// CRoCCo onto (amrex::ParallelFor / amrex::launch).
///
/// There is no physical GPU in this reproduction, so kernels execute on the
/// host — but through the same one-thread-per-cell decomposition the GPU
/// port uses. That preserves the port's correctness constraints (the paper's
/// data-race issues with shared scratch arrays are real here too: a kernel
/// that races on scratch produces wrong answers in tests), while the
/// execution-time cost of running on a V100 is charged separately by
/// DeviceModel.
///
/// Execution is tiled over k-slabs and dispatched onto the deterministic
/// ThreadPool: with gpu.num_threads > 1 the slabs of one launch run
/// concurrently, each slab on a fixed thread. Per-cell kernels write
/// disjoint cells, so results are bitwise identical for every thread count;
/// reductions combine fixed-decomposition partials in slab order for the
/// same guarantee. `launch` (whole-box kernels with interior loop-carried
/// dependencies) is never auto-parallelized.
///
/// Under -DCROCCO_CHECK every pool-parallel launch is watched by the
/// check::RaceDetector: overlapping same-fab writes (or read-write pairs)
/// between concurrently scheduled tasks abort with both task footprints.
/// The serial fallbacks (numThreads() == 1, single task, nested launches)
/// are deterministic and go unrecorded — run the check suite with
/// GPU_NUM_THREADS > 1 to exercise the detector (see docs/correctness.md).

namespace detail {

/// One k-plane of `box`: the fixed tile decomposition shared by ParallelFor
/// and the reductions. Independent of the thread count so that reduction
/// partials (and their combination order) never depend on it.
inline Box kSlab(const Box& box, int t) {
    const int k = box.smallEnd(2) + t;
    return Box({box.smallEnd(0), box.smallEnd(1), k},
               {box.bigEnd(0), box.bigEnd(1), k});
}

inline int numKSlabs(const Box& box) { return box.length(2); }

} // namespace detail

/// One logical thread per cell of `box`: f(i, j, k).
template <typename F>
inline void ParallelFor(const Box& box, F&& f) {
    if (!box.ok()) return;
    LaunchStats::add();
    ThreadPool& pool = ThreadPool::instance();
    if (pool.numThreads() == 1 || ThreadPool::inParallelRegion()) {
        amr::forEachCell(box, f);
        return;
    }
    pool.run(detail::numKSlabs(box),
             [&](int t) { amr::forEachCell(detail::kSlab(box, t), f); });
}

/// One logical thread per (cell, component): f(i, j, k, n).
template <typename F>
inline void ParallelFor(const Box& box, int ncomp, F&& f) {
    if (!box.ok()) return;
    LaunchStats::add();
    ThreadPool& pool = ThreadPool::instance();
    if (pool.numThreads() == 1 || ThreadPool::inParallelRegion()) {
        for (int n = 0; n < ncomp; ++n)
            amr::forEachCell(box, [&](int i, int j, int k) { f(i, j, k, n); });
        return;
    }
    const int nk = detail::numKSlabs(box);
    pool.run(ncomp * nk, [&](int t) {
        const int n = t / nk;
        amr::forEachCell(detail::kSlab(box, t % nk),
                         [&](int i, int j, int k) { f(i, j, k, n); });
    });
}

/// Fab/index-level parallelism: f(i) for i in [0, n) — one task per fab of a
/// MultiFab (or per independent work item). Kernels launched from inside f
/// run serially on the calling worker (nested launches do not spawn).
template <typename F>
inline void ParallelForIndex(int n, F&& f) {
    ThreadPool::instance().run(n, f);
}

/// Whole-box launch: the functor receives the box and iterates itself
/// (mirrors amrex::launch, used for kernels with interior loop carried
/// dependencies that must not be auto-parallelized per cell).
template <typename F>
inline void launch(const Box& box, F&& f) {
    f(box);
}

/// Device-wide min-reduction over cells (mirrors amrex::ReduceData /
/// ReduceOps with ReduceOpMin, used by ComputeDt). Per-slab partials are
/// combined in slab order; min is exact, so the result equals the serial
/// sweep bitwise for any thread count.
template <typename F>
inline double ReduceMin(const Box& box, F&& f) {
    double m = std::numeric_limits<double>::infinity();
    if (!box.ok()) return m;
    LaunchStats::add();
    ThreadPool& pool = ThreadPool::instance();
    if (pool.numThreads() == 1 || ThreadPool::inParallelRegion()) {
        amr::forEachCell(box, [&](int i, int j, int k) {
            const double v = f(i, j, k);
            if (v < m) m = v;
        });
        return m;
    }
    const int nk = detail::numKSlabs(box);
    std::vector<double> partial(static_cast<std::size_t>(nk),
                                std::numeric_limits<double>::infinity());
    pool.run(nk, [&](int t) {
        double& p = partial[static_cast<std::size_t>(t)];
        amr::forEachCell(detail::kSlab(box, t), [&](int i, int j, int k) {
            const double v = f(i, j, k);
            if (v < p) p = v;
        });
    });
    for (double p : partial)
        if (p < m) m = p;
    return m;
}

template <typename F>
inline double ReduceMax(const Box& box, F&& f) {
    double m = -std::numeric_limits<double>::infinity();
    if (!box.ok()) return m;
    LaunchStats::add();
    ThreadPool& pool = ThreadPool::instance();
    if (pool.numThreads() == 1 || ThreadPool::inParallelRegion()) {
        amr::forEachCell(box, [&](int i, int j, int k) {
            const double v = f(i, j, k);
            if (v > m) m = v;
        });
        return m;
    }
    const int nk = detail::numKSlabs(box);
    std::vector<double> partial(static_cast<std::size_t>(nk),
                                -std::numeric_limits<double>::infinity());
    pool.run(nk, [&](int t) {
        double& p = partial[static_cast<std::size_t>(t)];
        amr::forEachCell(detail::kSlab(box, t), [&](int i, int j, int k) {
            const double v = f(i, j, k);
            if (v > p) p = v;
        });
    });
    for (double p : partial)
        if (p > m) m = p;
    return m;
}

} // namespace crocco::gpu
