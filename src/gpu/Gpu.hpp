#pragma once

#include "amr/Box.hpp"
#include "gpu/LaunchStats.hpp"
#include "gpu/ThreadPool.hpp"

#include <limits>

namespace crocco::gpu {

using amr::Box;

/// Kernel-launch abstractions mirroring the AMReX GPU API the paper ports
/// CRoCCo onto (amrex::ParallelFor / amrex::ReduceData).
///
/// There is no physical GPU in this reproduction, so kernels execute on the
/// host — but through the same one-thread-per-cell contract the GPU port
/// uses. That preserves the port's correctness constraints (the paper's
/// data-race issues with shared scratch arrays are real here too: analyzer
/// rule A1 checks every ParallelFor body against the contract), while the
/// execution-time cost of running on a V100 is charged separately by
/// DeviceModel.
///
/// As AMReX does on CPUs, a cell launch (ParallelFor, ReduceMin, ReduceMax)
/// is a plain loop over its box on the calling thread, and host parallelism
/// is taken over fabs: ParallelForIndex runs one task per fab on the
/// ThreadPool, whichever thread is free claiming the next fab. Each task
/// writes its own fab, so results are bitwise identical for every thread
/// count; reductions over a MultiFab combine per-fab partials in fab order
/// for the same guarantee.
///
/// Under -DCROCCO_CHECK every pool-parallel ParallelForIndex launch is
/// watched by the check::RaceDetector: overlapping same-fab writes (or
/// read-write pairs) between concurrently scheduled tasks abort with both
/// task footprints. The serial fallbacks (numThreads() == 1, single task,
/// nested launches) are deterministic and go unrecorded — run the check
/// suite with GPU_NUM_THREADS > 1 to exercise the detector (see
/// docs/correctness.md).

/// One logical thread per cell of `box`: f(i, j, k).
template <typename F>
inline void ParallelFor(const Box& box, F&& f) {
    if (!box.ok()) return;
    LaunchStats::add();
    amr::forEachCell(box, f);
}

/// Fab/index-level parallelism: f(i) for i in [0, n) — one task per fab of a
/// MultiFab (or per independent work item). Kernels launched from inside f
/// run serially on the calling worker (nested launches do not spawn).
template <typename F>
inline void ParallelForIndex(int n, F&& f) {
    ThreadPool::instance().run(n, f);
}

/// Device-wide min-reduction over cells (mirrors amrex::ReduceData /
/// ReduceOps with ReduceOpMin, used by ComputeDt): the serial sweep of the
/// box in cell order.
template <typename F>
inline double ReduceMin(const Box& box, F&& f) {
    double m = std::numeric_limits<double>::infinity();
    if (!box.ok()) return m;
    LaunchStats::add();
    amr::forEachCell(box, [&](int i, int j, int k) {
        const double v = f(i, j, k);
        if (v < m) m = v;
    });
    return m;
}

template <typename F>
inline double ReduceMax(const Box& box, F&& f) {
    double m = -std::numeric_limits<double>::infinity();
    if (!box.ok()) return m;
    LaunchStats::add();
    amr::forEachCell(box, [&](int i, int j, int k) {
        const double v = f(i, j, k);
        if (v > m) m = v;
    });
    return m;
}

} // namespace crocco::gpu
