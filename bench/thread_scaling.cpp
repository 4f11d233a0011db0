// Fab-parallel host threading on the DMR step.
//
// Reports the full RK3 step cost at 1/2/4/8 worker threads two ways:
//
//  * wall_ns_per_step — measured wall clock on THIS host. On a single-core
//    container (CI has hardware_concurrency == 1) extra workers cannot make
//    wall clock faster; the number is recorded for honesty, not as the
//    headline.
//  * modeled_ns_per_step — the makespan of the claiming schedule
//    gpu::ThreadPool executes: tasks are claimed in index order, each by
//    the thread that becomes free first (ties to the lowest id). One step
//    is run with ThreadPool schedule tracing on, which records the serial
//    duration of every task of every pooled launch; the step's own wall
//    time is taken around it. The pool runs only gpu::ParallelForIndex
//    launches, one task per fab: the WENO/viscous drivers, MultiFab
//    setVal/mult/saxpy/copy/reductions, ComputeDt and the health
//    prescreen, and FillPatch's data movement (the fillBoundary/
//    parallelCopy replay copies, the coarse-fine interpolation, the BC
//    fills, AverageDown). Cell launches (ParallelFor, ReduceMin/Max) are
//    plain loops inside those tasks, so the traced tasks are everything
//    that runs in parallel. The model replaces each launch's serial total
//    with its makespan at T threads. Everything not pooled (the
//    exchanges' message recording, pattern builds on a cache miss, regrid,
//    the health report pass) stays serial in the model. This is the repo's
//    standard methodology: execute the real structure, model the time
//    (gpu::DeviceModel, parallel::SimComm). docs/performance.md §14
//    records the numbers.
//
// modeled(T) = traced(1) - sum_L serial(L) + sum_L makespan(L, T) over
// all pooled launches L of the traced step, whose own wall time is traced(1).
//
// JSON on stdout; table on stderr.
#include "core/CroccoAmr.hpp"
#include "gpu/ThreadPool.hpp"
#include "problems/Dmr.hpp"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <thread>
#include <vector>

using namespace crocco;
using Clock = std::chrono::steady_clock;

namespace {

double toNs(Clock::duration d) {
    return std::chrono::duration<double, std::nano>(d).count();
}

/// Makespan of in-order claiming: each task, in index order, goes to the
/// thread that becomes free first (ties to the lowest id); the launch
/// completes when the last thread does.
double makespanNs(const std::vector<double>& taskNs, int nthreads) {
    std::vector<double> busyUntil(static_cast<std::size_t>(nthreads), 0.0);
    for (const double ns : taskNs)
        *std::min_element(busyUntil.begin(), busyUntil.end()) += ns;
    return *std::max_element(busyUntil.begin(), busyUntil.end());
}

} // namespace

int main() {
    problems::Dmr::Options opts;
    opts.nx = 96;
    opts.ny = 24;
    opts.nz = 8;
    opts.maxLevel = 1;
    problems::Dmr dmr(opts);
    auto cfg = dmr.solverConfig(core::CodeVersion::V20);
    // The paper's decomposition knob: chop to 16^3 boxes so every level has
    // enough fabs to share among 8 workers (96x24x8 at max_grid_size 32 is
    // a mere 3 boxes on level 0 — nothing to balance).
    cfg.amrInfo.maxGridSize = 16;
    cfg.regridFreq = 1000; // freeze the hierarchy after init for stable timing
    core::CroccoAmr solver(dmr.geometry(), cfg, dmr.mapping());
    solver.init(dmr.initialCondition(), dmr.boundaryConditions());
    gpu::setNumThreads(1);
    solver.evolve(2); // warm caches (comm patterns, page faults)

    // Trace every pooled launch of one representative step, and time it.
    auto& pool = gpu::ThreadPool::instance();
    const auto traced0 = Clock::now();
    pool.beginScheduleTrace();
    solver.step();
    const auto launches = pool.endScheduleTrace();
    const double tracedNs = toNs(Clock::now() - traced0);

    auto kernelNs = [&](int nthreads) {
        double total = 0.0;
        for (const auto& l : launches) total += makespanNs(l.taskNs, nthreads);
        return total;
    };

    const int threadCounts[] = {1, 2, 4, 8};
    double wallNs[4] = {};
    for (int i = 0; i < 4; ++i) {
        gpu::setNumThreads(threadCounts[i]);
        const int reps = 3;
        const auto t0 = Clock::now();
        solver.evolve(reps);
        wallNs[i] = toNs(Clock::now() - t0) / reps;
    }
    gpu::setNumThreads(1);

    // The unpooled remainder of the traced step itself, so the pooled
    // fraction is at most 1 whatever the host does between steps.
    const double serialNs = tracedNs - kernelNs(1);
    const unsigned hw = std::thread::hardware_concurrency();
    std::size_t ntasks = 0;
    for (const auto& l : launches) ntasks += l.taskNs.size();

    std::fprintf(stderr,
                 "traced %zu pooled launches, %zu tasks; pooled fraction of "
                 "the step: %.0f%%\n",
                 launches.size(), ntasks, 100.0 * kernelNs(1) / tracedNs);
    std::fprintf(stderr, "%8s %16s %16s %8s\n", "threads", "wall ns/step",
                 "modeled ns/step", "speedup");
    std::printf("{\n");
    std::printf("  \"layout\": \"DMR %dx%dx%d, %d levels, max_grid_size %d\",\n",
                opts.nx, opts.ny, opts.nz, solver.finestLevel() + 1,
                cfg.amrInfo.maxGridSize);
    std::printf("  \"host_cores\": %u,\n", hw);
    std::printf("  \"pooled_launches\": %zu,\n", launches.size());
    std::printf("  \"pooled_fraction\": %.3f,\n", kernelNs(1) / tracedNs);
    std::printf("  \"model\": \"makespan of in-order claiming (each task to "
                "the first free thread) over per-task serial times traced "
                "from every pooled launch of one step, plus that step's "
                "unpooled remainder; wall_ns is the host wall clock of later "
                "steps on a %u-core host\",\n",
                hw);
    std::printf("  \"steps\": [\n");
    for (int i = 0; i < 4; ++i) {
        const int T = threadCounts[i];
        const double modeled = serialNs + kernelNs(T);
        const double speedup = tracedNs / modeled;
        std::fprintf(stderr, "%8d %16.0f %16.0f %7.2fx\n", T, wallNs[i], modeled,
                     speedup);
        std::printf("    {\"threads\": %d, \"wall_ns_per_step\": %.0f, "
                    "\"modeled_ns_per_step\": %.0f, \"modeled_speedup\": %.3f}%s\n",
                    T, wallNs[i], modeled, speedup, i < 3 ? "," : "");
    }
    std::printf("  ]\n}\n");
    return 0;
}
