// PR2 bench: tiled multithreaded kernel execution on the DMR step.
//
// Reports the full RK3 step cost at 1/2/4/8 worker threads two ways:
//
//  * wall_ns_per_step — measured wall clock on THIS host. On a single-core
//    container (CI has hardware_concurrency == 1) extra workers cannot make
//    wall clock faster; the number is recorded for honesty, not as the
//    headline.
//  * modeled_ns_per_step — the critical-path time of the deterministic
//    stripe schedule gpu::ThreadPool executes (task t -> thread t % T).
//    One step is run with ThreadPool schedule tracing on, which records the
//    serial duration of every task of every pooled launch (WENO/viscous
//    drivers, MultiFab setVal/mult/saxpy/reductions); the model then
//    replaces each launch's serial total with its slowest stripe at T
//    threads. Everything not pooled (FillBoundary replay copies, FillPatch
//    interpolation, regrid, health checks) stays serial in the model. This
//    is the repo's standard methodology: execute the real structure, model
//    the time (gpu::DeviceModel, parallel::SimComm).
//
// modeled(T) = wall(1) - sum_L serial(L) + sum_L criticalPath(L, T) over
// all pooled launches L of one step.
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

/// Slowest stripe of the pool's deterministic schedule: thread t owns tasks
/// t, t+T, t+2T, ...; the launch completes when the busiest thread does.
double criticalPathNs(const std::vector<double>& taskNs, int nthreads) {
    double worst = 0.0;
    for (int t = 0; t < nthreads; ++t) {
        double stripe = 0.0;
        for (std::size_t f = static_cast<std::size_t>(t); f < taskNs.size();
             f += static_cast<std::size_t>(nthreads))
            stripe += taskNs[f];
        worst = std::max(worst, stripe);
    }
    return worst;
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
    // enough fabs to stripe across 8 workers (96x24x8 at max_grid_size 32 is
    // a mere 3 boxes on level 0 — nothing to balance).
    cfg.amrInfo.maxGridSize = 16;
    cfg.regridFreq = 1000; // freeze the hierarchy after init for stable timing
    core::CroccoAmr solver(dmr.geometry(), cfg, dmr.mapping());
    solver.init(dmr.initialCondition(), dmr.boundaryConditions());
    gpu::setNumThreads(1);
    solver.evolve(2); // warm caches (comm patterns, page faults)

    // Trace every pooled launch of one representative step.
    auto& pool = gpu::ThreadPool::instance();
    pool.beginScheduleTrace();
    solver.step();
    const auto launches = pool.endScheduleTrace();

    auto kernelNs = [&](int nthreads) {
        double total = 0.0;
        for (const auto& l : launches) total += criticalPathNs(l.taskNs, nthreads);
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

    const double serialNs = wallNs[0] - kernelNs(1);
    const unsigned hw = std::thread::hardware_concurrency();
    std::size_t ntasks = 0;
    for (const auto& l : launches) ntasks += l.taskNs.size();

    std::fprintf(stderr,
                 "traced %zu pooled launches, %zu tasks; pooled fraction of "
                 "the step: %.0f%%\n",
                 launches.size(), ntasks, 100.0 * kernelNs(1) / wallNs[0]);
    std::fprintf(stderr, "%8s %16s %16s %8s\n", "threads", "wall ns/step",
                 "modeled ns/step", "speedup");
    std::printf("{\n");
    std::printf("  \"layout\": \"DMR %dx%dx%d, %d levels, max_grid_size %d\",\n",
                opts.nx, opts.ny, opts.nz, solver.finestLevel() + 1,
                cfg.amrInfo.maxGridSize);
    std::printf("  \"host_cores\": %u,\n", hw);
    std::printf("  \"pooled_launches\": %zu,\n", launches.size());
    std::printf("  \"pooled_fraction\": %.3f,\n", kernelNs(1) / wallNs[0]);
    std::printf("  \"model\": \"critical path of the deterministic stripe "
                "schedule (t %% T) over per-task serial times traced from "
                "every pooled launch of one step; wall_ns is the host wall "
                "clock, which cannot improve on a %u-core host\",\n",
                hw);
    std::printf("  \"steps\": [\n");
    for (int i = 0; i < 4; ++i) {
        const int T = threadCounts[i];
        const double modeled = serialNs + kernelNs(T);
        const double speedup = wallNs[0] / modeled;
        std::fprintf(stderr, "%8d %16.0f %16.0f %7.2fx\n", T, wallNs[i], modeled,
                     speedup);
        std::printf("    {\"threads\": %d, \"wall_ns_per_step\": %.0f, "
                    "\"modeled_ns_per_step\": %.0f, \"modeled_speedup\": %.3f}%s\n",
                    T, wallNs[i], modeled, speedup, i < 3 ? "," : "");
    }
    std::printf("  ]\n}\n");
    return 0;
}
