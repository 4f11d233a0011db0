// Regenerates Fig. 3: time per iteration in the WENOx and Viscous kernels
// vs problem size, for the Fortran-structured CPU kernels, the portable C++
// CPU kernels, and the GPU port.
//
// Two tables are printed:
//  1. *Measured* host times of our two kernel structures (the paper's
//     Fortran vs C++ comparison maps onto FortranStyle vs Portable — same
//     arithmetic, different memory structure);
//  2. *Modeled* times on the paper's hardware (one 22-core P9 socket vs one
//     V100) from the calibrated execution models, reproducing the paper's
//     1.2x C++ slowdown and 2.5x-15.8x GPU speedup band.
#include "bench_util.hpp"

#include "core/KernelProfiles.hpp"
#include "core/Viscous.hpp"
#include "core/Weno.hpp"
#include "mesh/CoordStore.hpp"
#include "mesh/GridMetrics.hpp"

#include <algorithm>
#include <chrono>
#include <vector>

using namespace crocco;
using namespace crocco::bench;
using amr::Box;
using amr::FArrayBox;
using amr::IntVect;

namespace {

struct KernelSetup {
    amr::Geometry geom;
    FArrayBox coords, metrics, S, dU;
    core::GasModel gas;

    explicit KernelSetup(int n) {
        gas.muRef = 0.01;
        geom = amr::Geometry(Box(IntVect::zero(), IntVect(n - 1)), {0, 0, 0},
                             {1, 1, 1}, amr::Periodicity::all());
        auto mapping = std::make_shared<mesh::InteriorWavyMapping>(
            std::array<double, 3>{0, 0, 0}, std::array<double, 3>{1, 1, 1}, 0.02);
        mesh::CoordStore store(mapping, geom, IntVect(2), 0, core::NGHOST + 3);
        const Box grown = geom.domain().grow(core::NGHOST);
        coords = FArrayBox(geom.domain().grow(core::NGHOST + 3), 3);
        store.getCoords(coords, 0);
        metrics = FArrayBox(grown, mesh::MetricComps);
        mesh::computeMetricsFab(coords.const_array(), metrics.array(), grown,
                                geom.cellSizeArray());
        S = FArrayBox(grown, core::NCONS);
        auto s = S.array();
        auto x = coords.const_array();
        amr::forEachCell(grown, [&](int i, int j, int k) {
            const double rho = 1.0 + 0.2 * std::sin(6.0 * x(i, j, k, 0));
            const double u = 0.5 * std::cos(4.0 * x(i, j, k, 1));
            s(i, j, k, core::URHO) = rho;
            s(i, j, k, core::UMX) = rho * u;
            s(i, j, k, core::UMY) = 0.1;
            s(i, j, k, core::UMZ) = -0.05;
            s(i, j, k, core::UEDEN) = gas.totalEnergy(rho, u, 0.1, -0.05, 1.0);
        });
        dU = FArrayBox(geom.domain(), core::NCONS, 0.0);
    }
};

/// Median wall time of `reps` calls of f.
double timeIt(const std::function<void()>& f, int reps = 7) {
    std::vector<double> t;
    for (int r = 0; r < reps; ++r) {
        const auto t0 = std::chrono::steady_clock::now();
        f();
        const auto t1 = std::chrono::steady_clock::now();
        t.push_back(std::chrono::duration<double>(t1 - t0).count());
    }
    std::nth_element(t.begin(), t.begin() + reps / 2, t.end());
    return t[static_cast<std::size_t>(reps / 2)];
}

} // namespace

int main() {
    printHeader("Figure 3: WENOx and Viscous kernel time vs problem size");

    // Both structures run on the calling thread: a gpu::ParallelFor launch
    // is a plain loop over its box, like the pencil loop.
    std::printf("\n[measured on this host, one thread, median of 7 calls] "
                "kernel structure comparison\n");
    std::printf("%10s | %12s %12s %8s | %12s\n", "points", "line-scratch",
                "staged(GPU)", "ratio", "Viscous");
    for (int n : {16, 24, 32, 48}) {
        KernelSetup ks(n);
        const auto runWeno = [&](core::KernelVariant v) {
            return timeIt([&] {
                core::wenoFlux(0, ks.S.const_array(), ks.metrics.const_array(),
                               ks.geom.domain(), ks.dU.array(), ks.geom.cellSize(0),
                               ks.gas, core::WenoScheme::Symbo, v);
            });
        };
        const double tLine = runWeno(core::KernelVariant::FortranStyle);
        const double tStaged = runWeno(core::KernelVariant::Portable);
        const double tVisc = timeIt([&] {
            core::viscousFlux(ks.S.const_array(), ks.metrics.const_array(),
                              ks.geom.domain(), ks.dU.array(),
                              ks.geom.cellSizeArray(), ks.gas,
                              core::KernelVariant::Portable);
        });
        std::printf("%10lld | %10.2f ms %10.2f ms %8.2f | %10.2f ms\n",
                    static_cast<long long>(ks.geom.domain().numPts()),
                    tLine * 1e3, tStaged * 1e3, tStaged / tLine, tVisc * 1e3);
    }

    std::printf("\n[modeled: 22-core P9 socket vs one V100] per-sweep kernel time\n");
    std::printf("%10s | %12s %12s %12s | %10s %10s\n", "points", "Fortran CPU",
                "C++ CPU", "GPU", "GPU x (W)", "GPU x (V)");
    gpu::V100Model v100;
    gpu::P9SocketModel p9;
    const auto& weno = core::wenoKernelProfile();
    const auto& visc = core::viscousKernelProfile();
    for (double pts : {8e3, 5e4, 2e5, 1e6, 4e6, 2e7}) {
        const auto n = static_cast<std::int64_t>(pts);
        const double tF = p9.kernelTime(weno, n, false);
        const double tC = p9.kernelTime(weno, n, true);
        const double tG = v100.kernelTime(weno, n);
        const double tGv = v100.kernelTime(visc, n);
        const double tFv = p9.kernelTime(visc, n, false);
        std::printf("%10.1e | %9.2f ms %9.2f ms %9.2f ms | %10.1f %10.1f\n", pts,
                    tF * 1e3, tC * 1e3, tG * 1e3, tF / tG, tFv / tGv);
    }
    std::printf("\nPaper reference: C++ ~1.2x slower than Fortran on the P9;\n");
    std::printf("GPU speedup from 2.5x (small, Viscous) to 15.8x (large, WENOx).\n");
    return 0;
}
