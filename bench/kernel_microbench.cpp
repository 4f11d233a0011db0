// Google-benchmark microbenchmarks of the numerics kernels and the core AMR
// primitives on this host: the measured side of Fig. 3 and the ablation
// substrate. Run with --benchmark_min_time=... for tighter statistics.
#include <benchmark/benchmark.h>

#include "amr/FillPatch.hpp"
#include "core/ComputeDt.hpp"
#include "core/Viscous.hpp"
#include "core/Weno.hpp"
#include "mesh/CoordStore.hpp"
#include "mesh/GridMetrics.hpp"

namespace {

using namespace crocco;
using amr::Box;
using amr::FArrayBox;
using amr::IntVect;

struct KernelState {
    amr::Geometry geom;
    FArrayBox coords, metrics, S, dU;
    core::GasModel gas;

    explicit KernelState(int n) {
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
        amr::forEachCell(grown, [&](int i, int j, int k) {
            const double rho = 1.0 + 0.1 * std::sin(0.4 * i + 0.2 * j);
            s(i, j, k, core::URHO) = rho;
            s(i, j, k, core::UMX) = 0.3 * rho;
            s(i, j, k, core::UMY) = 0.1;
            s(i, j, k, core::UMZ) = 0.0;
            s(i, j, k, core::UEDEN) = gas.totalEnergy(rho, 0.3, 0.1 / rho, 0, 1.0);
        });
        dU = FArrayBox(geom.domain(), core::NCONS, 0.0);
    }
};

/// One WENO-SYMBO sweep of direction `dir` in the given kernel structure.
void BM_Weno(benchmark::State& state, int dir, core::KernelVariant variant) {
    KernelState ks(static_cast<int>(state.range(0)));
    for (auto _ : state) {
        core::wenoFlux(dir, ks.S.const_array(), ks.metrics.const_array(),
                       ks.geom.domain(), ks.dU.array(), ks.geom.cellSize(dir),
                       ks.gas, core::WenoScheme::Symbo, variant);
        benchmark::DoNotOptimize(ks.dU.array().p);
        benchmark::ClobberMemory();
    }
    state.SetItemsProcessed(state.iterations() * ks.geom.domain().numPts());
}

/// The viscous sweep: Sutherland viscosity alone, or with the Smagorinsky
/// eddy viscosity of the LES runs (dmr_steady sets cs = 0.1).
void BM_Viscous(benchmark::State& state, double cs) {
    KernelState ks(static_cast<int>(state.range(0)));
    core::SgsModel sgs;
    sgs.cs = cs;
    for (auto _ : state) {
        core::viscousFlux(ks.S.const_array(), ks.metrics.const_array(),
                          ks.geom.domain(), ks.dU.array(), ks.geom.cellSizeArray(),
                          ks.gas, core::KernelVariant::Portable, sgs);
        benchmark::DoNotOptimize(ks.dU.array().p);
        benchmark::ClobberMemory();
    }
    state.SetItemsProcessed(state.iterations() * ks.geom.domain().numPts());
}

void BM_ComputeDt(benchmark::State& state) {
    KernelState ks(static_cast<int>(state.range(0)));
    for (auto _ : state) {
        benchmark::DoNotOptimize(core::computeDtFab(
            ks.S.const_array(), ks.metrics.const_array(), ks.geom.domain(),
            ks.geom.cellSizeArray(), ks.gas, 0.5));
    }
    state.SetItemsProcessed(state.iterations() * ks.geom.domain().numPts());
}

void BM_Metrics(benchmark::State& state) {
    KernelState ks(static_cast<int>(state.range(0)));
    const Box grown = ks.geom.domain().grow(core::NGHOST);
    for (auto _ : state) {
        mesh::computeMetricsFab(ks.coords.const_array(), ks.metrics.array(),
                                grown, ks.geom.cellSizeArray());
        benchmark::DoNotOptimize(ks.metrics);
    }
    state.SetItemsProcessed(state.iterations() * grown.numPts());
}

void BM_Interp(benchmark::State& state, const amr::Interpolater& interp) {
    const Box fineRegion(IntVect(8), IntVect(8 + static_cast<int>(state.range(0)) - 1));
    const Box crseBox = fineRegion.coarsen(2).grow(interp.nGrowCoarse());
    FArrayBox crse(crseBox, core::NCONS, 1.0), fine(fineRegion, core::NCONS);
    FArrayBox crseCoords(crseBox.grow(1), 3), fineCoords(fineRegion, 3);
    auto cc = crseCoords.array();
    amr::forEachCell(crseCoords.box(), [&](int i, int j, int k) {
        cc(i, j, k, 0) = i + 0.5;
        cc(i, j, k, 1) = j + 0.5;
        cc(i, j, k, 2) = k + 0.5;
    });
    auto fc = fineCoords.array();
    amr::forEachCell(fineRegion, [&](int i, int j, int k) {
        fc(i, j, k, 0) = (i + 0.5) * 0.5;
        fc(i, j, k, 1) = (j + 0.5) * 0.5;
        fc(i, j, k, 2) = (k + 0.5) * 0.5;
    });
    amr::InterpContext ctx{&crseCoords, &fineCoords};
    for (auto _ : state) {
        interp.interp(crse, fine, fineRegion, 0, 0, core::NCONS, IntVect(2), ctx);
        benchmark::DoNotOptimize(fine);
    }
    state.SetItemsProcessed(state.iterations() * fineRegion.numPts());
}

const amr::TrilinearInterp kTrilinear;
const amr::CurvilinearInterp kCurvilinear;
const amr::WenoInterp kWenoInterp;

} // namespace

BENCHMARK_CAPTURE(BM_Weno, x_line_scratch, 0, core::KernelVariant::FortranStyle)
    ->Arg(16)->Arg(32);
BENCHMARK_CAPTURE(BM_Weno, x_staged_gpu_structure, 0, core::KernelVariant::Portable)
    ->Arg(16)->Arg(32);
BENCHMARK_CAPTURE(BM_Weno, y_staged_gpu_structure, 1, core::KernelVariant::Portable)
    ->Arg(16)->Arg(32);
BENCHMARK_CAPTURE(BM_Weno, z_staged_gpu_structure, 2, core::KernelVariant::Portable)
    ->Arg(16)->Arg(32);
BENCHMARK_CAPTURE(BM_Viscous, sutherland, 0.0)->Arg(16)->Arg(32);
BENCHMARK_CAPTURE(BM_Viscous, smagorinsky, 0.1)->Arg(16)->Arg(32);
BENCHMARK(BM_ComputeDt)->Arg(32);
BENCHMARK(BM_Metrics)->Arg(16)->Arg(32);
BENCHMARK_CAPTURE(BM_Interp, trilinear, kTrilinear)->Arg(16);
BENCHMARK_CAPTURE(BM_Interp, curvilinear, kCurvilinear)->Arg(16);
BENCHMARK_CAPTURE(BM_Interp, weno, kWenoInterp)->Arg(16);

BENCHMARK_MAIN();
