// The overlapped advance (Config::overlap) must be BITWISE identical to the
// serial path on a full DMR run — same interior/halo decomposition argument
// docs/performance.md §4 lays out: every valid cell receives its complete
// dir0 -> dir1 -> dir2 (-> viscous) update sequence within one pass, with
// operands that are pure functions of Sborder/metrics at fixed indices, and
// the Begin/End exchange replays the exact copies of the blocking path.
//
// Thread counts are swept in-test (1 = serial launches, 8 = striped pool
// with the fused End+halo launch and its event ordering), so the _mt ctest
// variant re-checks the same property under GPU_NUM_THREADS=4 as well. The
// viscous cases cover the width-4 halo strips of the LES and Navier-Stokes
// closures, and the SimComm case the per-copy isend/waitall exchange of a
// 4-rank run, whose message log must match the blocking path's per tag.
#include "core/CroccoAmr.hpp"

#include "gpu/ThreadPool.hpp"
#include "parallel/SimComm.hpp"
#include "problems/Dmr.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <utility>

namespace crocco::core {
namespace {

using problems::Dmr;

Dmr::Options smallDmr() {
    Dmr::Options o;
    o.nx = 64;
    o.ny = 16;
    o.nz = 8;
    o.maxLevel = 1;
    return o;
}

std::unique_ptr<CroccoAmr> runDmr(bool overlap, int nsteps) {
    Dmr dmr(smallDmr());
    auto cfg = dmr.solverConfig(CodeVersion::V20);
    cfg.regridFreq = 2; // include regrids in the compared trajectory
    cfg.overlap = overlap;
    auto s = std::make_unique<CroccoAmr>(dmr.geometry(), cfg, dmr.mapping());
    s->init(dmr.initialCondition(), dmr.boundaryConditions());
    s->evolve(nsteps);
    return s;
}

void expectBitwiseEqual(const CroccoAmr& a, const CroccoAmr& b) {
    ASSERT_EQ(a.finestLevel(), b.finestLevel());
    EXPECT_EQ(a.time(), b.time());
    EXPECT_EQ(a.lastDt(), b.lastDt());
    for (int lev = 0; lev <= a.finestLevel(); ++lev) {
        const amr::MultiFab& ua = a.state(lev);
        const amr::MultiFab& ub = b.state(lev);
        ASSERT_EQ(ua.boxArray(), ub.boxArray()) << "level " << lev;
        for (int f = 0; f < ua.numFabs(); ++f) {
            auto x = ua.const_array(f);
            auto y = ub.const_array(f);
            for (int n = 0; n < NCONS; ++n)
                amr::forEachCell(ua.validBox(f), [&](int i, int j, int k) {
                    EXPECT_EQ(x(i, j, k, n), y(i, j, k, n))
                        << "level " << lev << " fab " << f << " comp " << n
                        << " (" << i << "," << j << "," << k << ")";
                });
        }
    }
}

TEST(Overlap, DmrStepBitwiseIdenticalToSerialPath) {
    for (int nthreads : {1, 8}) {
        gpu::setNumThreads(nthreads);
        auto serial = runDmr(false, 4);
        auto overlapped = runDmr(true, 4);
        SCOPED_TRACE("nthreads=" + std::to_string(nthreads));
        expectBitwiseEqual(*serial, *overlapped);
        // The overlapped run exercised the split regions.
        EXPECT_TRUE(overlapped->profiler().has("FillPatchBegin"));
        EXPECT_TRUE(overlapped->profiler().has("AdvanceHalo"));
        EXPECT_FALSE(serial->profiler().has("FillPatchBegin"));
    }
    gpu::setNumThreads(1);
}

TEST(Overlap, ThreadCountDoesNotChangeOverlappedResults) {
    // Determinism within the overlapped path itself: the striped pool with
    // the event-ordered fused launch must reproduce the serial-launch run.
    gpu::setNumThreads(1);
    auto t1 = runDmr(true, 3);
    gpu::setNumThreads(8);
    auto t8 = runDmr(true, 3);
    gpu::setNumThreads(1);
    expectBitwiseEqual(*t1, *t8);
}

/// 32x8x8 two-level DMR, regridded every second step, advanced 6 steps
/// with `tweak` applied to its Config (and on `comm`'s ranks, if given).
std::unique_ptr<CroccoAmr>
runSmallDmr(const std::function<void(CroccoAmr::Config&)>& tweak,
            parallel::SimComm* comm = nullptr) {
    Dmr::Options o;
    o.nx = 32;
    o.ny = 8;
    o.nz = 8;
    o.maxLevel = 1;
    Dmr dmr(o);
    auto cfg = dmr.solverConfig(CodeVersion::V20);
    cfg.regridFreq = 2;
    tweak(cfg);
    auto s = std::make_unique<CroccoAmr>(dmr.geometry(), cfg, dmr.mapping(),
                                         comm);
    s->init(dmr.initialCondition(), dmr.boundaryConditions());
    s->evolve(6);
    return s;
}

/// The overlap's width-4 viscous halo strips must advance the serial
/// trajectory bit for bit, at 1 and 4 threads, under the viscous closure
/// `closure` sets up.
void expectViscousPathsAgree(void (*closure)(CroccoAmr::Config&)) {
    for (int nthreads : {1, 4}) {
        SCOPED_TRACE("nthreads=" + std::to_string(nthreads));
        auto run = [&](bool overlap) {
            return runSmallDmr([&](CroccoAmr::Config& cfg) {
                closure(cfg);
                cfg.gpuNumThreads = nthreads;
                cfg.overlap = overlap;
            });
        };
        auto serial = run(false);
        EXPECT_GT(serial->profiler().calls("Viscous"), 0);
        auto overlapped = run(true);
        EXPECT_TRUE(overlapped->profiler().has("AdvanceHalo"));
        expectBitwiseEqual(*serial, *overlapped);
    }
    gpu::setNumThreads(1);
}

TEST(Overlap, LesDmrBitwiseIdenticalToSerialPath) {
    // Smagorinsky cs = 0.1 on inviscid air (dmrbench's closure).
    expectViscousPathsAgree([](CroccoAmr::Config& cfg) { cfg.sgs.cs = 0.1; });
}

TEST(Overlap, NavierStokesDmrBitwiseIdenticalToSerialPath) {
    // Molecular viscosity by Sutherland's law.
    expectViscousPathsAgree(
        [](CroccoAmr::Config& cfg) { cfg.gas.muRef = 2e-3; });
}

/// Per CommLog tag: (message count, payload bytes).
std::map<std::string, std::pair<std::size_t, std::int64_t>>
trafficByTag(const parallel::SimComm& comm) {
    std::map<std::string, std::pair<std::size_t, std::int64_t>> out;
    for (const auto& m : comm.log().messages()) {
        auto& t = out[m.tag];
        ++t.first;
        t.second += m.bytes;
    }
    return out;
}

TEST(Overlap, SimCommRanksMatchSerialStateAndTraffic) {
    // The overlapped solver posts each off-rank ghost copy as its own
    // isend at FillPatchBegin and commits them at the waitall inside
    // FillPatchEnd. On 4 ranks with regrids that must reproduce the serial
    // run's state bit for bit, and its message log tag for tag. 8-cell
    // boxes give every rank several fabs, so the exchanges cross ranks.
    for (int nthreads : {1, 4}) {
        SCOPED_TRACE("nthreads=" + std::to_string(nthreads));
        auto run = [&](bool overlap, parallel::SimComm& comm) {
            return runSmallDmr(
                [&](CroccoAmr::Config& cfg) {
                    cfg.nranks = comm.size();
                    cfg.amrInfo.maxGridSize = 8;
                    cfg.gpuNumThreads = nthreads;
                    cfg.overlap = overlap;
                },
                &comm);
        };
        parallel::SimComm serialComm(4), overlapComm(4);
        auto serial = run(false, serialComm);
        auto overlapped = run(true, overlapComm);
        EXPECT_TRUE(overlapped->profiler().has("FillPatchBegin"));
        expectBitwiseEqual(*serial, *overlapped);
        const auto want = trafficByTag(serialComm);
        EXPECT_GT(want.count("FillBoundary"), 0u);
        EXPECT_EQ(trafficByTag(overlapComm), want);
    }
    gpu::setNumThreads(1);
}

} // namespace
} // namespace crocco::core
