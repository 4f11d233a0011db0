#include "core/CroccoAmr.hpp"

#include "amr/Interpolater.hpp"
#include "mesh/GridMetrics.hpp"
#include "problems/Canonical.hpp"
#include "problems/Dmr.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <map>
#include <set>
#include <string>
#include <utility>

namespace crocco::core {
namespace {

using amr::IntVect;
using problems::Dmr;
using resilience::FabGuard;

Dmr::Options smallDmr() {
    Dmr::Options o;
    o.nx = 64;
    o.ny = 16;
    o.nz = 8;
    o.maxLevel = 1;
    return o;
}

TEST(CroccoAmr, DmrInitBuildsRefinementAlongShock) {
    Dmr dmr(smallDmr());
    auto cfg = dmr.solverConfig(CodeVersion::V20);
    CroccoAmr solver(dmr.geometry(), cfg, dmr.mapping());
    solver.init(dmr.initialCondition(), dmr.boundaryConditions());

    ASSERT_EQ(solver.finestLevel(), 1);
    // The fine level hugs the initial shock (x ~ 1/6 at the wall): far
    // fewer active points than the equivalent uniform fine grid.
    EXPECT_LT(solver.totalPoints(), solver.equivalentPoints() / 2);
    // Fine boxes sit in the left part of the domain where the shock starts.
    const auto& ba1 = solver.boxArray(1);
    ASSERT_GT(ba1.size(), 0);
    EXPECT_LT(ba1.minimalBox().bigEnd(0), 2 * 64); // left half (fine idx)
}

TEST(CroccoAmr, DmrStepsStablyAndTracksShock) {
    Dmr dmr(smallDmr());
    auto cfg = dmr.solverConfig(CodeVersion::V20);
    cfg.regridFreq = 2;
    CroccoAmr solver(dmr.geometry(), cfg, dmr.mapping());
    solver.init(dmr.initialCondition(), dmr.boundaryConditions());
    const int frontBefore = solver.boxArray(1).minimalBox().bigEnd(0);
    solver.evolve(6);
    EXPECT_GT(solver.time(), 0.0);
    EXPECT_GT(solver.lastDt(), 0.0);
    // Physical density bounds for Mach-10 DMR (max ~ 4x post-shock density).
    for (int lev = 0; lev <= solver.finestLevel(); ++lev) {
        EXPECT_GT(solver.state(lev).min(URHO), 0.5) << "level " << lev;
        EXPECT_LT(solver.state(lev).max(URHO), 40.0) << "level " << lev;
        EXPECT_GT(solver.state(lev).min(UEDEN), 0.0);
    }
    // The refined region's leading edge moved downstream with the shock.
    const int frontAfter = solver.boxArray(1).minimalBox().bigEnd(0);
    EXPECT_GE(frontAfter, frontBefore);
    // Profiler recorded the Algorithm-2 regions.
    for (const char* region : {"FillPatch", "WENOx", "WENOy", "WENOz",
                               "Update", "ComputeDt", "Regrid", "AverageDown"}) {
        EXPECT_TRUE(solver.profiler().has(region)) << region;
    }
}

TEST(CroccoAmr, FortranAndCppKernelPathsAgreeWithinPaperTolerance) {
    // §IV-A/§IV-C: L2 norm of per-variable differences between kernel
    // structures stays at round-off across a full driver step.
    Dmr dmr(smallDmr());
    auto mkSolver = [&](KernelVariant v) {
        auto cfg = dmr.solverConfig(CodeVersion::V12);
        cfg.amrInfo.maxLevel = 1;
        cfg.variant = v;
        auto s = std::make_unique<CroccoAmr>(dmr.geometry(), cfg, dmr.mapping());
        s->init(dmr.initialCondition(), dmr.boundaryConditions());
        s->evolve(2);
        return s;
    };
    auto a = mkSolver(KernelVariant::Portable);
    auto b = mkSolver(KernelVariant::FortranStyle);
    ASSERT_EQ(a->finestLevel(), b->finestLevel());
    for (int lev = 0; lev <= a->finestLevel(); ++lev) {
        ASSERT_EQ(a->boxArray(lev), b->boxArray(lev));
        for (int n = 0; n < NCONS; ++n) {
            const Real l2 =
                amr::MultiFab::l2Diff(a->state(lev), b->state(lev), n);
            EXPECT_LT(l2, 1e-7) << "lev " << lev << " comp " << n;
        }
    }
}

TEST(CroccoAmr, MassConservedOnPeriodicProblem) {
    problems::IsentropicVortex vortex(16);
    auto cfg = vortex.solverConfig();
    CroccoAmr solver(vortex.geometry(), cfg, vortex.mapping());
    solver.init(vortex.initialCondition(), nullptr);
    const auto before = solver.conservedTotals();
    solver.evolve(5);
    const auto after = solver.conservedTotals();
    // Fully periodic: fluxes telescope, conserved totals are exact.
    EXPECT_NEAR(after[URHO], before[URHO], 1e-10 * std::abs(before[URHO]));
    EXPECT_NEAR(after[UEDEN], before[UEDEN], 1e-10 * std::abs(before[UEDEN]));
    EXPECT_NEAR(after[UMX], before[UMX], 1e-8 * std::abs(before[UMX]) + 1e-10);
}

/// How the fabs of the remade levels were rebuilt, over all regrids.
struct RemakeCounts {
    int levels = 0;      ///< remade levels checked
    int kept = 0;        ///< same box, same owner: geometry taken over
    int moved = 0;       ///< same box, new owner: geometry recomputed
    int interpolated = 0; ///< not fully covered by the old level
};

/// Classify the fabs of a remade level by how the regrid rebuilt them.
void countRebuilds(const amr::BoxArray& oldBa, const amr::DistributionMapping& oldDm,
                   const amr::BoxArray& ba, const amr::DistributionMapping& dm,
                   RemakeCounts& counts) {
    for (int f = 0; f < ba.size(); ++f) {
        for (const auto& [g, overlap] : oldBa.intersections(ba[f])) {
            if (oldBa[g] != ba[f]) continue;
            if (oldDm[g] == dm[f])
                ++counts.kept;
            else
                ++counts.moved;
        }
        if (!oldBa.contains(ba[f])) ++counts.interpolated;
    }
}

/// Regrid rebuilds only what changed, and the result is bitwise what
/// rebuilding everything gives: after each regrid(0, t), every remade
/// level's coordinates and metrics equal a from-scratch CoordStore fill +
/// mesh::computeMetrics on the new layout, and its valid state equals the
/// whole-level recipe — interpolate every fab from the (already regridded)
/// coarse level, then parallelCopy the old level over it.
RemakeCounts checkRegridsAgainstFullRebuild() {
    Dmr::Options o;
    o.nx = 32;
    o.ny = 8;
    o.nz = 8;
    o.maxLevel = 2;
    Dmr dmr(o);
    auto cfg = dmr.solverConfig(CodeVersion::V20);
    cfg.amrInfo.maxGridSize = 8;
    cfg.regridFreq = 1;
    cfg.nranks = 8;
    parallel::SimComm comm(8);
    CroccoAmr solver(dmr.geometry(), cfg, dmr.mapping(), &comm);
    const amr::PhysBCFunct bc = dmr.boundaryConditions();
    solver.init(dmr.initialCondition(), bc);
    const amr::CurvilinearInterp interp;

    RemakeCounts counts;
    for (int pass = 0; pass < 3; ++pass) {
        // Advance the flow so the next regrid sees new tags. The step's
        // own regrid ran before its advance; the explicit one below runs
        // on the advanced state.
        solver.step();
        std::vector<amr::MultiFab> oldU;
        std::vector<amr::BoxArray> oldBa;
        std::vector<amr::DistributionMapping> oldDm;
        for (int lev = 0; lev <= solver.finestLevel(); ++lev) {
            oldU.push_back(solver.state(lev));
            oldBa.push_back(solver.boxArray(lev));
            oldDm.push_back(solver.dmap(lev));
        }
        const int oldFinest = solver.finestLevel();
        solver.regrid(0, solver.time());

        for (int lev = 1; lev <= std::min(oldFinest, solver.finestLevel()); ++lev) {
            const auto& ba = solver.boxArray(lev);
            const auto& dm = solver.dmap(lev);
            const auto l = static_cast<std::size_t>(lev);
            if (ba == oldBa[l] && dm == oldDm[l]) continue;
            ++counts.levels;

            amr::MultiFab coords(ba, dm, 3, solver.coords(lev).nGrow());
            amr::MultiFab metrics(ba, dm, mesh::MetricComps,
                                  solver.metrics(lev).nGrow());
            solver.coordStore().getCoords(coords, lev);
            mesh::computeMetrics(coords, metrics, solver.geom(lev));

            amr::MultiFab ref(ba, dm, NCONS, NGHOST, &comm);
            amr::InterpFromCoarseLevel(ref, solver.state(lev - 1),
                                       solver.geom(lev), solver.geom(lev - 1),
                                       solver.refRatio(), interp, bc, bc,
                                       solver.time(), &solver.coords(lev),
                                       &solver.coords(lev - 1));
            ref.parallelCopy(oldU[l], 0, 0, NCONS, 0, 0, "Regrid");

            for (int f = 0; f < ba.size(); ++f) {
                EXPECT_TRUE(FabGuard::bitwiseEqual(coords.fab(f),
                                                   solver.coords(lev).fab(f),
                                                   coords.grownBox(f), 3))
                    << "coords, pass " << pass << " level " << lev << " fab " << f;
                EXPECT_TRUE(FabGuard::bitwiseEqual(
                    metrics.fab(f), solver.metrics(lev).fab(f),
                    metrics.grownBox(f), mesh::MetricComps))
                    << "metrics, pass " << pass << " level " << lev << " fab " << f;
                EXPECT_TRUE(FabGuard::bitwiseEqual(ref.fab(f),
                                                   solver.state(lev).fab(f),
                                                   ba[f], NCONS))
                    << "state, pass " << pass << " level " << lev << " fab " << f;
            }
            countRebuilds(oldBa[l], oldDm[l], ba, dm, counts);
        }
    }
    return counts;
}

TEST(CroccoAmr, RegridRebuildsOnlyWhatChangedBitwise) {
    const RemakeCounts c = checkRegridsAgainstFullRebuild();
    // The case exercises every rebuild path: geometry taken over from the
    // old level, geometry recomputed after an owner change, and coarse
    // interpolation.
    EXPECT_GT(c.levels, 0);
    EXPECT_GT(c.kept, 0);
    EXPECT_GT(c.moved, 0);
    EXPECT_GT(c.interpolated, 0);
}

TEST(CroccoAmr, EstimateRegridFreqScalesWithPatchSize) {
    Dmr dmr(smallDmr());
    auto cfg = dmr.solverConfig(CodeVersion::V20);
    CroccoAmr solver(dmr.geometry(), cfg, dmr.mapping());
    solver.init(dmr.initialCondition(), dmr.boundaryConditions());
    const int freq = solver.estimateRegridFreq();
    EXPECT_GE(freq, 1);
    // Half the smallest fine-patch width at CFL 0.5 -> at least a few steps.
    EXPECT_LE(freq, 200);
}

TEST(CroccoAmr, CurvilinearAndCartesianDmrAgreeApproximately) {
    // §V-B: curvilinear coordinates are "unnecessary for this problem" —
    // running the same DMR on the wavy grid must give nearly the same
    // solution as the uniform grid when restricted to level 0 statistics.
    auto run = [&](bool curvilinear) {
        Dmr::Options o = smallDmr();
        o.maxLevel = 0;
        o.curvilinear = curvilinear;
        o.waveAmplitude = 0.01;
        Dmr dmr(o);
        auto cfg = dmr.solverConfig(CodeVersion::V11);
        auto s = std::make_unique<CroccoAmr>(dmr.geometry(), cfg, dmr.mapping());
        s->init(dmr.initialCondition(), dmr.boundaryConditions());
        s->evolve(4);
        return s->conservedTotals();
    };
    const auto curv = run(true);
    const auto cart = run(false);
    EXPECT_NEAR(curv[URHO], cart[URHO], 0.05 * std::abs(cart[URHO]));
    EXPECT_NEAR(curv[UEDEN], cart[UEDEN], 0.05 * std::abs(cart[UEDEN]));
}

TEST(CroccoAmr, CommLogCapturesPaperCommunicationStructure) {
    Dmr dmr(smallDmr());
    parallel::SimComm comm(4);
    auto cfg = dmr.solverConfig(CodeVersion::V20);
    cfg.nranks = 4;
    CroccoAmr solver(dmr.geometry(), cfg, dmr.mapping(), &comm);
    solver.init(dmr.initialCondition(), dmr.boundaryConditions());
    comm.log().clear();
    solver.step();
    // One iteration produces: point-to-point FillBoundary traffic, the
    // FillPatch coarse gather, the curvilinear interpolator's coordinate
    // gather (the paper's bottleneck), and the ComputeDt reduction.
    EXPECT_GT(comm.log().summarize().p2p, 0u);
    EXPECT_GT(comm.log().summarize().reductions, 0u);
    bool sawState = false, sawCoords = false;
    for (const auto& m : comm.log().messages()) {
        sawState = sawState || m.tag == "ParallelCopy";
        sawCoords = sawCoords || m.tag == "ParallelCopy_interp";
    }
    EXPECT_TRUE(sawState);
    EXPECT_TRUE(sawCoords);

    // CRoCCo 2.1 (trilinear interpolator) must NOT produce the coordinate
    // gather.
    parallel::SimComm comm21(4);
    auto cfg21 = dmr.solverConfig(CodeVersion::V21);
    cfg21.nranks = 4;
    CroccoAmr solver21(dmr.geometry(), cfg21, dmr.mapping(), &comm21);
    solver21.init(dmr.initialCondition(), dmr.boundaryConditions());
    comm21.log().clear();
    solver21.step();
    for (const auto& m : comm21.log().messages())
        EXPECT_NE(m.tag, "ParallelCopy_interp");
}

TEST(CroccoAmr, ProfilerTimesOnlyItsOwnSolversRegions) {
    // A solver's TinyProfiler holds the wall-clock regions that solver ran,
    // and nothing else: the exchanges charge no process-wide profiler, so a
    // solver constructed later receives none of an earlier one's activity.
    Dmr::Options o;
    o.nx = 32;
    o.ny = 8;
    o.nz = 8;
    o.maxLevel = 1;
    Dmr dmr(o);
    auto cfg = dmr.solverConfig(CodeVersion::V20);
    cfg.amrInfo.maxGridSize = 8; // several boxes per rank: real exchanges
    cfg.regridFreq = 1;
    cfg.nranks = 2;
    parallel::SimComm comm(2), idleComm(2);
    CroccoAmr stepped(dmr.geometry(), cfg, dmr.mapping(), &comm);
    CroccoAmr idle(dmr.geometry(), cfg, dmr.mapping(), &idleComm);
    stepped.init(dmr.initialCondition(), dmr.boundaryConditions());
    stepped.evolve(2);
    ASSERT_GT(comm.log().summarize().p2p, 0u);

    EXPECT_TRUE(idle.profiler().report().empty()) << idle.profiler().table();
    const std::set<std::string> solverRegions{
        "InitGrid",    "InitGridMetrics", "InitFlow",  "Regrid",
        "FillPatch",   "ComputeDt",       "WENOx",     "WENOy",
        "WENOz",       "Viscous",         "Update",    "AverageDown",
        "HealthCheck", "SdcStamp",        "SdcVerify", "SdcDualExec"};
    const auto regions = stepped.profiler().report();
    EXPECT_FALSE(regions.empty());
    for (const auto& e : regions) {
        EXPECT_EQ(solverRegions.count(e.name), 1u) << e.name;
        EXPECT_GT(e.calls, 0) << e.name;
    }
    EXPECT_TRUE(stepped.profiler().has("FillPatch"));
}

/// 64-bit FNV-1a over the bytes of each value: a pinned digest moves when
/// any bit of any hashed value does.
class Fnv1a {
public:
    void add(Real v) {
        unsigned char bytes[sizeof v];
        std::memcpy(bytes, &v, sizeof v);
        for (unsigned char b : bytes) {
            h_ ^= b;
            h_ *= 1099511628211ull;
        }
    }
    std::uint64_t value() const { return h_; }

private:
    std::uint64_t h_ = 14695981039346656037ull;
};

/// Every valid cell of U on every level, then the solution time.
std::uint64_t stateDigest(const CroccoAmr& s) {
    Fnv1a h;
    for (int lev = 0; lev <= s.finestLevel(); ++lev) {
        const auto& U = s.state(lev);
        for (int f = 0; f < U.numFabs(); ++f) {
            auto u = U.const_array(f);
            amr::forEachCell(U.validBox(f), [&](int i, int j, int k) {
                for (int n = 0; n < NCONS; ++n) h.add(u(i, j, k, n));
            });
        }
    }
    h.add(s.time());
    return h.value();
}

/// The coordinates and the nine first metrics ∂ξ_d/∂x_j over the grown box
/// of every fab on every level (NGHOST + 2 coordinate ghosts, NGHOST
/// metric ghosts).
std::uint64_t geometryDigest(const CroccoAmr& s) {
    Fnv1a h;
    for (int lev = 0; lev <= s.finestLevel(); ++lev) {
        const auto& X = s.coords(lev);
        const auto& M = s.metrics(lev);
        for (int f = 0; f < X.numFabs(); ++f) {
            auto x = X.const_array(f);
            amr::forEachCell(X.grownBox(f), [&](int i, int j, int k) {
                for (int n = 0; n < 3; ++n) h.add(x(i, j, k, n));
            });
            auto m = M.const_array(f);
            amr::forEachCell(M.grownBox(f), [&](int i, int j, int k) {
                for (int d = 0; d < 3; ++d)
                    for (int c = 0; c < 3; ++c) h.add(m(i, j, k, mesh::metric1(d, c)));
            });
        }
    }
    return h.value();
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

TEST(CroccoAmr, StateAndGeometryDigestsArePinned) {
    // The solver's trajectory, pinned bit for bit: a change that claims to
    // leave every stored value alone must leave both digests alone, at any
    // thread count (croccoamr_test_mt runs this at four).
    {
        // The dmr_regrid shape: three levels of 8-cell boxes on eight
        // ranks, regridded every step, so kept, moved and interpolated
        // fabs all occur.
        Dmr::Options o;
        o.nx = 32;
        o.ny = 8;
        o.nz = 8;
        o.maxLevel = 2;
        Dmr dmr(o);
        auto cfg = dmr.solverConfig(CodeVersion::V20);
        cfg.amrInfo.maxGridSize = 8;
        cfg.regridFreq = 1;
        cfg.nranks = 8;
        parallel::SimComm comm(8);
        CroccoAmr solver(dmr.geometry(), cfg, dmr.mapping(), &comm);
        solver.init(dmr.initialCondition(), dmr.boundaryConditions());
        RemakeCounts counts;
        for (int s = 0; s < 5; ++s) {
            std::vector<amr::BoxArray> oldBa;
            std::vector<amr::DistributionMapping> oldDm;
            for (int lev = 0; lev <= solver.finestLevel(); ++lev) {
                oldBa.push_back(solver.boxArray(lev));
                oldDm.push_back(solver.dmap(lev));
            }
            solver.step();
            for (int lev = 1; lev < static_cast<int>(oldBa.size()) &&
                              lev <= solver.finestLevel();
                 ++lev) {
                const auto l = static_cast<std::size_t>(lev);
                if (solver.boxArray(lev) == oldBa[l] && solver.dmap(lev) == oldDm[l])
                    continue;
                countRebuilds(oldBa[l], oldDm[l], solver.boxArray(lev),
                              solver.dmap(lev), counts);
            }
        }
        EXPECT_GT(counts.kept, 0);
        EXPECT_GT(counts.moved, 0);
        EXPECT_GT(counts.interpolated, 0);
        ASSERT_EQ(solver.finestLevel(), 2);
        EXPECT_EQ(stateDigest(solver), 0xc442686b1f2d23bcull);
        EXPECT_EQ(geometryDigest(solver), 0xea6cde4128f1a2b1ull);
        // The traffic of the same run, from construction on: messages and
        // payload bytes per CommLog tag. A change to what the exchanges
        // ship (a ghost width, a gather, a reduction) must re-baseline
        // this on purpose.
        const std::map<std::string, std::pair<std::size_t, std::int64_t>>
            traffic{{"AverageDown", {278, 711680}},
                    {"ComputeDt", {105, 840}},
                    {"FillBoundary", {13110, 74956800}},
                    {"ParallelCopy", {4610, 28113680}},
                    // Coarse coordinates gathered only as deep as the
                    // interpolation halo (3), not their full 7 ghosts.
                    {"ParallelCopy_interp", {7650, 61221120}},
                    {"Regrid", {8, 163840}}};
        EXPECT_EQ(trafficByTag(comm), traffic);
    }
    {
        // Two-level Smagorinsky LES: viscousFlux reads the metrics too.
        Dmr::Options o;
        o.nx = 32;
        o.ny = 8;
        o.nz = 8;
        o.maxLevel = 1;
        Dmr dmr(o);
        auto cfg = dmr.solverConfig(CodeVersion::V20);
        cfg.sgs.cs = 0.1;
        CroccoAmr solver(dmr.geometry(), cfg, dmr.mapping());
        solver.init(dmr.initialCondition(), dmr.boundaryConditions());
        solver.evolve(5);
        ASSERT_EQ(solver.finestLevel(), 1);
        EXPECT_EQ(stateDigest(solver), 0x049a8867a1745077ull);
        EXPECT_EQ(geometryDigest(solver), 0xcad82efbf37caf85ull);
    }
    {
        // Two-level Navier-Stokes: molecular viscosity by Sutherland's law.
        Dmr::Options o;
        o.nx = 32;
        o.ny = 8;
        o.nz = 8;
        o.maxLevel = 1;
        Dmr dmr(o);
        auto cfg = dmr.solverConfig(CodeVersion::V20);
        cfg.gas.muRef = 2e-3;
        CroccoAmr solver(dmr.geometry(), cfg, dmr.mapping());
        solver.init(dmr.initialCondition(), dmr.boundaryConditions());
        solver.evolve(5);
        ASSERT_EQ(solver.finestLevel(), 1);
        EXPECT_GT(solver.profiler().calls("Viscous"), 0);
        EXPECT_EQ(stateDigest(solver), 0x59362aee500cbd74ull);
        EXPECT_EQ(geometryDigest(solver), 0xcad82efbf37caf85ull);
    }
}

} // namespace
} // namespace crocco::core
