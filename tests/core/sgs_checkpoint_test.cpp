#include "core/CroccoAmr.hpp"
#include "core/Sgs.hpp"

#include "problems/Canonical.hpp"
#include "problems/Dmr.hpp"

#include "TempDir.hpp"

#include <gtest/gtest.h>

#include <fstream>

namespace crocco::core {
namespace {

// -------------------------------------------------------------------- SGS

TEST(SgsModel, InactiveByDefault) {
    SgsModel sgs;
    EXPECT_FALSE(sgs.active());
    const Real g[3][3] = {{1, 2, 3}, {4, 5, 6}, {7, 8, 9}};
    EXPECT_EQ(sgs.eddyViscosity(g, 1.0, 0.1), 0.0);
}

TEST(SgsModel, ZeroForUniformFlowAndRotation) {
    SgsModel sgs{0.17, 0.9};
    const Real none[3][3] = {{0, 0, 0}, {0, 0, 0}, {0, 0, 0}};
    EXPECT_EQ(sgs.eddyViscosity(none, 1.0, 0.1), 0.0);
    // Solid-body rotation has antisymmetric gradient: S_ij = 0, nu_t = 0.
    const Real rot[3][3] = {{0, -1, 0}, {1, 0, 0}, {0, 0, 0}};
    EXPECT_NEAR(sgs.eddyViscosity(rot, 1.0, 0.1), 0.0, 1e-14);
}

TEST(SgsModel, MatchesAnalyticShearValue) {
    // Pure shear du/dy = s: |S| = s (2 * (s/2)^2 * 2 = s^2),
    // mu_t = rho (Cs D)^2 s.
    SgsModel sgs{0.17, 0.9};
    const Real s = 3.0;
    const Real g[3][3] = {{0, s, 0}, {0, 0, 0}, {0, 0, 0}};
    const Real rho = 1.2, delta = 0.05;
    EXPECT_NEAR(sgs.eddyViscosity(g, rho, delta),
                rho * 0.17 * 0.17 * delta * delta * s, 1e-12);
    EXPECT_NEAR(SgsModel::filterWidth(8.0), 2.0, 1e-12);
}

TEST(SgsModel, LesDampsCoarseTaylorGreenFasterThanDns) {
    // On an under-resolved Taylor-Green vortex the Smagorinsky model drains
    // resolved kinetic energy faster than molecular viscosity alone — the
    // LES mode's purpose (§II-A: 90% grid reduction relative to DNS).
    auto runKe = [&](Real cs) {
        problems::TaylorGreen tg(16, 400.0);
        auto cfg = tg.solverConfig();
        cfg.sgs.cs = cs;
        CroccoAmr solver(tg.geometry(), cfg, tg.mapping());
        solver.init(tg.initialCondition(), nullptr);
        solver.evolve(8);
        return problems::TaylorGreen::kineticEnergy(solver);
    };
    const Real keDns = runKe(0.0);
    const Real keLes = runKe(0.2);
    EXPECT_LT(keLes, keDns);
    EXPECT_GT(keLes, 0.2 * keDns); // but not absurdly dissipative
}

// ------------------------------------------------------------- Checkpoint

TEST(Checkpoint, RoundTripRestoresStateExactly) {
    problems::Dmr::Options o;
    o.nx = 64;
    o.ny = 16;
    o.nz = 8;
    o.maxLevel = 1;
    problems::Dmr dmr(o);
    const auto cfg = dmr.solverConfig(CodeVersion::V20);

    CroccoAmr a(dmr.geometry(), cfg, dmr.mapping());
    a.init(dmr.initialCondition(), dmr.boundaryConditions());
    a.evolve(3);
    const testing::TempDir tmp("crocco_ckpt_test");
    const std::string dir = tmp.path + "/chk";
    a.writeCheckpoint(dir);

    CroccoAmr b(dmr.geometry(), cfg, dmr.mapping());
    b.readCheckpoint(dir, dmr.initialCondition(), dmr.boundaryConditions());
    EXPECT_EQ(b.stepCount(), a.stepCount());
    EXPECT_DOUBLE_EQ(b.time(), a.time());
    ASSERT_EQ(b.finestLevel(), a.finestLevel());
    for (int lev = 0; lev <= a.finestLevel(); ++lev) {
        ASSERT_EQ(b.boxArray(lev), a.boxArray(lev));
        for (int n = 0; n < NCONS; ++n)
            EXPECT_EQ(amr::MultiFab::l2Diff(a.state(lev), b.state(lev), n), 0.0);
    }
}

TEST(Checkpoint, RestartContinuesIdentically) {
    problems::Dmr::Options o;
    o.nx = 64;
    o.ny = 16;
    o.nz = 8;
    o.maxLevel = 1;
    problems::Dmr dmr(o);
    auto cfg = dmr.solverConfig(CodeVersion::V20);
    cfg.regridFreq = 100; // avoid a regrid landing differently across the split

    // Uninterrupted run: 4 steps.
    CroccoAmr full(dmr.geometry(), cfg, dmr.mapping());
    full.init(dmr.initialCondition(), dmr.boundaryConditions());
    full.evolve(4);

    // Interrupted run: 2 steps, checkpoint, restore, 2 more.
    CroccoAmr first(dmr.geometry(), cfg, dmr.mapping());
    first.init(dmr.initialCondition(), dmr.boundaryConditions());
    first.evolve(2);
    const testing::TempDir tmp("crocco_ckpt_restart");
    const std::string dir = tmp.path + "/chk";
    first.writeCheckpoint(dir);
    CroccoAmr second(dmr.geometry(), cfg, dmr.mapping());
    second.readCheckpoint(dir, dmr.initialCondition(), dmr.boundaryConditions());
    second.evolve(2);

    EXPECT_DOUBLE_EQ(second.time(), full.time());
    for (int lev = 0; lev <= full.finestLevel(); ++lev) {
        for (int n = 0; n < NCONS; ++n) {
            // Exact restart: the checkpointed path must be bit-identical.
            EXPECT_EQ(amr::MultiFab::l2Diff(full.state(lev), second.state(lev), n),
                      0.0)
                << "lev " << lev << " comp " << n;
        }
    }
}

TEST(Checkpoint, RejectsCorruptHeader) {
    const testing::TempDir bad("crocco_ckpt_bad");
    std::ofstream(bad.path + "/header.txt") << "not-a-checkpoint 9\n";
    problems::Dmr dmr(problems::Dmr::Options{});
    CroccoAmr solver(dmr.geometry(), dmr.solverConfig(CodeVersion::V20),
                     dmr.mapping());
    EXPECT_THROW(solver.readCheckpoint(bad.path,
                                       dmr.initialCondition(),
                                       dmr.boundaryConditions()),
                 std::runtime_error);
    EXPECT_THROW(solver.readCheckpoint(bad.path + "/does_not_exist",
                                       dmr.initialCondition(),
                                       dmr.boundaryConditions()),
                 std::runtime_error);
}

} // namespace
} // namespace crocco::core
