// Rank-death recovery (docs/resilience.md §5): in-memory buddy
// checkpointing, ULFM-style communicator shrink + box redistribution, the
// disk-restart fallback, and the acceptance soak — a seeded fault campaign
// (drop + corrupt + rank death) over a full DMR run with regrids whose
// final solution is bitwise-identical to the fault-free run, and whose
// wire traffic accounts exactly for every injected message fault.
// CROCCO_SDC_SEED varies the campaign seed (tools/ci.sh sweeps a small
// matrix; default 2026).
#include "resilience/BuddyCheckpoint.hpp"

#include "core/CroccoAmr.hpp"
#include "parallel/CommFaults.hpp"
#include "problems/Dmr.hpp"
#include "resilience/RestartManager.hpp"

#include "FaultCampaign.hpp"
#include "RecoveryTrace.hpp"
#include "TempDir.hpp"

#include <gtest/gtest.h>

#include <string>

namespace crocco::resilience {
namespace {

using amr::Box;
using amr::BoxArray;
using amr::DistributionMapping;
using amr::IntVect;
using amr::MultiFab;
using testing::Climb;
using testing::climbs;

// ---------------------------------------------------------- BuddyCheckpoint

std::vector<MultiFab> twoRankHierarchy(parallel::SimComm* comm) {
    const Box domain(IntVect::zero(), IntVect{15, 7, 7});
    BoxArray ba({Box(IntVect::zero(), IntVect{7, 7, 7}),
                 Box(IntVect{8, 0, 0}, IntVect{15, 7, 7})});
    DistributionMapping dm(std::vector<int>{0, 1}, 2);
    std::vector<MultiFab> U;
    U.emplace_back(ba, dm, 2, 1, comm);
    U[0].setVal(3.25);
    return U;
}

TEST(BuddyCheckpoint, PartnerRingCoversEverySingleFailure) {
    // rank r's replica lives on (r + 1) % n, so for every possible dead
    // rank a distinct partner holds the copy.
    for (int n = 2; n <= 5; ++n)
        for (int r = 0; r < n; ++r) {
            const int p = BuddyCheckpoint::partnerOf(r, n);
            EXPECT_NE(p, r);
            EXPECT_GE(p, 0);
            EXPECT_LT(p, n);
        }
    // n == 1 degenerates: the only rank is its own partner, so no single
    // failure is coverable.
    EXPECT_EQ(BuddyCheckpoint::partnerOf(0, 1), 0);
}

TEST(BuddyCheckpoint, StoreSnapshotsStateAndRecordsMirrorTraffic) {
    parallel::SimComm comm(2);
    auto U = twoRankHierarchy(&comm);
    BuddyCheckpoint buddy;
    EXPECT_FALSE(buddy.valid());
    EXPECT_FALSE(buddy.canRecover(0));

    buddy.store(U, 0, 7, 0.125, &comm);
    EXPECT_TRUE(buddy.valid());
    EXPECT_EQ(buddy.step(), 7);
    EXPECT_DOUBLE_EQ(buddy.time(), 0.125);
    EXPECT_EQ(buddy.finestLevel(), 0);
    EXPECT_EQ(buddy.nranks(), 2);
    EXPECT_TRUE(buddy.canRecover(0));
    EXPECT_TRUE(buddy.canRecover(1));
    EXPECT_FALSE(buddy.canRecover(2)); // out of range
    // Each fab's valid-region bytes crossed to the partner.
    const std::int64_t perFab = 8 * 8 * 8 * 2 * sizeof(amr::Real);
    EXPECT_EQ(buddy.mirroredBytes(), 2 * perFab);
    EXPECT_EQ(comm.log().count(), 2u);
    for (const auto& m : comm.log().messages()) {
        EXPECT_EQ(m.tag, "BuddyCheckpoint");
        EXPECT_EQ(m.bytes, perFab);
    }

    // The snapshot is a deep copy: mutating the live state afterwards must
    // not leak into it.
    U[0].setVal(-1.0);
    EXPECT_DOUBLE_EQ(buddy.level(0).const_array(0)(0, 0, 0, 0), 3.25);

    buddy.invalidate();
    EXPECT_FALSE(buddy.valid());
    EXPECT_FALSE(buddy.canRecover(0));
}

TEST(BuddyCheckpoint, DoubleFaultDefeatsTheReplicaUntilTheNextStore) {
    parallel::SimComm comm(2);
    auto U = twoRankHierarchy(&comm);
    BuddyCheckpoint buddy;
    buddy.store(U, 0, 1, 0.0, &comm);
    buddy.dropReplicaOf(0);
    EXPECT_FALSE(buddy.canRecover(0)); // replica lost with the partner
    EXPECT_TRUE(buddy.canRecover(1));  // the other direction is intact
    buddy.store(U, 0, 2, 0.0, &comm);  // fresh snapshot clears the mark
    EXPECT_TRUE(buddy.canRecover(0));
}

// --------------------------------------------------------- DMR soak fixture

problems::Dmr smallDmr() {
    problems::Dmr::Options o;
    o.nx = 32;
    o.ny = 8;
    o.nz = 8;
    o.maxLevel = 1;
    return problems::Dmr(o);
}

core::CroccoAmr::Config soakConfig(int nranks) {
    auto cfg = smallDmr().solverConfig(core::CodeVersion::V20);
    cfg.nranks = nranks;
    cfg.regridFreq = 3; // several regrids inside a 10-step soak
    // Small boxes so every rank owns several and ghost exchanges cross
    // ranks — with the default max_grid_size 32 this hierarchy collapses
    // to a couple of boxes, all on rank 0, and nothing for the fault
    // injector (or the dead rank) to bite on.
    cfg.amrInfo.maxGridSize = 8;
    return cfg;
}

std::unique_ptr<core::CroccoAmr> makeSolver(const core::CroccoAmr::Config& cfg,
                                            parallel::SimComm* comm) {
    auto dmr = smallDmr();
    auto solver = std::make_unique<core::CroccoAmr>(dmr.geometry(), cfg,
                                                    dmr.mapping(), comm);
    solver->init(dmr.initialCondition(), dmr.boundaryConditions());
    return solver;
}

void expectBitwiseIdentical(const core::CroccoAmr& a, const core::CroccoAmr& b) {
    ASSERT_EQ(a.stepCount(), b.stepCount());
    ASSERT_EQ(a.time(), b.time());
    ASSERT_EQ(a.finestLevel(), b.finestLevel());
    for (int lev = 0; lev <= a.finestLevel(); ++lev) {
        const MultiFab& ua = a.state(lev);
        const MultiFab& ub = b.state(lev);
        ASSERT_EQ(ua.boxArray().size(), ub.boxArray().size()) << "level " << lev;
        for (int f = 0; f < ua.numFabs(); ++f) {
            ASSERT_EQ(ua.validBox(f), ub.validBox(f));
            auto x = ua.const_array(f);
            auto y = ub.const_array(f);
            for (int n = 0; n < core::NCONS; ++n)
                amr::forEachCell(ua.validBox(f), [&](int i, int j, int k) {
                    ASSERT_EQ(x(i, j, k, n), y(i, j, k, n))
                        << "level " << lev << " fab " << f << " comp " << n
                        << " (" << i << "," << j << "," << k << ")";
                });
        }
    }
}

// ------------------------------------------------------- rank-death recovery

TEST(RankRecovery, BuddyRestoreAfterMidRunRankDeathIsBitwiseIdentical) {
    const int nsteps = 10;
    parallel::SimComm cleanComm(4);
    auto reference = makeSolver(soakConfig(4), &cleanComm);
    reference->evolve(nsteps);

    parallel::SimComm comm(4);
    parallel::CommFaults faults;
    faults.armRankDeath(5, 2);
    comm.attachFaults(&faults);
    auto solver = makeSolver(soakConfig(4), &comm);

    BuddyCheckpoint buddy;
    core::EvolveOptions opts;
    opts.buddy = &buddy;
    opts.buddyEvery = 2;
    solver->evolve(nsteps, opts);

    EXPECT_EQ(solver->recoveryLog().successes(Rung::BuddyRestore), 1);
    EXPECT_EQ(solver->recoveryLog().successes(Rung::DiskRestart), 0);
    EXPECT_EQ(climbs(solver->recoveryLog()),
              (std::vector<Climb>{
                  {FaultClass::RankDeath, Rung::BuddyRestore, true}}));
    EXPECT_EQ(comm.size(), 3); // shrunk over the survivors
    EXPECT_EQ(faults.stats().rankDeaths, 1);
    // The dead rank's boxes were adopted from the partner copy.
    std::size_t recoveryMsgs = 0, mirrorMsgs = 0;
    for (const auto& m : comm.log().messages()) {
        if (m.tag == "RankRecovery") ++recoveryMsgs;
        if (m.tag == "BuddyCheckpoint") ++mirrorMsgs;
    }
    EXPECT_GT(recoveryMsgs, 0u);
    EXPECT_GT(mirrorMsgs, 0u);
    // Replay from the buddy snapshot converges on the exact fault-free
    // trajectory: the numerics are ownership-independent.
    expectBitwiseIdentical(*solver, *reference);
}

TEST(RankRecovery, WithoutABuddyCopyRecoveryFallsBackToDisk) {
    const testing::TempDir root("crocco_comm_recovery_disk");
    const int nsteps = 8;
    parallel::SimComm cleanComm(4);
    auto reference = makeSolver(soakConfig(4), &cleanComm);
    reference->evolve(nsteps);

    parallel::SimComm comm(4);
    parallel::CommFaults faults;
    faults.armRankDeath(4, 1);
    comm.attachFaults(&faults);
    auto solver = makeSolver(soakConfig(4), &comm);

    RestartManager restart(root.path);
    core::EvolveOptions opts;
    opts.restart = &restart;
    opts.checkpointEvery = 2;
    solver->evolve(nsteps, opts);

    EXPECT_EQ(solver->recoveryLog().successes(Rung::BuddyRestore), 0);
    EXPECT_EQ(solver->recoveryLog().successes(Rung::DiskRestart), 1);
    EXPECT_EQ(testing::count(solver->recoveryLog(), FaultClass::RankDeath, true),
              1);
    EXPECT_EQ(climbs(solver->recoveryLog()),
              (std::vector<Climb>{
                  {FaultClass::RankDeath, Rung::BuddyRestore, false},
                  {FaultClass::RankDeath, Rung::DiskRestart, true}}));
    EXPECT_EQ(comm.size(), 3);
    // The disk checkpoint stores exact binary state, so the replay is
    // bitwise-identical too (the restored mappings exclude the dead rank).
    expectBitwiseIdentical(*solver, *reference);
}

TEST(RankRecovery, DeathWithNoRecoveryPathPropagatesRankFailure) {
    parallel::SimComm comm(2);
    parallel::CommFaults faults;
    faults.armRankDeath(1, 0);
    comm.attachFaults(&faults);
    auto solver = makeSolver(soakConfig(2), &comm);
    core::EvolveOptions opts; // no buddy, no restart
    opts.maxRecoveries = 0;
    EXPECT_THROW(solver->evolve(4, opts), parallel::RankFailure);
    // The spent budget refuses the escalation before any rung is tried.
    EXPECT_EQ(climbs(solver->recoveryLog()),
              (std::vector<Climb>{{FaultClass::RankDeath, Rung::Abort, false}}));
}

// ------------------------------------------------------------ the full soak

TEST(CommFaultSoak, SeededCampaignWithRegridsEndsBitwiseIdentical) {
    // Acceptance gate: drop + corrupt + duplicate + delay rates on every
    // ghost/ParallelCopy payload, plus a rank death mid-run, over a DMR run
    // long enough to regrid several times. Every message fault must be
    // transparently recovered and the rank death repaired from the buddy
    // copy — the final solution must match the fault-free run bit for bit.
    const int nsteps = 10;
    parallel::SimComm cleanComm(4);
    auto reference = makeSolver(soakConfig(4), &cleanComm);
    reference->evolve(nsteps);

    parallel::SimComm comm(4);
    parallel::CommFaults faults(testing::campaignSeed());
    parallel::CommFaults::Rates rates;
    rates.drop = 0.02;
    rates.duplicate = 0.01;
    rates.delay = 0.01;
    rates.corrupt = 0.02;
    faults.setRates(rates);
    faults.armRankDeath(5, 1);
    comm.attachFaults(&faults);
    auto solver = makeSolver(soakConfig(4), &comm);

    const testing::TempDir root("crocco_comm_recovery_soak");
    RestartManager restart(root.path);
    BuddyCheckpoint buddy;
    core::EvolveOptions opts;
    opts.restart = &restart;
    opts.checkpointEvery = 4;
    opts.buddy = &buddy;
    opts.buddyEvery = 2;
    solver->evolve(nsteps, opts);

    // The campaign actually fired, message faults and the death included.
    EXPECT_GT(faults.stats().fired(), faults.stats().rankDeaths);
    EXPECT_EQ(faults.stats().rankDeaths, 1);
    EXPECT_EQ(solver->recoveryLog().successes(Rung::BuddyRestore), 1);
    EXPECT_EQ(climbs(solver->recoveryLog()),
              (std::vector<Climb>{
                  {FaultClass::RankDeath, Rung::BuddyRestore, true}}));
    EXPECT_GT(faults.stats().decisions, 0);
    testing::expectWireAccountsForInjectedFaults(comm.log(), faults.stats());
    expectBitwiseIdentical(*solver, *reference);
}

} // namespace
} // namespace crocco::resilience
