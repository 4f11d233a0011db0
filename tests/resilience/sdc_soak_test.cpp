// SDC recovery soaks (docs/resilience.md §6): seeded bit-flip campaigns
// over a DMR run with regrids, one per ladder rung — fab-granular repair,
// step rollback via dual execution, buddy-mirror escalation, and the
// corrupted-mirror fall-through to disk — plus the combined chaos soak
// (SDC + message faults + rank death), and two checks of the recovery path
// itself: a buddy restore drops deeper live levels, and every RecoveryLog
// event carries the step its fault surfaced at. Every repaired run must end
// bitwise-identical to the fault-free run; with the guard off, the guard
// machinery must be bitwise-transparent. CROCCO_SDC_SEED varies the
// campaign seed (tools/ci.sh sweeps a small matrix; default 2026).
#include "resilience/SdcInjector.hpp"

#include "core/CroccoAmr.hpp"
#include "parallel/CommFaults.hpp"
#include "problems/Dmr.hpp"
#include "resilience/BuddyCheckpoint.hpp"
#include "resilience/FabGuard.hpp"
#include "resilience/FaultInjector.hpp"
#include "resilience/RecoveryLadder.hpp"
#include "resilience/RestartManager.hpp"

#include "FaultCampaign.hpp"
#include "RecoveryTrace.hpp"
#include "TempDir.hpp"

#include <gtest/gtest.h>

#include <filesystem>
#include <limits>
#include <memory>
#include <string>

namespace crocco::resilience {
namespace {

using amr::MultiFab;
using testing::Climb;
using testing::campaignSeed;
using testing::climbs;

problems::Dmr smallDmr() {
    problems::Dmr::Options o;
    o.nx = 32;
    o.ny = 8;
    o.nz = 8;
    o.maxLevel = 1;
    return problems::Dmr(o);
}

core::CroccoAmr::Config soakConfig(int nranks, bool guard) {
    auto cfg = smallDmr().solverConfig(core::CodeVersion::V20);
    cfg.nranks = nranks;
    cfg.regridFreq = 3; // several regrids inside a 10-step soak
    cfg.amrInfo.maxGridSize = 8;
    cfg.sdc.guard = guard;
    cfg.sdc.interval = 1; // verify every step: full cold-flip coverage
    cfg.sdc.sample = 0;
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

void expectBitwiseIdentical(const core::CroccoAmr& a,
                            const core::CroccoAmr& b) {
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

// With every resilience.sdc_* knob off, the solver must not take stamps,
// run verifies, or dual-execute — and with the guard on but no faults, the
// detection machinery must be bitwise-transparent.
TEST(SdcTransparency, GuardOnWithoutFaultsIsBitwiseIdenticalToGuardOff) {
    const int nsteps = 8;
    auto off = makeSolver(soakConfig(1, false), nullptr);
    off->evolve(nsteps);
    EXPECT_EQ(off->sdcGuard().stats().stamps, 0);
    EXPECT_EQ(off->sdcGuard().stats().verifies, 0);
    EXPECT_EQ(off->profiler().calls("SdcDualExec"), 0);
    EXPECT_TRUE(off->recoveryLog().events().empty());

    auto cfg = soakConfig(1, true);
    cfg.sdc.sample = 2; // dual-execute too: it must also be transparent
    auto on = makeSolver(cfg, nullptr);
    on->evolve(nsteps);
    EXPECT_GT(on->sdcGuard().stats().stamps, 0);
    EXPECT_GT(on->sdcGuard().stats().verifies, 0);
    EXPECT_GT(on->profiler().calls("SdcDualExec"), 0);
    EXPECT_EQ(on->sdcGuard().stats().crcMismatches, 0);
    // No dual-execution mismatch, nor any other fault, was recorded.
    EXPECT_TRUE(on->recoveryLog().events().empty());
    expectBitwiseIdentical(*on, *off);
}

// Rung 1 — FabRestore: a cold flip lands between steps, the step-start
// verify localizes it to one fab, and the retained copy repairs it in
// place. No rollback, no dt change, bitwise-identical trajectory.
TEST(SdcSoak, ColdFlipIsRepairedInPlace) {
    const int nsteps = 10;
    auto reference = makeSolver(soakConfig(1, false), nullptr);
    reference->evolve(nsteps);

    SdcInjector inj{FaultRng(campaignSeed())};
    inj.setEnabled(true);
    inj.armColdFlip(4, 0, 0);
    auto solver = makeSolver(soakConfig(1, true), nullptr);
    solver->setSdcInjector(&inj);
    solver->evolve(nsteps);

    EXPECT_EQ(inj.stats().coldFlips, 1);
    EXPECT_EQ(solver->recoveryLog().successes(Rung::FabRestore), 1);
    EXPECT_EQ(solver->rollbackCount(), 0);
    EXPECT_EQ(solver->sdcGuard().stats().crcMismatches, 1);
    EXPECT_EQ(climbs(solver->recoveryLog()),
              (std::vector<Climb>{{FaultClass::ColdSdc, Rung::FabRestore, true}}));
    expectBitwiseIdentical(*solver, *reference);
}

// Rung 2 — StepRollback: a flip in a stage RHS is caught by the sampled
// dual execution before the update consumes it; the step rolls back and
// replays clean at the same dt.
TEST(SdcSoak, StageFlipIsCaughtByDualExecutionAndRolledBack) {
    const int nsteps = 8;
    auto reference = makeSolver(soakConfig(1, false), nullptr);
    reference->evolve(nsteps);

    auto cfg = soakConfig(1, true);
    cfg.sdc.sample = 1; // dual-execute every step
    auto solver = makeSolver(cfg, nullptr);

    // Aim the flip at exactly the fab the dual execution will re-run.
    const int step = 4, stage = 1, level = 0;
    const int nf = reference->state(level).numFabs();
    const int target = FabGuard::sampledFab(step, stage, level, nf);
    SdcInjector inj{FaultRng(campaignSeed())};
    inj.setEnabled(true);
    inj.armStageFlip(step, stage, level, target);
    solver->setSdcInjector(&inj);
    solver->evolve(nsteps);

    EXPECT_EQ(inj.stats().stageFlips, 1);
    EXPECT_EQ(solver->rollbackCount(), 1);
    // One dual-execution mismatch: one KernelSdc rollback in the log.
    EXPECT_EQ(climbs(solver->recoveryLog()),
              (std::vector<Climb>{
                  {FaultClass::KernelSdc, Rung::StepRollback, true}}));
    expectBitwiseIdentical(*solver, *reference);
}

// Rung 3 — BuddyRestore: the cold flip's restore source is itself corrupt
// (double fault), so FabRestore fails and the ladder escalates past
// StepRollback (replaying the step would replay the corruption) to the
// buddy mirror.
TEST(SdcSoak, CorruptRetainedCopyEscalatesToBuddyMirror) {
    const int nsteps = 10, faultStep = 4;
    parallel::SimComm cleanComm(2);
    auto reference = makeSolver(soakConfig(2, false), &cleanComm);
    reference->evolve(nsteps);

    parallel::SimComm comm(2);
    auto solver = makeSolver(soakConfig(2, true), &comm);
    BuddyCheckpoint buddy;
    core::EvolveOptions opts;
    opts.buddy = &buddy;
    opts.buddyEvery = 1;

    solver->evolve(faultStep, opts);
    SdcInjector inj{FaultRng(campaignSeed())};
    inj.setEnabled(true);
    inj.armColdFlip(faultStep, 0, 0);
    solver->setSdcInjector(&inj);
    solver->sdcGuard().corruptRetained(0, 0);
    solver->evolve(nsteps - faultStep, opts);

    EXPECT_EQ(solver->recoveryLog().successes(Rung::FabRestore), 0);
    EXPECT_EQ(solver->recoveryLog().failures(Rung::FabRestore), 1);
    EXPECT_EQ(solver->recoveryLog().successes(Rung::BuddyRestore), 1);
    EXPECT_EQ(solver->recoveryLog().successes(Rung::StepRollback), 0);
    EXPECT_EQ(climbs(solver->recoveryLog()),
              (std::vector<Climb>{
                  {FaultClass::ColdSdc, Rung::FabRestore, false},
                  {FaultClass::ColdSdc, Rung::BuddyRestore, true}}));
    expectBitwiseIdentical(*solver, *reference);
}

// Rung 4 — DiskRestart: a rank dies and the buddy mirror fails its CRC
// verification (SDC hit partner memory), so recovery must refuse the
// mirror and fall through to the disk checkpoint. The negative test for
// BuddyCheckpoint::verifyMirror: the corrupt copy must never overwrite
// live state.
TEST(SdcSoak, CorruptBuddyMirrorFallsThroughToDiskRestart) {
    const testing::TempDir root("crocco_sdc_corrupt_mirror");
    const int nsteps = 10;
    parallel::SimComm cleanComm(4);
    auto reference = makeSolver(soakConfig(4, false), &cleanComm);
    reference->evolve(nsteps);

    parallel::SimComm comm(4);
    parallel::CommFaults faults;
    faults.armRankDeath(5, 2);
    comm.attachFaults(&faults);
    auto solver = makeSolver(soakConfig(4, true), &comm);

    RestartManager restart(root.path);
    BuddyCheckpoint buddy;
    core::EvolveOptions opts;
    opts.restart = &restart;
    opts.checkpointEvery = 2;
    opts.buddy = &buddy;
    opts.buddyEvery = 2;

    solver->evolve(4, opts);
    ASSERT_TRUE(buddy.valid());
    ASSERT_TRUE(buddy.verifyMirror());
    buddy.corruptMirror(0, 0);
    ASSERT_FALSE(buddy.verifyMirror());
    solver->evolve(nsteps - 4, opts);

    EXPECT_EQ(solver->recoveryLog().successes(Rung::BuddyRestore), 0);
    EXPECT_EQ(testing::count(solver->recoveryLog(), FaultClass::RankDeath, true),
              1);
    EXPECT_EQ(comm.size(), 3);
    // The refusal is recorded as a corrupt-restore-source event before the
    // disk rung runs.
    EXPECT_EQ(climbs(solver->recoveryLog()),
              (std::vector<Climb>{
                  {FaultClass::CheckpointCorrupt, Rung::BuddyRestore, false},
                  {FaultClass::RankDeath, Rung::BuddyRestore, false},
                  {FaultClass::RankDeath, Rung::DiskRestart, true}}));
    expectBitwiseIdentical(*solver, *reference);
}

// A restore makes the restored state the guard baseline. Without the
// re-stamp inside readCheckpoint, the guard still holds the stamps of the
// state the solver was in before the read; on a frozen hierarchy the
// layout matches, so the next step-start verify reports every fab as
// corrupt and "repairs" it from the retained pre-read copy, silently
// undoing the restore.
TEST(SdcSoak, ReadCheckpointBecomesTheGuardBaseline) {
    const testing::TempDir root("crocco_sdc_restamp_on_read");
    const std::string dir = root.path + "/step2";
    auto cfg = soakConfig(1, true);
    cfg.regridFreq = std::numeric_limits<int>::max(); // frozen after init
    auto dmr = smallDmr();

    auto solver = makeSolver(cfg, nullptr);
    solver->evolve(2);
    std::filesystem::create_directories(root.path);
    solver->writeCheckpoint(dir);
    solver->evolve(2);
    const auto stampsBefore = solver->sdcGuard().stats().stamps;
    solver->readCheckpoint(dir, dmr.initialCondition(), dmr.boundaryConditions());
    EXPECT_EQ(solver->sdcGuard().stats().stamps, stampsBefore + 1);
    solver->step();

    // A fresh solver's guard has no baseline to replace: the read stamps
    // nothing (no second copy of the state), and step() stamps at its end.
    core::CroccoAmr fresh(dmr.geometry(), cfg, dmr.mapping(), nullptr);
    fresh.readCheckpoint(dir, dmr.initialCondition(), dmr.boundaryConditions());
    EXPECT_FALSE(fresh.sdcGuard().stamped());
    fresh.step();

    EXPECT_EQ(solver->sdcGuard().stats().crcMismatches, 0);
    EXPECT_TRUE(solver->recoveryLog().events().empty());
    EXPECT_EQ(fresh.sdcGuard().stats().crcMismatches, 0);
    expectBitwiseIdentical(*solver, fresh);
}

// The combined chaos soak: cold SDC + kernel SDC + message drop/corrupt +
// one rank death, over a DMR run with regrids. Three ladder rungs fire in
// one campaign (FabRestore, StepRollback, BuddyRestore) and the run still
// ends bitwise-identical to the fault-free one. Run again with
// GPU_NUM_THREADS=8 as sdc_soak_test_mt.
TEST(SdcSoak, CombinedChaosCampaignEndsBitwiseIdentical) {
    const int nsteps = 10;
    parallel::SimComm cleanComm(4);
    auto reference = makeSolver(soakConfig(4, false), &cleanComm);
    reference->evolve(nsteps);

    const FaultRng rng(campaignSeed());
    parallel::SimComm comm(4);
    parallel::CommFaults faults(rng);
    parallel::CommFaults::Rates rates;
    rates.drop = 0.02;
    rates.corrupt = 0.02;
    faults.setRates(rates);
    faults.armRankDeath(7, 1);
    comm.attachFaults(&faults);

    auto cfg = soakConfig(4, true);
    cfg.sdc.sample = 1;
    auto solver = makeSolver(cfg, &comm);

    SdcInjector inj(rng);
    inj.setEnabled(true);
    inj.armColdFlip(4, 0, 0);
    const int nf = reference->state(0).numFabs();
    inj.armStageFlip(5, 2, 0, FabGuard::sampledFab(5, 2, 0, nf));
    solver->setSdcInjector(&inj);

    BuddyCheckpoint buddy;
    core::EvolveOptions opts;
    opts.buddy = &buddy;
    opts.buddyEvery = 2;
    solver->evolve(nsteps, opts);

    // Every injected fault fired and every rung it needed succeeded.
    EXPECT_EQ(inj.stats().coldFlips, 1);
    EXPECT_EQ(inj.stats().stageFlips, 1);
    EXPECT_EQ(faults.stats().rankDeaths, 1);
    EXPECT_GT(faults.stats().fired(), 1);
    EXPECT_EQ(solver->rollbackCount(), 1);
    const RecoveryLog& log = solver->recoveryLog();
    EXPECT_EQ(log.successes(Rung::FabRestore), 1);
    EXPECT_GE(log.successes(Rung::StepRollback), 1);
    EXPECT_EQ(log.successes(Rung::BuddyRestore), 1);
    EXPECT_EQ(climbs(log),
              (std::vector<Climb>{
                  {FaultClass::ColdSdc, Rung::FabRestore, true},
                  {FaultClass::KernelSdc, Rung::StepRollback, true},
                  {FaultClass::RankDeath, Rung::BuddyRestore, true}}));
    // Message faults were absorbed by the verified-exchange path.
    testing::expectWireAccountsForInjectedFaults(comm.log(), faults.stats());
    EXPECT_EQ(comm.size(), 3);
    expectBitwiseIdentical(*solver, *reference);
}

// A buddy restore adopts the snapshot's hierarchy whole: a live level
// above the snapshot's finest goes, layout included, as it does after a
// regrid or a readCheckpoint — a stale BoxArray left behind would still
// be read by anything walking boxArray(lev) up to maxLevel.
TEST(SdcSoak, BuddyRestoreLeavesNoLevelAboveTheSnapshotsFinest) {
    problems::Dmr::Options o;
    o.nx = 32;
    o.ny = 8;
    o.nz = 8;
    o.maxLevel = 2;
    const problems::Dmr dmr(o);
    auto cfg = dmr.solverConfig(core::CodeVersion::V20);
    cfg.regridFreq = std::numeric_limits<int>::max(); // only step 0 regrids
    cfg.sdc.guard = true;
    cfg.sdc.interval = 1;
    core::CroccoAmr solver(dmr.geometry(), cfg, dmr.mapping());
    solver.init(dmr.initialCondition(), dmr.boundaryConditions());
    solver.evolve(2);
    ASSERT_EQ(solver.finestLevel(), 2);

    // A two-level mirror of the three-level hierarchy.
    BuddyCheckpoint buddy;
    buddy.store({solver.state(0), solver.state(1)}, 1, solver.stepCount(),
                solver.time(), nullptr);
    // A cold flip whose retained copy is corrupt too escalates to it.
    SdcInjector inj{FaultRng(campaignSeed())};
    inj.setEnabled(true);
    inj.armColdFlip(2, 0, 0);
    solver.setSdcInjector(&inj);
    solver.sdcGuard().corruptRetained(0, 0);
    core::EvolveOptions opts;
    opts.buddy = &buddy; // buddyEvery 0: evolve() keeps this mirror
    solver.evolve(1, opts);

    EXPECT_EQ(climbs(solver.recoveryLog()),
              (std::vector<Climb>{
                  {FaultClass::ColdSdc, Rung::FabRestore, false},
                  {FaultClass::ColdSdc, Rung::BuddyRestore, true}}));
    EXPECT_EQ(solver.stepCount(), 3);
    EXPECT_EQ(solver.finestLevel(), 1);
    EXPECT_TRUE(solver.boxArray(2).empty());
    EXPECT_EQ(solver.state(2).numFabs(), 0);
    EXPECT_EQ(solver.coords(2).numFabs(), 0);
    EXPECT_EQ(solver.metrics(2).numFabs(), 0);
}

// Every recovery event carries the step at which its fault surfaced, also
// when the rung restores an older step: a health fault restored from an
// older buddy snapshot, a rank death restored from the same snapshot, and
// a health fault that finds the mirror corrupt and falls through to an
// older disk checkpoint. The run still ends bitwise-identical.
TEST(SdcSoak, RecoveryEventsCarryTheStepTheirFaultSurfacedAt) {
    const testing::TempDir root("crocco_sdc_event_steps");
    const int nsteps = 10;
    parallel::SimComm cleanComm(4);
    auto reference = makeSolver(soakConfig(4, false), &cleanComm);
    reference->evolve(nsteps);

    parallel::SimComm comm(4);
    parallel::CommFaults faults;
    faults.armRankDeath(7, 2);
    comm.attachFaults(&faults);
    auto cfg = soakConfig(4, true);
    cfg.guard.maxRetries = 0; // health faults leave step() at once
    auto solver = makeSolver(cfg, &comm);
    FaultInjector cells(31);
    cells.armCellCorruption(5, FaultInjector::Corruption::Infinity);
    cells.armCellCorruption(9, FaultInjector::Corruption::Infinity);
    solver->setFaultInjector(&cells);

    RestartManager restart(root.path);
    BuddyCheckpoint buddy;
    core::EvolveOptions opts;
    opts.restart = &restart;
    opts.checkpointEvery = 4;
    opts.buddy = &buddy;
    opts.buddyEvery = 4;
    opts.maxRecoveries = 3;
    solver->evolve(8, opts); // faults at 5 and 7; both restore step 4
    ASSERT_TRUE(buddy.valid()); // stored again at step 8
    buddy.corruptMirror(0, 0);
    solver->evolve(nsteps - 8, opts); // fault at 9 restores step 8 from disk

    using F = FaultClass;
    EXPECT_EQ(climbs(solver->recoveryLog()),
              (std::vector<Climb>{{F::HealthFault, Rung::StepRollback, false},
                                  {F::HealthFault, Rung::BuddyRestore, true},
                                  {F::RankDeath, Rung::BuddyRestore, true},
                                  {F::HealthFault, Rung::StepRollback, false},
                                  {F::CheckpointCorrupt, Rung::BuddyRestore, false},
                                  {F::HealthFault, Rung::BuddyRestore, false},
                                  {F::HealthFault, Rung::DiskRestart, true}}));
    std::vector<int> steps;
    for (const RecoveryEvent& e : solver->recoveryLog().events())
        steps.push_back(e.step);
    EXPECT_EQ(steps, (std::vector<int>{5, 5, 7, 9, 9, 9, 9}));
    EXPECT_EQ(cells.faultsFired(), 2);
    EXPECT_EQ(comm.size(), 3);
    expectBitwiseIdentical(*solver, *reference);
}

} // namespace
} // namespace crocco::resilience
