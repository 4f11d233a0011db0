#include "resilience/BuddyCheckpoint.hpp"
#include "resilience/FaultInjector.hpp"
#include "resilience/Health.hpp"
#include "resilience/RestartManager.hpp"

#include "core/CroccoAmr.hpp"
#include "problems/Dmr.hpp"

#include "RecoveryTrace.hpp"
#include "TempDir.hpp"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <sstream>

namespace crocco::resilience {
namespace {

namespace fs = std::filesystem;
using core::CroccoAmr;
using testing::Climb;
using testing::climbs;

/// Rewrite a checkpoint's header as format v1, which has no CRC and byte
/// count columns in its level records and is not read any more.
void rewriteHeaderAsV1(const std::string& dir) {
    std::ifstream in(dir + "/header.txt");
    std::ostringstream v1;
    std::string line;
    std::getline(in, line); // magic + version
    v1 << "crocco-checkpoint 1\n";
    std::getline(in, line); // time step finest
    v1 << line << '\n';
    int finest = 0;
    {
        std::istringstream ls(line);
        double t;
        int s;
        ls >> t >> s >> finest;
    }
    for (int lev = 0; lev <= finest; ++lev) {
        std::getline(in, line); // nboxes crc nbytes  ->  nboxes
        std::istringstream ls(line);
        int nboxes = 0;
        ls >> nboxes;
        v1 << nboxes << '\n';
        for (int i = 0; i < nboxes; ++i) {
            std::getline(in, line);
            v1 << line << '\n';
        }
    }
    in.close();
    std::ofstream(dir + "/header.txt") << v1.str();
}

// --------------------------------------------------- manager housekeeping

TEST(RestartManager, RejectsNonPositiveKeepLast) {
    const testing::TempDir root("crocco_rm_bad");
    EXPECT_THROW(RestartManager(root.path, 0), std::invalid_argument);
}

TEST(RestartManager, DirNamingAndStepParsing) {
    const testing::TempDir root("crocco_rm_names");
    RestartManager rm(root.path);
    EXPECT_EQ(rm.dirFor(42), root.path + "/chk000042");
    EXPECT_EQ(RestartManager::stepOf(rm.dirFor(42)), 42);
    EXPECT_EQ(RestartManager::stepOf(root.path + "/notachk"), -1);
}

TEST(RestartManager, WritePrunesToKeepLastNewestFirst) {
    const testing::TempDir root("crocco_rm_prune");
    RestartManager rm(root.path, 2);
    auto dummyWriter = [](const std::string& dir) {
        fs::create_directories(dir);
        std::ofstream(dir + "/header.txt") << "crocco-checkpoint 1\n";
    };
    for (int s : {1, 5, 9}) rm.write(s, dummyWriter);
    const auto avail = rm.available();
    ASSERT_EQ(avail.size(), 2u);
    EXPECT_EQ(RestartManager::stepOf(avail[0]), 9);
    EXPECT_EQ(RestartManager::stepOf(avail[1]), 5);
    EXPECT_FALSE(fs::exists(rm.dirFor(1)));
}

// ------------------------------------------------ solver-backed fixtures

problems::Dmr testDmr(int maxLevel = 1) {
    problems::Dmr::Options o;
    o.nx = 32;
    o.ny = 8;
    o.nz = 8;
    o.maxLevel = maxLevel;
    return problems::Dmr(o);
}

void expectBitwiseEqual(const CroccoAmr& a, const CroccoAmr& b) {
    ASSERT_EQ(a.finestLevel(), b.finestLevel());
    EXPECT_EQ(a.stepCount(), b.stepCount());
    EXPECT_EQ(a.time(), b.time());
    for (int lev = 0; lev <= a.finestLevel(); ++lev) {
        ASSERT_EQ(a.boxArray(lev), b.boxArray(lev));
        for (int n = 0; n < core::NCONS; ++n)
            EXPECT_EQ(amr::MultiFab::l2Diff(a.state(lev), b.state(lev), n), 0.0)
                << "lev " << lev << " comp " << n;
    }
}

TEST(RestartManager, AtomicWriteLeavesNoStagingDirBehind) {
    const testing::TempDir root("crocco_rm_atomic");
    auto dmr = testDmr(0);
    CroccoAmr solver(dmr.geometry(), dmr.solverConfig(core::CodeVersion::V20),
                     dmr.mapping());
    solver.init(dmr.initialCondition(), dmr.boundaryConditions());
    RestartManager rm(root.path);
    const std::string dir =
        rm.write(0, [&](const std::string& d) { solver.writeCheckpoint(d); });
    EXPECT_TRUE(fs::exists(dir + "/header.txt"));
    EXPECT_FALSE(fs::exists(dir + ".writing"));
    EXPECT_TRUE(RestartManager::verify(dir));
}

TEST(RestartManager, VerifyNamesFlippedByteAndTruncation) {
    const testing::TempDir root("crocco_rm_verify");
    auto dmr = testDmr(0);
    CroccoAmr solver(dmr.geometry(), dmr.solverConfig(core::CodeVersion::V20),
                     dmr.mapping());
    solver.init(dmr.initialCondition(), dmr.boundaryConditions());
    solver.writeCheckpoint(root.path + "/chk");
    ASSERT_TRUE(RestartManager::verify(root.path + "/chk"));

    // Flip one byte in the level payload: CRC must catch it.
    const std::string bin = root.path + "/chk/level0.bin";
    {
        std::fstream f(bin, std::ios::in | std::ios::out | std::ios::binary);
        f.seekp(100);
        char c = 0;
        f.seekg(100).read(&c, 1);
        c = static_cast<char>(c ^ 0x01);
        f.seekp(100).write(&c, 1);
    }
    std::string why;
    EXPECT_FALSE(RestartManager::verify(root.path + "/chk", &why));
    EXPECT_NE(why.find("CRC32"), std::string::npos);
    EXPECT_NE(why.find("level0.bin"), std::string::npos);

    // A truncated level file fails on length before checksum.
    fs::resize_file(bin, fs::file_size(bin) - 8);
    EXPECT_FALSE(RestartManager::verify(root.path + "/chk", &why));
    EXPECT_NE(why.find("level0.bin"), std::string::npos);

    // A format-v1 header carries no checksums to verify against: rejected.
    solver.writeCheckpoint(root.path + "/chk1");
    rewriteHeaderAsV1(root.path + "/chk1");
    EXPECT_FALSE(RestartManager::verify(root.path + "/chk1", &why));
    EXPECT_NE(why.find("version"), std::string::npos) << why;
}

TEST(Checkpoint, TruncatedLevelFileThrowsNamingLevelAndFile) {
    // Satellite regression: a short read / EOF mid-record must raise
    // CheckpointCorruption naming the truncated file, not garbage state.
    const testing::TempDir root("crocco_ckpt_trunc");
    auto dmr = testDmr(1);
    const auto cfg = dmr.solverConfig(core::CodeVersion::V20);
    CroccoAmr a(dmr.geometry(), cfg, dmr.mapping());
    a.init(dmr.initialCondition(), dmr.boundaryConditions());
    a.evolve(2);
    const std::string dir = root.path + "/chk";
    a.writeCheckpoint(dir);
    ASSERT_GE(a.finestLevel(), 1);
    const std::string bin = dir + "/level1.bin";
    fs::resize_file(bin, fs::file_size(bin) / 2);

    CroccoAmr b(dmr.geometry(), cfg, dmr.mapping());
    try {
        b.readCheckpoint(dir, dmr.initialCondition(), dmr.boundaryConditions());
        FAIL() << "expected CheckpointCorruption";
    } catch (const CheckpointCorruption& e) {
        const std::string msg = e.what();
        EXPECT_NE(msg.find("level1.bin"), std::string::npos) << msg;
        EXPECT_NE(msg.find("truncated"), std::string::npos) << msg;
    }
    // Phase-1 verification failed, so no solver state was touched.
    EXPECT_EQ(b.stepCount(), 0);

    // An intact payload under a format-v1 header is refused the same way:
    // it carries no CRCs, so nothing would check it before it is trusted.
    const std::string v1 = root.path + "/chk_v1";
    a.writeCheckpoint(v1);
    rewriteHeaderAsV1(v1);
    EXPECT_THROW(
        b.readCheckpoint(v1, dmr.initialCondition(), dmr.boundaryConditions()),
        std::runtime_error);
    EXPECT_EQ(b.stepCount(), 0);
    EXPECT_EQ(b.finestLevel(), 0);
    EXPECT_TRUE(b.boxArray(0).empty());
}

TEST(RestartManager, FallsBackToPreviousGoodCheckpointOnByteFlip) {
    // Acceptance: flip one byte in the newest checkpoint's level data. The
    // manager must detect the CRC mismatch, skip it, and restore the previous
    // good checkpoint bitwise-equal to the state at its write time.
    const testing::TempDir root("crocco_rm_fallback");
    auto dmr = testDmr(1);
    const auto cfg = dmr.solverConfig(core::CodeVersion::V20);
    CroccoAmr solver(dmr.geometry(), cfg, dmr.mapping());
    solver.init(dmr.initialCondition(), dmr.boundaryConditions());
    RestartManager rm(root.path, 2);

    solver.evolve(2);
    rm.write(solver.stepCount(),
             [&](const std::string& d) { solver.writeCheckpoint(d); });
    // Reference copy of the good checkpoint's state, loaded back right now.
    CroccoAmr ref(dmr.geometry(), cfg, dmr.mapping());
    ref.readCheckpoint(rm.dirFor(2), dmr.initialCondition(),
                       dmr.boundaryConditions());

    solver.evolve(2);
    rm.write(solver.stepCount(),
             [&](const std::string& d) { solver.writeCheckpoint(d); });

    // Corrupt the newest checkpoint with a single flipped bit.
    const std::string bin = rm.dirFor(4) + "/level0.bin";
    std::fstream f(bin, std::ios::in | std::ios::out | std::ios::binary);
    char c = 0;
    f.seekg(64).read(&c, 1);
    c = static_cast<char>(c ^ 0x80);
    f.seekp(64).write(&c, 1);
    f.close();
    ASSERT_FALSE(RestartManager::verify(rm.dirFor(4)));

    CroccoAmr restored(dmr.geometry(), cfg, dmr.mapping());
    const std::string used = rm.restoreLatest([&](const std::string& d) {
        restored.readCheckpoint(d, dmr.initialCondition(),
                                dmr.boundaryConditions());
    });
    EXPECT_EQ(used, rm.dirFor(2));
    expectBitwiseEqual(ref, restored);
}

TEST(RestartManager, RestoreLatestThrowsListingAllCorruptCheckpoints) {
    const testing::TempDir root("crocco_rm_allbad");
    RestartManager rm(root.path, 2);
    auto badWriter = [](const std::string& dir) {
        fs::create_directories(dir);
        std::ofstream(dir + "/header.txt") << "crocco-checkpoint 2\n0 0 0\n";
    };
    rm.write(1, badWriter);
    rm.write(2, badWriter);
    try {
        rm.restoreLatest([](const std::string&) {});
        FAIL() << "expected runtime_error";
    } catch (const std::runtime_error& e) {
        const std::string msg = e.what();
        EXPECT_NE(msg.find("chk000001"), std::string::npos) << msg;
        EXPECT_NE(msg.find("chk000002"), std::string::npos) << msg;
    }
}

TEST(Checkpoint, RoundTripAcrossRegridBoundaryMatchesUninterruptedRun) {
    // Satellite: checkpoint lands right before a regrid fires (regridFreq 3,
    // checkpoint at step 3, so the restored run's first step regrids).
    // The restored run must be bitwise identical to the uninterrupted one.
    auto dmr = testDmr(1);
    auto cfg = dmr.solverConfig(core::CodeVersion::V20);
    cfg.regridFreq = 3;

    CroccoAmr full(dmr.geometry(), cfg, dmr.mapping());
    full.init(dmr.initialCondition(), dmr.boundaryConditions());
    full.evolve(5);
    const auto fullTotals = full.conservedTotals();

    const testing::TempDir root("crocco_ckpt_regrid");
    CroccoAmr first(dmr.geometry(), cfg, dmr.mapping());
    first.init(dmr.initialCondition(), dmr.boundaryConditions());
    first.evolve(3);
    first.writeCheckpoint(root.path + "/chk");

    CroccoAmr second(dmr.geometry(), cfg, dmr.mapping());
    second.readCheckpoint(root.path + "/chk", dmr.initialCondition(),
                          dmr.boundaryConditions());
    second.evolve(2); // regrids immediately: step 3 % 3 == 0

    expectBitwiseEqual(full, second);
    const auto totals = second.conservedTotals();
    for (int n = 0; n < core::NCONS; ++n)
        EXPECT_EQ(totals[static_cast<std::size_t>(n)],
                  fullTotals[static_cast<std::size_t>(n)]);
}

TEST(Checkpoint, ReadDropsLevelsAboveTheCheckpointsFinest) {
    // A checkpoint of a two-level run read into a running three-level
    // solver: level 2 must not outlive the read with its old boxes and data.
    const testing::TempDir root("crocco_ckpt_shallow");
    auto dmr1 = testDmr(1);
    CroccoAmr writer(dmr1.geometry(), dmr1.solverConfig(core::CodeVersion::V20),
                     dmr1.mapping());
    writer.init(dmr1.initialCondition(), dmr1.boundaryConditions());
    writer.evolve(2);
    ASSERT_EQ(writer.finestLevel(), 1);
    const std::string dir = root.path + "/chk";
    writer.writeCheckpoint(dir);

    auto dmr2 = testDmr(2);
    auto cfg = dmr2.solverConfig(core::CodeVersion::V20);
    cfg.regridFreq = 1; // the next step rebuilds level 2 from the restore
    CroccoAmr running(dmr2.geometry(), cfg, dmr2.mapping());
    running.init(dmr2.initialCondition(), dmr2.boundaryConditions());
    ASSERT_EQ(running.finestLevel(), 2);
    running.readCheckpoint(dir, dmr2.initialCondition(), dmr2.boundaryConditions());
    EXPECT_EQ(running.finestLevel(), 1);
    EXPECT_TRUE(running.boxArray(2).empty());
    EXPECT_EQ(running.state(2).numFabs(), 0);
    EXPECT_EQ(running.coords(2).numFabs(), 0);
    EXPECT_EQ(running.metrics(2).numFabs(), 0);

    CroccoAmr fresh(dmr2.geometry(), cfg, dmr2.mapping());
    fresh.readCheckpoint(dir, dmr2.initialCondition(), dmr2.boundaryConditions());
    running.step();
    fresh.step();
    EXPECT_EQ(running.finestLevel(), 2);
    expectBitwiseEqual(running, fresh);
}

TEST(Evolve, AutoRecoversFromDivergenceViaCheckpoint) {
    // With no retry budget, a one-shot corruption turns straight into
    // SolverDivergence; evolve() must restore the newest checkpoint and
    // replay (the transient fault is spent, so the replay runs clean).
    const testing::TempDir root("crocco_rm_recover");
    auto dmr = testDmr(0);
    auto cfg = dmr.solverConfig(core::CodeVersion::V20);
    cfg.guard.maxRetries = 0;
    CroccoAmr solver(dmr.geometry(), cfg, dmr.mapping());
    solver.init(dmr.initialCondition(), dmr.boundaryConditions());

    FaultInjector inj(77);
    inj.armCellCorruption(3, FaultInjector::Corruption::Infinity);
    solver.setFaultInjector(&inj);

    RestartManager rm(root.path, 2);
    core::EvolveOptions opts;
    opts.restart = &rm;
    opts.checkpointEvery = 2;
    solver.evolve(4, opts);

    EXPECT_EQ(solver.stepCount(), 4);
    EXPECT_EQ(solver.recoveryLog().successes(Rung::DiskRestart), 1);
    EXPECT_EQ(solver.rollbackCount(), 0); // guard had no retry budget
    // The buddy rung, tried first, has no mirror to restore from.
    EXPECT_EQ(climbs(solver.recoveryLog()),
              (std::vector<Climb>{
                  {FaultClass::HealthFault, Rung::StepRollback, false},
                  {FaultClass::HealthFault, Rung::BuddyRestore, false},
                  {FaultClass::HealthFault, Rung::DiskRestart, true}}));
    EXPECT_EQ(inj.faultsFired(), 1);
    // Matches a run that never failed at all.
    CroccoAmr clean(dmr.geometry(), cfg, dmr.mapping());
    clean.init(dmr.initialCondition(), dmr.boundaryConditions());
    clean.evolve(4);
    expectBitwiseEqual(clean, solver);
}

TEST(Evolve, RethrowsWhenRecoveryBudgetExhausted) {
    const testing::TempDir root("crocco_rm_budget");
    auto dmr = testDmr(0);
    auto cfg = dmr.solverConfig(core::CodeVersion::V20);
    cfg.guard.maxRetries = 0;
    CroccoAmr solver(dmr.geometry(), cfg, dmr.mapping());
    solver.init(dmr.initialCondition(), dmr.boundaryConditions());

    FaultInjector inj(78);
    inj.armPersistentCorruption(2); // re-fires after every restore
    solver.setFaultInjector(&inj);

    RestartManager rm(root.path, 2);
    core::EvolveOptions opts;
    opts.restart = &rm;
    opts.checkpointEvery = 1;
    opts.maxRecoveries = 2;
    EXPECT_THROW(solver.evolve(4, opts), SolverDivergence);
    EXPECT_EQ(solver.recoveryLog().successes(Rung::DiskRestart), 2);
    EXPECT_EQ(solver.stepCount(), 2); // rolled back to the pre-step snapshot
    // Two restores and replays, then the spent budget ends the escalation.
    const Climb rollback{FaultClass::HealthFault, Rung::StepRollback, false};
    const Climb noMirror{FaultClass::HealthFault, Rung::BuddyRestore, false};
    const Climb disk{FaultClass::HealthFault, Rung::DiskRestart, true};
    EXPECT_EQ(climbs(solver.recoveryLog()),
              (std::vector<Climb>{rollback, noMirror, disk, rollback, noMirror,
                                  disk, rollback,
                                  {FaultClass::HealthFault, Rung::Abort, false}}));
}

TEST(Evolve, UnrestorableDiskCheckpointRethrowsTheFault) {
    // The disk rung is tried and fails (no checkpoint was ever written):
    // the failure is logged and the caller gets the fault itself back,
    // not the restart manager's error.
    const testing::TempDir root("crocco_rm_unrestorable");
    auto dmr = testDmr(0);
    auto cfg = dmr.solverConfig(core::CodeVersion::V20);
    cfg.guard.maxRetries = 0;
    CroccoAmr solver(dmr.geometry(), cfg, dmr.mapping());
    solver.init(dmr.initialCondition(), dmr.boundaryConditions());

    FaultInjector inj(77);
    inj.armCellCorruption(3, FaultInjector::Corruption::Infinity);
    solver.setFaultInjector(&inj);

    RestartManager rm(root.path, 2);
    core::EvolveOptions opts;
    opts.restart = &rm; // checkpointEvery 0: nothing to restore
    EXPECT_THROW(solver.evolve(5, opts), SolverDivergence);
    EXPECT_EQ(solver.stepCount(), 3);
    EXPECT_EQ(climbs(solver.recoveryLog()),
              (std::vector<Climb>{
                  {FaultClass::HealthFault, Rung::StepRollback, false},
                  {FaultClass::HealthFault, Rung::BuddyRestore, false},
                  {FaultClass::HealthFault, Rung::DiskRestart, false}}));
    EXPECT_NE(solver.recoveryLog().events().back().detail.find(
                  "no restorable checkpoint"),
              std::string::npos);
}

TEST(Evolve, HealthFaultRecoversFromTheBuddyMirror) {
    // A fault that leaves step() climbs to the buddy mirror before disk,
    // whatever its class: here a health fault with no retry budget and no
    // restart manager attached restores the verified mirror and replays.
    auto dmr = testDmr(0);
    auto cfg = dmr.solverConfig(core::CodeVersion::V20);
    cfg.guard.maxRetries = 0;
    CroccoAmr solver(dmr.geometry(), cfg, dmr.mapping());
    solver.init(dmr.initialCondition(), dmr.boundaryConditions());

    FaultInjector inj(77);
    inj.armCellCorruption(3, FaultInjector::Corruption::Infinity);
    solver.setFaultInjector(&inj);

    BuddyCheckpoint buddy;
    core::EvolveOptions opts;
    opts.buddy = &buddy;
    opts.buddyEvery = 1;
    solver.evolve(5, opts);

    EXPECT_EQ(solver.stepCount(), 5);
    EXPECT_EQ(inj.faultsFired(), 1);
    EXPECT_EQ(climbs(solver.recoveryLog()),
              (std::vector<Climb>{
                  {FaultClass::HealthFault, Rung::StepRollback, false},
                  {FaultClass::HealthFault, Rung::BuddyRestore, true}}));
    CroccoAmr clean(dmr.geometry(), cfg, dmr.mapping());
    clean.init(dmr.initialCondition(), dmr.boundaryConditions());
    clean.evolve(5);
    expectBitwiseEqual(clean, solver);
}

} // namespace
} // namespace crocco::resilience
