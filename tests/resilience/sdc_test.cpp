// Unit coverage of the SDC subsystem (docs/resilience.md §6): the unified
// fault RNG, the seeded bit-flip injector, the FabGuard stamp/verify/repair
// cycle, the allocation canaries, and the RecoveryLog. Which rung each fault
// climbs to is pinned end to end by the soaks (sdc_soak_test).
#include "resilience/FabGuard.hpp"

#include "check/Check.hpp"
#include "gpu/Arena.hpp"
#include "parallel/CommFaults.hpp"
#include "resilience/FaultInjector.hpp"
#include "resilience/FaultRng.hpp"
#include "resilience/RecoveryLadder.hpp"
#include "resilience/SdcInjector.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <set>

namespace crocco::resilience {
namespace {

using amr::Box;
using amr::BoxArray;
using amr::DistributionMapping;
using amr::IntVect;
using amr::MultiFab;

std::vector<MultiFab> smallHierarchy(int ncomp = 2, int nghost = 1) {
    BoxArray ba({Box(IntVect::zero(), IntVect{7, 7, 7}),
                 Box(IntVect{8, 0, 0}, IntVect{15, 7, 7})});
    DistributionMapping dm(std::vector<int>{0, 0}, 1);
    std::vector<MultiFab> U;
    U.emplace_back(ba, dm, ncomp, nghost, nullptr);
    U[0].setVal(1.5);
    return U;
}

// ------------------------------------------------------------- FaultRng

TEST(FaultRng, SubstreamSeedsAreDeterministicAndDistinct) {
    const FaultRng rng(2026);
    EXPECT_EQ(rng.seedFor(FaultRng::kSdcStream),
              rng.seedFor(FaultRng::kSdcStream));
    // The three injector streams must never collide: enabling one injector
    // must not shift another's decision sequence.
    std::set<std::uint64_t> seeds{rng.seedFor(FaultRng::kCellStream),
                                  rng.seedFor(FaultRng::kCommStream),
                                  rng.seedFor(FaultRng::kSdcStream)};
    EXPECT_EQ(seeds.size(), 3u);
}

TEST(FaultRng, DifferentMastersGiveDifferentSubstreams) {
    EXPECT_NE(FaultRng(1).seedFor(FaultRng::kSdcStream),
              FaultRng(2).seedFor(FaultRng::kSdcStream));
    // Stable across processes/platforms: the derivation is pure arithmetic
    // over (master, name), so a recorded campaign replays exactly.
    EXPECT_EQ(FaultRng::substreamSeed(2026, FaultRng::kCommStream),
              FaultRng(2026).seedFor(FaultRng::kCommStream));
}

TEST(FaultRng, InjectorsAcceptTheUnifiedRng) {
    // The substream constructors mirror the legacy seeded constructors, so
    // the PR 6 soak (legacy seeds) and a unified campaign coexist.
    const FaultRng rng(7);
    FaultInjector cell(rng);
    parallel::CommFaults comm(rng);
    SdcInjector sdc(rng);
    EXPECT_EQ(cell.faultsFired(), 0);
    EXPECT_EQ(comm.stats().fired(), 0);
    EXPECT_EQ(sdc.stats().fired(), 0);
}

// ---------------------------------------------------------- SdcInjector

TEST(SdcInjector, DisabledConsumesNoRandomnessAndNeverFires) {
    auto U = smallHierarchy();
    SdcInjector inj(2026);
    inj.setColdRate(1.0); // would fire every fab if enabled
    inj.armColdFlip(0, 0, 0);
    for (int s = 0; s < 4; ++s) EXPECT_FALSE(inj.corruptCold(s, U, 0));
    EXPECT_EQ(inj.stats().decisions, 0);
    EXPECT_EQ(inj.stats().fired(), 0);
    EXPECT_DOUBLE_EQ(U[0].const_array(0)(0, 0, 0, 0), 1.5);
}

TEST(SdcInjector, ArmedColdFlipFiresOnceInTheValidRegion) {
    auto U = smallHierarchy();
    SdcInjector inj(2026);
    inj.setEnabled(true);
    inj.armColdFlip(3, 0, 1);
    EXPECT_FALSE(inj.corruptCold(2, U, 0));
    EXPECT_TRUE(inj.corruptCold(3, U, 0));
    EXPECT_FALSE(inj.corruptCold(3, U, 0)); // one-shot: spent
    EXPECT_EQ(inj.stats().coldFlips, 1);

    // Exactly one valid-region value changed, and a mantissa flip keeps it
    // finite (invisible to the NaN/Inf health checks — that is the point).
    int changed = 0;
    for (int f = 0; f < U[0].numFabs(); ++f) {
        auto a = U[0].const_array(f);
        amr::forEachCell(U[0].validBox(f), [&](int i, int j, int k) {
            for (int n = 0; n < 2; ++n)
                if (a(i, j, k, n) != 1.5) {
                    ++changed;
                    EXPECT_TRUE(std::isfinite(a(i, j, k, n)));
                }
        });
    }
    EXPECT_EQ(changed, 1);
}

TEST(SdcInjector, GhostFlipLeavesTheValidRegionUntouched) {
    auto U = smallHierarchy();
    SdcInjector inj(2026);
    inj.setEnabled(true);
    inj.armGhostFlip(1, 0, 0);
    EXPECT_TRUE(inj.corruptCold(1, U, 0));
    EXPECT_EQ(inj.stats().ghostFlips, 1);
    for (int f = 0; f < U[0].numFabs(); ++f) {
        auto a = U[0].const_array(f);
        amr::forEachCell(U[0].validBox(f), [&](int i, int j, int k) {
            for (int n = 0; n < 2; ++n) EXPECT_EQ(a(i, j, k, n), 1.5);
        });
    }
}

TEST(SdcInjector, ArmedStageFlipTargetsTheStageAndFab) {
    auto U = smallHierarchy();
    SdcInjector inj(2026);
    inj.setEnabled(true);
    inj.armStageFlip(5, 1, 0, 0);
    EXPECT_FALSE(inj.corruptStage(5, 0, 0, U[0])); // wrong stage
    EXPECT_FALSE(inj.corruptStage(4, 1, 0, U[0])); // wrong step
    EXPECT_TRUE(inj.corruptStage(5, 1, 0, U[0]));
    EXPECT_FALSE(inj.corruptStage(5, 1, 0, U[0])); // spent
    EXPECT_EQ(inj.stats().stageFlips, 1);
}

TEST(SdcInjector, ColdRateIsSeededAndDeterministic) {
    auto U1 = smallHierarchy();
    auto U2 = smallHierarchy();
    SdcInjector a(42), b(42);
    a.setEnabled(true);
    b.setEnabled(true);
    a.setColdRate(0.5);
    b.setColdRate(0.5);
    for (int s = 0; s < 16; ++s) EXPECT_EQ(a.corruptCold(s, U1, 0), b.corruptCold(s, U2, 0));
    EXPECT_EQ(a.stats().decisions, b.stats().decisions);
    EXPECT_GT(a.stats().decisions, 0);
    EXPECT_EQ(a.stats().coldFlips, b.stats().coldFlips);
}

// ------------------------------------------------------------- FabGuard

TEST(FabGuard, StampThenVerifyIsCleanUntilAFlipLands) {
    auto U = smallHierarchy();
    FabGuard guard;
    EXPECT_FALSE(guard.stamped());
    guard.stamp(U, 0);
    EXPECT_TRUE(guard.stamped());
    EXPECT_TRUE(guard.layoutMatches(U, 0));
    EXPECT_TRUE(guard.digestClean(U, 0));
    EXPECT_TRUE(guard.verify(U, 0).empty());
    EXPECT_GT(guard.guardedBytes(), 0);

    SdcInjector inj(2026);
    inj.setEnabled(true);
    inj.armColdFlip(0, 0, 1);
    inj.corruptCold(0, U, 0);

    const auto findings = guard.verify(U, 0);
    ASSERT_EQ(findings.size(), 1u);
    EXPECT_EQ(findings[0].level, 0);
    EXPECT_EQ(findings[0].fab, 1);
    EXPECT_EQ(guard.stats().crcMismatches, 1);
}

TEST(FabGuard, RestoreFabRepairsBitwiseFromTheRetainedCopy) {
    auto U = smallHierarchy();
    FabGuard guard;
    guard.stamp(U, 0);

    SdcInjector inj(2026);
    inj.setEnabled(true);
    inj.armColdFlip(0, 0, 0);
    inj.corruptCold(0, U, 0);
    ASSERT_FALSE(guard.verify(U, 0).empty());

    EXPECT_TRUE(guard.restoreFab(U, 0, 0));
    EXPECT_TRUE(guard.verify(U, 0).empty());
    EXPECT_EQ(guard.stats().fabRestores, 1);
    auto a = U[0].const_array(0);
    amr::forEachCell(U[0].validBox(0), [&](int i, int j, int k) {
        for (int n = 0; n < 2; ++n) EXPECT_EQ(a(i, j, k, n), 1.5);
    });
}

TEST(FabGuard, CorruptRetainedCopyRefusesToRestore) {
    // The restore source is CRC-checked before any byte of it overwrites
    // live state: a double fault escalates the ladder instead of silently
    // writing corruption back.
    auto U = smallHierarchy();
    FabGuard guard;
    guard.stamp(U, 0);
    guard.corruptRetained(0, 1);
    U[0].fab(1)(U[0].validBox(1).smallEnd(), 0) = -7.0; // live state corrupt too
    EXPECT_FALSE(guard.restoreFab(U, 0, 1));
    EXPECT_EQ(guard.stats().fabRestores, 0);
}

TEST(FabGuard, DigestScreenCatchesAdditiveCorruption) {
    auto U = smallHierarchy();
    FabGuard guard;
    guard.stamp(U, 0);
    // A large additive hit definitely moves the conserved sum; the digest
    // screen (cheap) flags the level before the CRC scan localizes it.
    U[0].fab(0)(U[0].validBox(0).smallEnd(), 0) += 1024.0;
    EXPECT_FALSE(guard.digestClean(U, 0));
    EXPECT_GE(guard.stats().digestMismatches, 1);
}

TEST(FabGuard, LayoutChangeInvalidatesStamps) {
    auto U = smallHierarchy();
    FabGuard guard;
    guard.stamp(U, 0);
    auto V = smallHierarchy(2, 2); // different ghost width => different fabs
    EXPECT_TRUE(guard.layoutMatches(U, 0));
    V.emplace_back(U[0].boxArray(), U[0].distributionMap(), 2, 1, nullptr);
    EXPECT_FALSE(guard.layoutMatches(V, 1)); // extra level
    guard.invalidate();
    EXPECT_FALSE(guard.stamped());
    EXPECT_TRUE(guard.verify(U, 0).empty()); // unstamped verify is a no-op
}

TEST(FabGuard, SampledFabRotatesOverEveryFab) {
    const int nf = 5;
    std::set<int> seen;
    for (int step = 0; step < 10; ++step)
        for (int stage = 0; stage < 3; ++stage) {
            const int f = FabGuard::sampledFab(step, stage, 0, nf);
            EXPECT_GE(f, 0);
            EXPECT_LT(f, nf);
            seen.insert(f);
        }
    EXPECT_EQ(seen.size(), static_cast<std::size_t>(nf));
    // Degenerate inputs must stay in range, not divide by zero.
    EXPECT_EQ(FabGuard::sampledFab(3, 1, 2, 1), 0);
}

TEST(FabGuard, BitwiseEqualSeesASingleBitFlip) {
    const Box b(IntVect::zero(), IntVect{3, 3, 3});
    amr::FArrayBox x(b, 2, 0.25), y(b, 2, 0.25);
    EXPECT_TRUE(FabGuard::bitwiseEqual(x, y, b, 2));
    y(IntVect{1, 2, 3}, 1) = std::nextafter(0.25, 1.0);
    EXPECT_FALSE(FabGuard::bitwiseEqual(x, y, b, 2));
}

// ----------------------------------------------------- allocation canary

/// The off-by-one overrun an unchecked kernel loop produces: a write one
/// cell past the box in i, at (hi[0] + 1, j, k, n). On the last row of the
/// last component that is, in Fortran order, exactly the element after the
/// payload — the guard slot. Check builds
/// stop the write in the bounds-checked accessor before it lands (asserted
/// here), so the overrun itself goes through the view's raw pointer at the
/// offset the unchecked accessor computes.
void overrunPastBox(const amr::Array4<amr::Real>& a, int j, int k, int n) {
    const int i = a.hi[0] + 1;
#ifdef CROCCO_CHECK
    {
        check::ScopedFailureCapture cap;
        a(i, j, k, n) = 0.0;
        EXPECT_EQ(cap.count(check::Kind::Bounds), 1u);
    }
#endif
    a.p[(i - a.lo[0]) + a.jstride * (j - a.lo[1]) + a.kstride * (k - a.lo[2]) +
        a.nstride * n] = 0.0;
}

TEST(ArenaCanary, FreshFabHasAnIntactCanary) {
    const Box b(IntVect::zero(), IntVect{3, 3, 3});
    amr::FArrayBox fab(b, 2, 1.0);
    EXPECT_TRUE(fab.canaryIntact());
    fab.setVal(-3.5); // payload writes never touch the guard slot
    EXPECT_TRUE(fab.canaryIntact());
}

TEST(ArenaCanary, OutOfBoxOverrunTripsTheCanary) {
    const Box b(IntVect::zero(), IntVect{3, 3, 3});
    amr::FArrayBox fab(b, 2, 1.0);
    overrunPastBox(fab.array(), b.bigEnd()[1], b.bigEnd()[2], 1);
    EXPECT_FALSE(fab.canaryIntact());
}

TEST(ArenaCanary, ScratchPoolDiscardsTrippedBuffersAndCountsThem) {
    auto& pool = gpu::ScratchPool::instance();
    pool.clear();
    pool.resetStats();
    const Box b(IntVect::zero(), IntVect{7, 0, 0});
    {
        auto lease = pool.acquire(b, 1);
        overrunPastBox(lease.fab().array(), 0, 0, 0);
    }
    EXPECT_EQ(pool.canaryTrips(), 1u);
    {
        // The corrupted buffer was discarded, not recycled: the next
        // acquire of the same shape is a miss, with a fresh canary.
        auto lease = pool.acquire(b, 1);
        EXPECT_TRUE(lease.fab().canaryIntact());
    }
    EXPECT_EQ(pool.misses(), 2u);
    EXPECT_EQ(pool.hits(), 0u);
    pool.clear();
    pool.resetStats();
}

// ------------------------------------------------------------ RecoveryLog

TEST(RecoveryLog, RecordsAndCountsEscalationDecisions) {
    RecoveryLog log;
    log.record(3, FaultClass::ColdSdc, Rung::FabRestore, true, "level 0 fab 2");
    log.record(5, FaultClass::ColdSdc, Rung::FabRestore, false, "copy corrupt");
    log.record(5, FaultClass::ColdSdc, Rung::BuddyRestore, true);
    EXPECT_EQ(log.events().size(), 3u);
    EXPECT_EQ(log.successes(Rung::FabRestore), 1);
    EXPECT_EQ(log.failures(Rung::FabRestore), 1);
    EXPECT_EQ(log.successes(Rung::BuddyRestore), 1);
    EXPECT_EQ(log.failures(Rung::DiskRestart), 0);
    const std::string dump = log.describeAll();
    EXPECT_NE(dump.find("fab restore"), std::string::npos);
    EXPECT_NE(dump.find("copy corrupt"), std::string::npos);
    log.clear();
    EXPECT_TRUE(log.events().empty());
}

} // namespace
} // namespace crocco::resilience
