#include "check/Check.hpp"

#include "amr/MultiFab.hpp"
#include "gpu/Arena.hpp"

#include <gtest/gtest.h>

#include <cmath>

// Core CroccoCheck behavior: failure plumbing, NaN poisoning, and the
// Array4 bounds + ghost-validity checkers. Everything here needs the
// instrumented accessors, so the suite self-skips in unchecked builds.

namespace crocco {
namespace {

using amr::Box;
using amr::BoxArray;
using amr::DistributionMapping;
using amr::FArrayBox;
using amr::Geometry;
using amr::IntVect;
using amr::MultiFab;
using amr::Real;

TEST(CheckCore, PoisonValueIsSignalingNaNPattern) {
    const double p = check::poisonValue();
    EXPECT_TRUE(std::isnan(p));
    // Arithmetic must stay NaN so an escaped uninitialized value propagates
    // to any result computed from it.
    EXPECT_TRUE(std::isnan(p * 2.0 + 1.0));
}

TEST(CheckCore, ArenaPoisonFreshMatchesBuildMode) {
    double buf[4] = {1.0, 2.0, 3.0, 4.0};
    gpu::Arena::poisonFresh(buf, 4);
    for (double v : buf) {
        if (check::enabled) {
            EXPECT_TRUE(std::isnan(v));
        } else {
            EXPECT_FALSE(std::isnan(v));
        }
    }
}

#ifdef CROCCO_CHECK

TEST(CheckCore, CaptureCollectsAndNests) {
    check::ScopedFailureCapture outer;
    check::fail(check::Kind::Bounds, "outer-1");
    {
        check::ScopedFailureCapture inner;
        check::fail(check::Kind::Race, "inner-1");
        EXPECT_EQ(inner.count(), 1u);
        EXPECT_EQ(inner.count(check::Kind::Race), 1u);
    }
    // Violations raised inside the inner scope never leak to the outer one.
    EXPECT_EQ(outer.count(), 1u);
    EXPECT_EQ(outer.violations()[0].message, "outer-1");
    EXPECT_EQ(check::mode(), check::Mode::Capture);
    outer.clear();
    EXPECT_EQ(outer.count(), 0u);
}

TEST(CheckBounds, OutOfBoxReadFires) {
    FArrayBox fab(Box(IntVect(0), IntVect(3)), 2);
    check::ScopedFailureCapture cap;
    auto a = fab.const_array();
    (void)a(4, 0, 0, 0); // i past hi
    (void)a(0, 0, 0, 2); // comp past ncomp
    ASSERT_EQ(cap.count(check::Kind::Bounds), 2u);
    const auto v = cap.violations();
    EXPECT_NE(v[0].message.find("(4,0,0)"), std::string::npos) << v[0].message;
    EXPECT_NE(v[0].message.find("check_test.cpp"), std::string::npos)
        << "callsite missing: " << v[0].message;
}

TEST(CheckBounds, OutOfBoxWriteGoesToDummyCell) {
    FArrayBox fab(Box(IntVect(0), IntVect(3)), 1, 7.0);
    check::ScopedFailureCapture cap;
    auto a = fab.array();
    a(-1, 0, 0) = 123.0; // lands in the sentinel, not the fab
    EXPECT_EQ(cap.count(check::Kind::Bounds), 1u);
    EXPECT_EQ(fab(IntVect{0, 0, 0}), 7.0);
}

TEST(CheckBoundsDeathTest, AbortsOutsideCapture) {
    FArrayBox fab(Box(IntVect(0), IntVect(3)), 1);
    auto a = fab.const_array();
    EXPECT_DEATH((void)a(9, 9, 9, 0), "CROCCO_CHECK \\[bounds\\]");
}

TEST(CheckValidity, BareFabIsFullyValid) {
    // Bare fabs (kernel scratch) are value-initialized: reading any cell,
    // ghosts included, is legitimate.
    FArrayBox fab(Box(IntVect(0), IntVect(3)).grow(2), 1);
    check::ScopedFailureCapture cap;
    auto a = fab.const_array();
    (void)a(-2, -2, -2, 0);
    EXPECT_EQ(cap.count(), 0u);
}

TEST(CheckValidity, NeverFilledMultiFabCellFiresOnRead) {
    BoxArray ba(Box(IntVect(0), IntVect(7)));
    DistributionMapping dm(ba, 1);
    MultiFab mf(ba, dm, 2, 2);
    check::ScopedFailureCapture cap;
    (void)mf.const_array(0)(0, 0, 0, 0); // valid region, never written
    ASSERT_EQ(cap.count(check::Kind::Uninit), 1u);
    EXPECT_NE(cap.violations()[0].message.find("never-filled"),
              std::string::npos);
    // The backing storage really is poisoned, not just shadow-flagged.
    EXPECT_TRUE(std::isnan(mf.fab(0).shadowMap().defined()
                               ? mf.const_array(0)(0, 0, 0, 0)
                               : 0.0));
}

TEST(CheckValidity, WriteMarksCellValidForLaterReads) {
    BoxArray ba(Box(IntVect(0), IntVect(7)));
    DistributionMapping dm(ba, 1);
    MultiFab mf(ba, dm, 1, 2);
    check::ScopedFailureCapture cap;
    mf.array(0)(3, 3, 3, 0) = 1.5;
    EXPECT_EQ(mf.const_array(0)(3, 3, 3, 0), 1.5);
    EXPECT_EQ(cap.count(), 0u);
    // Only that (cell, comp) became valid.
    (void)mf.const_array(0)(3, 3, 4, 0);
    EXPECT_EQ(cap.count(check::Kind::Uninit), 1u);
}

TEST(CheckValidity, SetValMarksEverythingValid) {
    BoxArray ba(Box(IntVect(0), IntVect(7)));
    DistributionMapping dm(ba, 1);
    MultiFab mf(ba, dm, 2, 3);
    mf.setVal(0.25);
    check::ScopedFailureCapture cap;
    (void)mf.const_array(0)(-3, -3, -3, 1); // deepest ghost corner
    EXPECT_EQ(cap.count(), 0u);
}

TEST(CheckValidity, FillBoundaryValidatesExchangedGhosts) {
    // Two abutting fabs, fully periodic domain: every ghost cell is covered
    // by a sibling/periodic image, so after fillBoundary all ghosts of the
    // written MultiFab must be readable.
    const Box domain(IntVect(0), IntVect{15, 7, 7});
    Geometry geom(domain, {0, 0, 0}, {1, 1, 1}, amr::Periodicity::all());
    BoxArray ba(std::vector<Box>{Box(IntVect(0), IntVect{7, 7, 7}),
                                 Box(IntVect{8, 0, 0}, IntVect{15, 7, 7})});
    DistributionMapping dm(ba, 1);
    // Fill only the valid regions so the ghost transition is observable.
    MultiFab mf2(ba, dm, 1, 2);
    for (int f = 0; f < mf2.numFabs(); ++f) {
        auto a = mf2.array(f);
        amr::forEachCell(mf2.validBox(f),
                         [&](int i, int j, int k) { a(i, j, k, 0) = i + j + k; });
    }
    {
        check::ScopedFailureCapture cap;
        (void)mf2.const_array(0)(-1, 0, 0, 0);
        ASSERT_EQ(cap.count(check::Kind::Uninit), 1u) << "ghost before exchange";
    }
    mf2.fillBoundary(geom);
    check::ScopedFailureCapture cap;
    for (int f = 0; f < mf2.numFabs(); ++f) {
        auto a = mf2.const_array(f);
        amr::forEachCell(mf2.grownBox(f),
                         [&](int i, int j, int k) { (void)a(i, j, k, 0); });
    }
    EXPECT_EQ(cap.count(), 0u);
}

TEST(CheckValidity, InvalidateGhostsTurnsValidGhostsStale) {
    const Box domain(IntVect(0), IntVect(7));
    Geometry geom(domain, {0, 0, 0}, {1, 1, 1}, amr::Periodicity::all());
    BoxArray ba(domain);
    DistributionMapping dm(ba, 1);
    MultiFab mf(ba, dm, 1, 2);
    for (int f = 0; f < mf.numFabs(); ++f) {
        auto a = mf.array(f);
        amr::forEachCell(mf.validBox(f),
                         [&](int i, int j, int k) { a(i, j, k, 0) = 1.0; });
    }
    mf.fillBoundary(geom);
    using State = check::FabShadow::State;
    ASSERT_EQ(mf.fab(0).shadowMap().state(-1, 0, 0, 0), State::Valid);
    mf.invalidateGhosts();
    EXPECT_EQ(mf.fab(0).shadowMap().state(-1, 0, 0, 0), State::Stale);
    EXPECT_EQ(mf.fab(0).shadowMap().state(0, 0, 0, 0), State::Valid)
        << "valid region must not be touched";
    check::ScopedFailureCapture cap;
    (void)mf.const_array(0)(-1, 0, 0, 0);
    ASSERT_EQ(cap.count(check::Kind::StaleGhost), 1u);
    EXPECT_NE(cap.violations()[0].message.find("stale"), std::string::npos);
    // A fresh exchange re-validates.
    mf.fillBoundary(geom);
    cap.clear();
    (void)mf.const_array(0)(-1, 0, 0, 0);
    EXPECT_EQ(cap.count(), 0u);
}

TEST(CheckValidity, ScratchPoolRepoisonsRecycledLeases) {
    // Kernel scratch is leased from the ScratchPool and recycled across
    // launches and RK3 stages. A consumer reading a cell the current lease
    // has not yet written must abort in check builds — i.e. the pool
    // re-poisons recycled storage on every acquire, so a stale value from
    // the previous holder can never be read silently. Every acquire is
    // FArrayBox::resize + markUninitialized, the pair viscousFlux's
    // unfilled scratch uses too, so a fresh lease trips on such a read as
    // well.
    const Box box(IntVect(0, 0, 0), IntVect(7, 7, 7));
    {
        auto lease = gpu::ScratchPool::instance().acquire(box, 8);
        {
            check::ScopedFailureCapture cap;
            (void)lease.fab().const_array()(3, 3, 3, 4);
            EXPECT_EQ(cap.count(check::Kind::Uninit), 1u)
                << "fresh scratch storage must start poisoned";
        }
        auto a = lease.fab().array();
        a(3, 3, 3, 4) = 1.0; // the previous holder writes...
        EXPECT_EQ(lease.fab().const_array()(3, 3, 3, 4), 1.0);
    } // ...and its lease returns to the free list
    auto lease = gpu::ScratchPool::instance().acquire(box, 8);
    check::ScopedFailureCapture cap;
    (void)lease.fab().const_array()(3, 3, 3, 4);
    EXPECT_EQ(cap.count(check::Kind::Uninit), 1u)
        << "recycled scratch storage must be re-poisoned on acquire";
}

#else // !CROCCO_CHECK

TEST(CheckCore, DisabledBuildSkipsInstrumentedSuites) {
    GTEST_SKIP() << "CroccoCheck suites require -DCROCCO_CHECK=ON";
}

#endif

} // namespace
} // namespace crocco
