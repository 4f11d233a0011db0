#include "amr/FArrayBox.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <vector>

namespace crocco::amr {
namespace {

TEST(Array4, IndexingMatchesFortranLayout) {
    const Box b(IntVect{1, 2, 3}, IntVect{4, 5, 6});
    FArrayBox fab(b, 2);
    auto a = fab.array();
    a(1, 2, 3, 0) = 10.0;
    a(2, 2, 3, 0) = 11.0;
    a(1, 3, 3, 1) = 12.0;
    EXPECT_EQ(fab(IntVect{1, 2, 3}, 0), 10.0);
    EXPECT_EQ(fab(IntVect{2, 2, 3}, 0), 11.0);
    EXPECT_EQ(fab(IntVect{1, 3, 3}, 1), 12.0);
    // const view shares storage
    auto c = fab.const_array();
    EXPECT_EQ(c(2, 2, 3, 0), 11.0);
}

TEST(FArrayBox, SetValAndRegionSetVal) {
    const Box b(IntVect::zero(), IntVect(3));
    FArrayBox fab(b, 2, 1.0);
    EXPECT_EQ(fab.sum(b, 0), 64.0);
    fab.setVal(2.0);
    EXPECT_EQ(fab.sum(b, 1), 128.0);
    fab.setVal(5.0, Box(IntVect::zero(), IntVect(1)), 0, 1);
    EXPECT_EQ(fab.sum(b, 0), 2.0 * (64 - 8) + 5.0 * 8);
    EXPECT_EQ(fab.max(b, 0), 5.0);
    EXPECT_EQ(fab.min(b, 0), 2.0);
}

TEST(FArrayBox, CopyFromWithShift) {
    const Box src(IntVect::zero(), IntVect(3));
    FArrayBox a(src, 1);
    auto aa = a.array();
    forEachCell(src, [&](int i, int j, int k) { aa(i, j, k, 0) = i + 10 * j + 100 * k; });
    const Box dstBox(IntVect{10, 10, 10}, IntVect{13, 13, 13});
    FArrayBox b(dstBox, 1);
    // b(p) = a(p + shift), shift maps dst indices onto src.
    b.copyFrom(a, dstBox, 0, 0, 1, IntVect{-10, -10, -10});
    EXPECT_EQ(b(IntVect{10, 10, 10}), 0.0);
    EXPECT_EQ(b(IntVect{13, 12, 11}), 3 + 20 + 100);
}

TEST(FArrayBox, Saxpy) {
    const Box b(IntVect::zero(), IntVect(2));
    FArrayBox x(b, 1, 2.0), y(b, 1, 3.0);
    y.saxpy(0.5, x, b, 0, 0, 1);
    EXPECT_DOUBLE_EQ(y(IntVect::zero()), 4.0);
}

TEST(FArrayBox, L2Diff) {
    const Box b(IntVect::zero(), IntVect(3));
    FArrayBox x(b, 1, 1.0), y(b, 1, 1.0);
    EXPECT_EQ(FArrayBox::l2Diff(x, y, b, 0), 0.0);
    y(IntVect{1, 1, 1}) = 4.0;
    EXPECT_DOUBLE_EQ(FArrayBox::l2Diff(x, y, b, 0), 3.0);
}

// The storage contract: the (box, ncomp[, v]) constructor is the one that
// fills; resize() leaves new storage unfilled, as a device allocation is,
// and re-stamps only the trailing allocation canary.
TEST(FArrayBox, ConstructorsFillEveryElement) {
    const Box b(IntVect{-2, -1, 0}, IntVect{5, 6, 7});
    {
        // Leave a non-zero pattern on the heap where the next fabs of this
        // size are likely to land.
        FArrayBox dirty, dirty2;
        dirty.resize(b, 3);
        dirty2.resize(b, 3);
        dirty.setVal(-7.25);
        dirty2.setVal(-7.25);
    }
    const FArrayBox zero(b, 3);
    const FArrayBox filled(b, 3, 2.5);
    for (int n = 0; n < 3; ++n) {
        EXPECT_EQ(zero.min(b, n), 0.0) << "comp " << n;
        EXPECT_EQ(zero.max(b, n), 0.0) << "comp " << n;
        EXPECT_EQ(filled.min(b, n), 2.5) << "comp " << n;
        EXPECT_EQ(filled.max(b, n), 2.5) << "comp " << n;
    }
    EXPECT_TRUE(zero.canaryIntact());
    EXPECT_TRUE(filled.canaryIntact());
}

TEST(FArrayBox, ResizeKeepsTheCanaryOnGrowthAndShrink) {
    const Box small(IntVect::zero(), IntVect(3));
    const Box large(IntVect{-1, -1, -1}, IntVect(9));
    FArrayBox fab;
    fab.resize(small, 2);
    EXPECT_TRUE(fab.canaryIntact());
    EXPECT_EQ(fab.size(), small.numPts() * 2);
    fab.setVal(1.0);
    fab.resize(large, 2); // growth: new storage, the canary moves to its end
    EXPECT_TRUE(fab.canaryIntact());
    EXPECT_EQ(fab.size(), large.numPts() * 2);
    fab.setVal(1.0);
    fab.resize(small, 1); // shrink: the old canary slot lies past the end
    EXPECT_TRUE(fab.canaryIntact());
    EXPECT_EQ(fab.size(), small.numPts());
    fab.setVal(-1.0); // payload writes never touch the guard slot
    EXPECT_TRUE(fab.canaryIntact());
    EXPECT_EQ(fab.box(), small);
    EXPECT_EQ(fab.nComp(), 1);
}

/// Every stored element of `f` as bits: the payload, then the canary.
std::vector<std::uint64_t> storedBits(const FArrayBox& f) {
    const Real* p = f.const_array().p;
    std::vector<std::uint64_t> out;
    for (std::int64_t e = 0; e <= f.size(); ++e)
        out.push_back(std::bit_cast<std::uint64_t>(p[e]));
    return out;
}

TEST(FArrayBox, CopiesAreBitForBitCanaryIncluded) {
    const Box b(IntVect{-2, -1, 0}, IntVect{5, 6, 7});
    FArrayBox src;
    src.resize(b, 3);
    auto a = src.array();
    for (int n = 0; n < 3; ++n)
        forEachCell(b, [&](int i, int j, int k) {
            a(i, j, k, n) = 0.25 * i - 1.5 * j + k + 100.0 * n;
        });
    a(-2, -1, 0, 0) = -0.0;
    a(5, 6, 7, 2) = std::numeric_limits<Real>::quiet_NaN();

    const FArrayBox copy(src);
    EXPECT_EQ(copy.box(), b);
    EXPECT_EQ(copy.nComp(), 3);
    EXPECT_EQ(storedBits(copy), storedBits(src));
    EXPECT_TRUE(copy.canaryIntact());

    // A tripped canary is copied as it is, and assignment into fabs of
    // other sizes, larger and smaller, leaves the same bits.
    src.array().p[src.size()] = 1.0;
    ASSERT_FALSE(src.canaryIntact());
    FArrayBox bigger(b.grow(2), 5, 9.0);
    FArrayBox smaller(Box(IntVect::zero(), IntVect(1)), 1, 9.0);
    bigger = src;
    smaller = src;
    for (const FArrayBox* f : {&bigger, &smaller}) {
        EXPECT_EQ(f->box(), b);
        EXPECT_EQ(f->nComp(), 3);
        EXPECT_EQ(storedBits(*f), storedBits(src));
        EXPECT_FALSE(f->canaryIntact());
    }
}

} // namespace
} // namespace crocco::amr
