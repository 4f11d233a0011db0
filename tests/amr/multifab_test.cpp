#include "amr/MultiFab.hpp"

#include <gtest/gtest.h>

#include <cmath>

namespace crocco::amr {
namespace {

/// A globally defined smooth-ish test field that is periodic on [0, n) in
/// any periodic dimension (integer lattice function).
double field(const IntVect& p, const Box& domain, const Periodicity& per, int comp) {
    IntVect q = p;
    for (int d = 0; d < 3; ++d) {
        if (per.isPeriodic(d)) {
            const int n = domain.length(d);
            q[d] = ((q[d] % n) + n) % n;
        }
    }
    return comp + std::sin(0.3 * q[0]) + 2.0 * std::cos(0.5 * q[1]) + 0.1 * q[2] * q[2];
}

std::vector<Box> tiledBoxes(const Box& domain, int size) {
    std::vector<Box> out;
    forEachCell(domain.coarsen(size), [&](int i, int j, int k) {
        const IntVect lo = IntVect{i, j, k} * size;
        out.emplace_back(lo, lo + IntVect(size - 1));
    });
    return out;
}

struct FillBoundaryCase {
    Periodicity per;
    int ngrow;
};

class FillBoundaryTest : public ::testing::TestWithParam<FillBoundaryCase> {};

TEST_P(FillBoundaryTest, GhostsMatchGlobalField) {
    const auto [per, ng] = GetParam();
    const Box domain(IntVect::zero(), IntVect(15));
    Geometry geom(domain, {0, 0, 0}, {1, 1, 1}, per);
    BoxArray ba(tiledBoxes(domain, 8));
    DistributionMapping dm(ba, 3);
    parallel::SimComm comm(3);
    MultiFab mf(ba, dm, 2, ng, &comm);

    for (int f = 0; f < mf.numFabs(); ++f) {
        auto a = mf.array(f);
        for (int n = 0; n < 2; ++n)
            forEachCell(mf.validBox(f), [&](int i, int j, int k) {
                a(i, j, k, n) = field({i, j, k}, domain, per, n);
            });
    }
    mf.fillBoundary(geom);

    // Every ghost cell whose (periodically wrapped) image lies in the
    // domain must equal the global field; cells outside stay untouched.
    for (int f = 0; f < mf.numFabs(); ++f) {
        auto a = mf.const_array(f);
        for (int n = 0; n < 2; ++n)
            forEachCell(mf.grownBox(f), [&](int i, int j, int k) {
                IntVect p{i, j, k};
                bool reachable = true;
                for (int d = 0; d < 3; ++d) {
                    if (!per.isPeriodic(d) &&
                        (p[d] < domain.smallEnd(d) || p[d] > domain.bigEnd(d)))
                        reachable = false;
                }
                if (!reachable) return;
                EXPECT_DOUBLE_EQ(a(i, j, k, n), field(p, domain, per, n))
                    << "fab " << f << " cell " << p << " comp " << n;
            });
    }
    // Off-rank ghost exchanges were logged as point-to-point messages.
    EXPECT_GT(comm.log().summarize().p2p, 0u);
}

INSTANTIATE_TEST_SUITE_P(
    Cases, FillBoundaryTest,
    ::testing::Values(FillBoundaryCase{Periodicity::none(), 2},
                      FillBoundaryCase{Periodicity::none(), 4},
                      FillBoundaryCase{Periodicity::all(), 2},
                      FillBoundaryCase{Periodicity::all(), 4},
                      FillBoundaryCase{{{false, false, true}}, 3}));

TEST(MultiFab, SetValMinMaxSumNorm) {
    const Box domain(IntVect::zero(), IntVect(7));
    BoxArray ba(tiledBoxes(domain, 4));
    DistributionMapping dm(ba, 2);
    MultiFab mf(ba, dm, 1, 0);
    mf.setVal(3.0);
    EXPECT_DOUBLE_EQ(mf.sum(0), 3.0 * 512);
    EXPECT_DOUBLE_EQ(mf.min(0), 3.0);
    EXPECT_DOUBLE_EQ(mf.max(0), 3.0);
    EXPECT_NEAR(mf.norm2(0), 3.0 * std::sqrt(512.0), 1e-12);
}

TEST(MultiFab, CopyAndSaxpyAndMult) {
    const Box domain(IntVect::zero(), IntVect(7));
    BoxArray ba(tiledBoxes(domain, 4));
    DistributionMapping dm(ba, 2);
    MultiFab a(ba, dm, 2, 1), b(ba, dm, 2, 1);
    a.setVal(2.0);
    b.setVal(0.0);
    MultiFab::copy(b, a, 0, 0, 2, 1);
    EXPECT_DOUBLE_EQ(b.sum(1), 2.0 * 512);
    MultiFab::saxpy(b, 3.0, a, 0, 0, 2);
    EXPECT_DOUBLE_EQ(b.sum(0), 8.0 * 512);
    b.mult(0.5, 0, 1, 0);
    EXPECT_DOUBLE_EQ(b.sum(0), 4.0 * 512);
    EXPECT_DOUBLE_EQ(b.sum(1), 8.0 * 512);
    // Ghost scaling is opt-in via the explicit scope parameter: the valid
    // sum halves again while the ghost ring (filled below) also scales.
    b.fillBoundary(Geometry(domain, {0, 0, 0}, {1, 1, 1}, Periodicity::all()));
    b.mult(0.5, 0, 1, 1);
    EXPECT_DOUBLE_EQ(b.sum(0), 2.0 * 512);
    auto arr = b.const_array(0);
    const Box grown = b.grownBox(0);
    EXPECT_DOUBLE_EQ(arr(grown.smallEnd(0), grown.smallEnd(1), grown.smallEnd(2), 0),
                     2.0);
}

TEST(MultiFab, ParallelCopyAcrossLayouts) {
    const Box domain(IntVect::zero(), IntVect(15));
    Geometry geom(domain, {0, 0, 0}, {1, 1, 1});
    // Source: 8-tiles; destination: one box offset inside the domain with
    // ghosts, different distribution.
    BoxArray srcBa(tiledBoxes(domain, 8));
    DistributionMapping srcDm(srcBa, 4);
    parallel::SimComm comm(4);
    MultiFab src(srcBa, srcDm, 1, 0, &comm);
    for (int f = 0; f < src.numFabs(); ++f) {
        auto a = src.array(f);
        forEachCell(src.validBox(f), [&](int i, int j, int k) {
            a(i, j, k, 0) = field({i, j, k}, domain, {}, 0);
        });
    }
    BoxArray dstBa(Box(IntVect(4), IntVect(11)));
    DistributionMapping dstDm(dstBa, 4);
    MultiFab dst(dstBa, dstDm, 1, 2, &comm);
    dst.setVal(-1.0);
    dst.parallelCopy(src, 0, 0, 1, 2, 0, "test");

    auto a = dst.const_array(0);
    forEachCell(dst.grownBox(0), [&](int i, int j, int k) {
        EXPECT_DOUBLE_EQ(a(i, j, k, 0), field({i, j, k}, domain, {}, 0));
    });
    EXPECT_GT(comm.log().summarize().parallelCopy, 0u);
}

TEST(MultiFab, ParallelCopyPeriodicImages) {
    const Box domain(IntVect::zero(), IntVect(7));
    Geometry geom(domain, {0, 0, 0}, {1, 1, 1}, Periodicity::all());
    BoxArray ba(tiledBoxes(domain, 8));
    DistributionMapping dm(ba, 1);
    MultiFab src(ba, dm, 1, 0);
    auto s = src.array(0);
    forEachCell(domain, [&](int i, int j, int k) {
        s(i, j, k, 0) = field({i, j, k}, domain, Periodicity::all(), 0);
    });
    MultiFab dst(ba, dm, 1, 3);
    dst.setVal(-99.0);
    dst.parallelCopy(src, 0, 0, 1, 3, 0, "test", &geom);
    auto a = dst.const_array(0);
    forEachCell(dst.grownBox(0), [&](int i, int j, int k) {
        EXPECT_DOUBLE_EQ(a(i, j, k, 0),
                         field({i, j, k}, domain, Periodicity::all(), 0));
    });
}

TEST(MultiFab, L2DiffDetectsPerturbation) {
    const Box domain(IntVect::zero(), IntVect(7));
    BoxArray ba(tiledBoxes(domain, 4));
    DistributionMapping dm(ba, 2);
    MultiFab a(ba, dm, 1, 0), b(ba, dm, 1, 0);
    a.setVal(1.0);
    b.setVal(1.0);
    EXPECT_EQ(MultiFab::l2Diff(a, b, 0), 0.0);
    b.fab(3).setVal(1.5, b.validBox(3), 0, 1);
    EXPECT_NEAR(MultiFab::l2Diff(a, b, 0), 0.5 * std::sqrt(64.0), 1e-12);
}

} // namespace
} // namespace crocco::amr
