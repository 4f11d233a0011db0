#include "gpu/DeviceModel.hpp"
#include "gpu/Gpu.hpp"

#include "core/KernelProfiles.hpp"

#include <gtest/gtest.h>

namespace crocco::gpu {
namespace {

using amr::Box;
using amr::IntVect;

// Visit counts are kept per cell (each cell is written by exactly one
// logical thread), so these tests are race-free at any gpu.num_threads.
TEST(ParallelFor, VisitsEveryCellOnce) {
    const Box b(IntVect{1, 2, 3}, IntVect{4, 5, 6});
    std::vector<int> visits(static_cast<std::size_t>(b.numPts()), 0);
    ParallelFor(b, [&](int i, int j, int k) {
        ++visits[static_cast<std::size_t>(b.index({i, j, k}))];
    });
    for (int v : visits) EXPECT_EQ(v, 1);
}

TEST(Reduce, MinAndMax) {
    const Box b(IntVect::zero(), IntVect(4));
    const double mn =
        ReduceMin(b, [](int i, int j, int k) { return double(i + j + k); });
    const double mx =
        ReduceMax(b, [](int i, int j, int k) { return double(i * j * k); });
    EXPECT_EQ(mn, 0.0);
    EXPECT_EQ(mx, 64.0);
}

TEST(V100Model, V100CapacityIs16GB) {
    EXPECT_EQ(V100Model::kMemoryBytes, 16ll * 1024 * 1024 * 1024);
}

TEST(V100Model, OccupancyMatchesPaperForWenoProfile) {
    // The paper reports 12.5% theoretical occupancy from register pressure
    // (§VI-A); the model must land there for the WENO profile.
    V100Model v100;
    EXPECT_NEAR(v100.occupancy(core::wenoKernelProfile()), 0.125, 0.04);
}

TEST(V100Model, KernelTimeScalesWithSizeAndSaturates) {
    V100Model v100;
    const auto& k = core::wenoKernelProfile();
    const double t1 = v100.kernelTime(k, 1'000);
    const double t2 = v100.kernelTime(k, 100'000);
    const double t3 = v100.kernelTime(k, 10'000'000);
    EXPECT_LT(t1, t2);
    EXPECT_LT(t2, t3);
    // Throughput (pts/s) grows then saturates: large sizes within 2x of
    // each other per point.
    const double r2 = 100'000 / t2, r3 = 10'000'000 / t3;
    EXPECT_GT(r3, r2 * 0.9);
    EXPECT_LT(r3, r2 * 10.0);
}

TEST(V100Model, AchievedFlopsNearPaperValue) {
    // Paper: ~300 GF/s DP achieved, ~4% of the 7.8 TF/s peak (Fig. 4).
    V100Model v100;
    const double gf = v100.achievedFlops(core::wenoKernelProfile(), 10'000'000) / 1e9;
    EXPECT_GT(gf, 150.0);
    EXPECT_LT(gf, 600.0);
}

TEST(V100Model, BandwidthBoundAtEveryLevel) {
    // AI at each level sits left of the compute roofline ridge.
    const auto& k = core::wenoKernelProfile();
    V100Model v100;
    const double occPeak = v100.peakFlops * v100.occupancy(k);
    EXPECT_LT(k.aiDram() * v100.bwDram, occPeak * 10); // dram-bound regime
    EXPECT_LT(k.aiDram(), 1.0); // strongly bandwidth-bound kernel
}

TEST(P9SocketModel, CppSlowdownMatchesPaper) {
    P9SocketModel p9;
    const auto& k = core::wenoKernelProfile();
    const double tF = p9.kernelTime(k, 1'000'000, false);
    const double tC = p9.kernelTime(k, 1'000'000, true);
    EXPECT_NEAR(tC / tF, 1.2, 1e-9);
}

TEST(Models, GpuSpeedupBandMatchesFig3) {
    // Fig. 3: 2.5x (small problems) to 15.8x (large) GPU speedup over the
    // Fortran CPU kernels on one socket + one V100.
    V100Model v100;
    P9SocketModel p9;
    const auto& k = core::wenoKernelProfile();
    const double small = p9.kernelTime(k, 50'000, false) / v100.kernelTime(k, 50'000);
    const double large =
        p9.kernelTime(k, 20'000'000, false) / v100.kernelTime(k, 20'000'000);
    EXPECT_GT(small, 1.0);
    EXPECT_LT(small, large);
    EXPECT_GT(large, 8.0);
    EXPECT_LT(large, 40.0);
}

} // namespace
} // namespace crocco::gpu
