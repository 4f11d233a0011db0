#include "machine/NetworkModel.hpp"
#include "machine/ScalingSimulator.hpp"
#include "machine/SummitMachine.hpp"

#include "core/KernelProfiles.hpp"
#include "gpu/DeviceModel.hpp"

#include <gtest/gtest.h>

namespace crocco::machine {
namespace {

using core::CodeVersion;

TEST(NetworkModel, ContentionGrowsWithNodes) {
    NetworkModel net;
    EXPECT_DOUBLE_EQ(net.contention(1), 1.0);
    EXPECT_GT(net.contention(64), net.contention(4));
    EXPECT_GT(net.contention(1024), net.contention(64));
    EXPECT_LT(net.contention(1024), 2.0); // mild, fat-tree-like
}

TEST(NetworkModel, PhaseTimeScalesWithMessagesAndBytes) {
    NetworkModel net;
    EXPECT_GT(net.p2pPhaseTime(100, 1 << 20, 16, false, 42),
              net.p2pPhaseTime(10, 1 << 20, 16, false, 42));
    EXPECT_GT(net.p2pPhaseTime(10, 1 << 24, 16, false, 42),
              net.p2pPhaseTime(10, 1 << 20, 16, false, 42));
    // GPU staging makes each message costlier at equal bandwidth share...
    EXPECT_GT(net.p2pPhaseTime(100, 1 << 10, 16, true, 6),
              net.p2pPhaseTime(100, 1 << 10, 16, false, 6));
    // ...but a GPU rank gets a larger slice of the NIC than one of 42
    // CPU ranks, so bulk transfers are faster per rank.
    EXPECT_LT(net.p2pPhaseTime(1, 1 << 24, 16, true, 6),
              net.p2pPhaseTime(1, 1 << 24, 16, false, 42));
}

TEST(NetworkModel, ReductionIsLogarithmic) {
    NetworkModel net;
    const double t64 = net.reductionTime(64, 16);
    const double t4096 = net.reductionTime(4096, 16);
    EXPECT_NEAR(t4096 / t64, 2.0, 0.01); // log2: 12 rounds vs 6
    EXPECT_EQ(net.reductionTime(1, 1), 0.0);
}

TEST(PhaseLoad, TracksBusiestRank) {
    PhaseLoad load(4);
    load.addMessage(0, 1, 100);
    load.addMessage(0, 2, 200);
    load.addMessage(3, 3, 999); // on-rank: ignored
    EXPECT_EQ(load.maxMessages(), 2);
    EXPECT_EQ(load.maxBytes(), 300); // rank 0 sends 300
    EXPECT_EQ(load.totalBytes(), 300);
}

TEST(SummitMachine, RankLayoutsMatchPaper) {
    SummitMachine m;
    EXPECT_EQ(m.ranksPerNode(true), 6);   // one rank per V100
    EXPECT_EQ(m.ranksPerNode(false), 42); // rank per usable P9 core
}

// ------------------------------------------------------- ScalingSimulator

ScalingSimulator makeSim() { return ScalingSimulator(); }

TEST(ScalingSimulator, HierarchyReproducesPaperActiveFraction) {
    // §V-C: "AMR demonstrates a 89-94% reduction in actual grid points
    // relative to the AMR-disabled solution."
    auto sim = makeSim();
    const ScalingCase c{CodeVersion::V20, 16, 655000000}; // Table I row 2
    const auto h = sim.buildHierarchy(c);
    ASSERT_EQ(h.finestLevel(), 2);
    const double frac = static_cast<double>(h.activePoints()) /
                        static_cast<double>(c.equivalentPoints);
    EXPECT_GT(frac, 0.05);
    EXPECT_LT(frac, 0.12); // 89-94% reduction band (with rounding slack)
}

TEST(ScalingSimulator, NonAmrVersionsHaveOneFullLevel) {
    auto sim = makeSim();
    const ScalingCase c{CodeVersion::V11, 16, 1270000000};
    const auto h = sim.buildHierarchy(c);
    ASSERT_EQ(h.finestLevel(), 0);
    // Domain rounding keeps the point count near the target.
    EXPECT_NEAR(static_cast<double>(h.activePoints()),
                static_cast<double>(c.equivalentPoints),
                0.3 * static_cast<double>(c.equivalentPoints));
}

TEST(ScalingSimulator, CpuDecompositionScalesBoxCountWithRanks) {
    auto sim = makeSim();
    const ScalingCase small{CodeVersion::V11, 16, 1270000000};
    const ScalingCase large{CodeVersion::V11, 256, 1270000000};
    const auto hs = sim.buildHierarchy(small);
    const auto hl = sim.buildHierarchy(large);
    // CPU runs need at least ~1 box per rank.
    EXPECT_GE(hl.levels[0].ba.size(), sim.ranksFor(large));
    EXPECT_GT(hl.levels[0].ba.size(), hs.levels[0].ba.size());
}

TEST(ScalingSimulator, GpuKernelsFasterThanCpuPerIteration) {
    // The heart of Fig. 5: at fixed problem and node count, v2.0's Advance
    // is far faster than v1.2's, while its communication share is larger.
    auto sim = makeSim();
    const std::int64_t pts = 1270000000;
    const auto cpu = sim.iterationTime({CodeVersion::V12, 64, pts});
    const auto gpu = sim.iterationTime({CodeVersion::V20, 64, pts});
    EXPECT_GT(cpu.advance / gpu.advance, 3.0);
    EXPECT_GT(gpu.fillPatch() / gpu.total(), cpu.fillPatch() / cpu.total());
}

TEST(ScalingSimulator, StrongScalingEndpointSpeedupsInPaperBand) {
    // §VI-B: GPU over CPU+AMR is ~44x at 16 nodes and ~6x at 1024; the
    // model must land in a generous band around those.
    auto sim = makeSim();
    const std::int64_t pts = 1270000000;
    const auto lo12 = sim.iterationTime({CodeVersion::V12, 16, pts});
    const auto lo20 = sim.iterationTime({CodeVersion::V20, 16, pts});
    const double sLow = lo12.total() / lo20.total();
    EXPECT_GT(sLow, 15.0);
    EXPECT_LT(sLow, 100.0);
    const auto hi12 = sim.iterationTime({CodeVersion::V12, 1024, pts});
    const auto hi20 = sim.iterationTime({CodeVersion::V20, 1024, pts});
    const double sHigh = hi12.total() / hi20.total();
    EXPECT_GT(sHigh, 2.0);
    EXPECT_LT(sHigh, sLow); // speedup shrinks with node count
}

TEST(ScalingSimulator, WeakScalingEfficiencyDegradesForGpu) {
    // §VI-B: v2.0 weak efficiency ~54% at 400 nodes; v2.1 (trilinear)
    // recovers to ~70%. CPU versions stay much flatter.
    auto sim = makeSim();
    auto eff = [&](CodeVersion v, int nodes, std::int64_t pts) {
        const auto base = sim.iterationTime({v, 4, 164000000});
        const auto at = sim.iterationTime({v, nodes, pts});
        return base.total() / at.total();
    };
    const double e20 = eff(CodeVersion::V20, 400, 16400000000ll);
    const double e21 = eff(CodeVersion::V21, 400, 16400000000ll);
    EXPECT_LT(e20, 0.8);
    EXPECT_GT(e20, 0.3);
    EXPECT_GT(e21, e20); // removing the coordinate gather helps
}

TEST(ScalingSimulator, FillPatchShareGrowsWithNodes) {
    // Fig. 6: FillPatch's share of v2.1 runtime grows with node count while
    // Advance stays flat per iteration (weak scaling).
    auto sim = makeSim();
    const auto small = sim.iterationTime({CodeVersion::V21, 4, 164000000});
    const auto large = sim.iterationTime({CodeVersion::V21, 400, 16400000000ll});
    EXPECT_GT(large.fillPatch() / large.total(),
              small.fillPatch() / small.total());
    // Advance stays roughly steady (box-count quantization adds some noise,
    // as the paper's own low-node-count imbalance does).
    EXPECT_NEAR(large.advance, small.advance, 0.8 * small.advance);
}

TEST(ScalingSimulator, GpuMemoryFitsTableOneCases) {
    // §V-C: weak scaling sizes were chosen to maximize GPU utilization
    // without exceeding the 16 GB V100 memory.
    auto sim = makeSim();
    const ScalingCase c{CodeVersion::V20, 4, 164000000};
    EXPECT_LT(sim.gpuBytesPerRank(c), gpu::V100Model::kMemoryBytes);
    // And the strong-scaling problem without AMR does NOT fit at low node
    // counts — the paper's reason for omitting GPU runs with AMR disabled
    // (Sec. V-C: "the non-AMR cases will not fit into the GPU memory ...
    // if the number of nodes is not adjusted").
    const std::int64_t strongPts = 1270000000;
    const std::int64_t fullBytesPerGpu =
        strongPts / 24 * 61 * static_cast<std::int64_t>(sizeof(double));
    EXPECT_GT(fullBytesPerGpu, gpu::V100Model::kMemoryBytes);
}

TEST(ScalingSimulator, RegionTimesArePositiveAndComplete) {
    auto sim = makeSim();
    const auto rt = sim.iterationTime({CodeVersion::V20, 16, 655000000});
    EXPECT_GT(rt.advance, 0.0);
    EXPECT_GT(rt.fillBoundary, 0.0);
    EXPECT_GT(rt.parallelCopy, 0.0);
    EXPECT_GT(rt.parallelCopyInterp, 0.0); // curvilinear interpolator
    EXPECT_GT(rt.computeDt, 0.0);
    EXPECT_GT(rt.averageDown, 0.0);
    EXPECT_GT(rt.regrid, 0.0);
    EXPECT_NEAR(rt.total(),
                rt.fillBoundary + rt.parallelCopy + rt.parallelCopyInterp +
                    rt.interpCompute + rt.advance + rt.update + rt.computeDt +
                    rt.averageDown + rt.regrid + rt.resilience + rt.retransmit,
                1e-12);
    // v2.1 must lack the coordinate gather.
    const auto rt21 = sim.iterationTime({CodeVersion::V21, 16, 655000000});
    EXPECT_EQ(rt21.parallelCopyInterp, 0.0);
}

} // namespace
} // namespace crocco::machine
