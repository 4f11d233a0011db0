#include "machine/FailureModel.hpp"
#include "machine/ScalingSimulator.hpp"

#include <gtest/gtest.h>

#include <cmath>

namespace crocco::machine {
namespace {

TEST(FailureModel, SystemMtbfScalesInverselyWithNodes) {
    FailureModel fm;
    const double one = fm.systemMtbf(1);
    EXPECT_DOUBLE_EQ(one, fm.nodeMtbfHours * 3600.0);
    EXPECT_DOUBLE_EQ(fm.systemMtbf(1024), one / 1024.0);
    EXPECT_GT(fm.systemMtbf(4), fm.systemMtbf(256));
    // At the paper's 1024-node scale a multi-year node MTBF compounds into
    // a system interrupt within a couple of days.
    EXPECT_LT(fm.systemMtbf(1024), 3.0 * 24 * 3600);
}

TEST(FailureModel, CheckpointWriteTimeRespectsBothBandwidthCaps) {
    FailureModel fm;
    const std::int64_t bytes = 1'000'000'000'000; // 1 TB dump
    // Small runs are injection-limited: doubling nodes halves the time.
    const double t4 = fm.checkpointWriteTime(bytes, 4);
    const double t8 = fm.checkpointWriteTime(bytes, 8);
    EXPECT_NEAR(t4 / t8, 2.0, 1e-9);
    EXPECT_DOUBLE_EQ(t4, static_cast<double>(bytes) / (4 * fm.fsPerNodeBandwidth));
    // Big runs hit the aggregate GPFS ceiling and stop improving.
    const double tBig = fm.checkpointWriteTime(bytes, 4096);
    EXPECT_DOUBLE_EQ(tBig, static_cast<double>(bytes) / fm.fsAggregateBandwidth);
    EXPECT_DOUBLE_EQ(fm.checkpointWriteTime(bytes, 8192), tBig);
}

TEST(FailureModel, DalyIntervalMatchesLeadingOrderForSmallDelta) {
    // For delta << M Daly's optimum reduces to sqrt(2 delta M).
    const double M = 1.0e6, delta = 1.0;
    EXPECT_NEAR(FailureModel::dalyInterval(delta, M), std::sqrt(2 * delta * M),
                0.02 * std::sqrt(2 * delta * M));
    // Degenerate regime delta >= 2M: checkpoint once per MTBF.
    EXPECT_DOUBLE_EQ(FailureModel::dalyInterval(300.0, 100.0), 100.0);
    // Interval shrinks as the machine gets less reliable.
    EXPECT_GT(FailureModel::dalyInterval(10.0, 1e6),
              FailureModel::dalyInterval(10.0, 1e4));
}

TEST(FailureModel, WasteFractionGrowsWithScaleAndIsClamped) {
    FailureModel fm;
    const double delta = 30.0;
    const double small = fm.wasteFraction(delta, fm.systemMtbf(4));
    const double large = fm.wasteFraction(delta, fm.systemMtbf(1024));
    EXPECT_GT(small, 0.0);
    EXPECT_GT(large, small);
    EXPECT_LT(large, 0.10); // modest at Summit-like reliability
    // A pathological machine (MTBF shorter than the dump) clamps at 0.99.
    EXPECT_DOUBLE_EQ(fm.wasteFraction(1000.0, 10.0), 0.99);
}

TEST(ScalingSimulator, ResilienceStatsAreConsistent) {
    ScalingSimulator sim;
    ScalingCase c;
    c.version = core::CodeVersion::V20;
    c.nodes = 1024;
    c.equivalentPoints = 1'000'000'000;
    const ResilienceStats rs = sim.resilienceStats(c);
    EXPECT_GT(rs.checkpointBytes, 0);
    // Dump size is the hierarchy's active conserved state.
    EXPECT_EQ(rs.checkpointBytes,
              sim.buildHierarchy(c).activePoints() *
                  static_cast<std::int64_t>(core::NCONS * sizeof(double)));
    const FailureModel& fm = sim.params().failure;
    EXPECT_DOUBLE_EQ(rs.writeTime,
                     fm.checkpointWriteTime(rs.checkpointBytes, c.nodes));
    EXPECT_DOUBLE_EQ(rs.systemMtbf, fm.systemMtbf(c.nodes));
    EXPECT_DOUBLE_EQ(rs.optimalInterval,
                     FailureModel::dalyInterval(rs.writeTime, rs.systemMtbf));
    EXPECT_GT(rs.overheadFraction, 0.0);
    EXPECT_LT(rs.overheadFraction, 0.10);
}

TEST(ScalingSimulator, IterationTimeChargesResilienceOnlyWhenEnabled) {
    ScalingCase c;
    c.version = core::CodeVersion::V20;
    c.nodes = 256;
    c.equivalentPoints = 500'000'000;

    ScalingSimulator off;
    const RegionTimes base = off.iterationTime(c);
    EXPECT_EQ(base.resilience, 0.0);

    ScalingSimulator::Params p;
    p.modelFailures = true;
    ScalingSimulator on(p);
    const RegionTimes rt = on.iterationTime(c);
    EXPECT_GT(rt.resilience, 0.0);
    // The charge is calibrated so resilience/total() is the waste fraction.
    const double frac = on.resilienceStats(c).overheadFraction;
    EXPECT_NEAR(rt.resilience / rt.total(), frac, 1e-12);
    // All other regions are untouched by the failure model.
    EXPECT_NEAR(rt.total() - rt.resilience, base.total(),
                1e-12 * base.total());
}

TEST(FailureModel, BuddyTimesScaleWithTheInterconnectNotTheFilesystem) {
    FailureModel fm;
    const std::int64_t bytes = 1'000'000'000'000; // 1 TB of state
    // Buddy mirroring is per-node concurrent: doubling nodes halves the
    // time at every scale — there is no aggregate ceiling to hit.
    EXPECT_NEAR(fm.buddyCheckpointTime(bytes, 2048) /
                    fm.buddyCheckpointTime(bytes, 4096),
                2.0, 1e-9);
    EXPECT_DOUBLE_EQ(fm.buddyCheckpointTime(bytes, 64),
                     (static_cast<double>(bytes) / 64) / fm.interconnectBandwidth);
    // Restore: disk pays the relaunch penalty + a filesystem read; buddy
    // pays detection + one node's share over the interconnect.
    EXPECT_DOUBLE_EQ(fm.diskRestoreTime(bytes, 4096),
                     fm.restartPenalty +
                         fm.checkpointWriteTime(bytes, 4096));
    EXPECT_DOUBLE_EQ(fm.buddyRestoreTime(bytes, 4096),
                     fm.detectionLatency +
                         (static_cast<double>(bytes) / 4096) /
                             fm.interconnectBandwidth);
    EXPECT_LT(fm.buddyRestoreTime(bytes, 4096), fm.diskRestoreTime(bytes, 4096));
    // The 2-arg waste fraction is the 3-arg one priced at the disk restart
    // penalty.
    EXPECT_DOUBLE_EQ(fm.wasteFraction(30.0, 1e5),
                     fm.wasteFraction(30.0, 1e5, fm.restartPenalty));
    // A cheaper restore means less waste, all else equal.
    EXPECT_LT(fm.wasteFraction(30.0, 1e5, 10.0),
              fm.wasteFraction(30.0, 1e5, 500.0));
}

TEST(ScalingSimulator, BuddyRecoveryBeatsDiskAtScale) {
    // The acceptance gate of the recovery-sweep: at the paper's largest
    // configuration (4096 nodes, weak scaling) in-memory buddy recovery
    // must waste a smaller wall-clock fraction than disk restart.
    ScalingSimulator sim;
    double prevGap = 0.0;
    for (int nodes : {64, 1024, 4096}) {
        ScalingCase c;
        c.version = core::CodeVersion::V20;
        c.nodes = nodes;
        c.equivalentPoints = static_cast<std::int64_t>(nodes) * 40'000'000;
        const RecoveryComparison rc = sim.recoveryComparison(c);
        EXPECT_EQ(rc.disk.checkpointBytes, rc.buddy.checkpointBytes);
        EXPECT_DOUBLE_EQ(rc.disk.systemMtbf, rc.buddy.systemMtbf);
        EXPECT_GT(rc.buddy.overheadFraction, 0.0);
        EXPECT_LT(rc.buddy.overheadFraction, rc.disk.overheadFraction)
            << nodes << " nodes";
        EXPECT_LT(rc.buddyRestoreTime, rc.diskRestoreTime) << nodes << " nodes";
        // The buddy advantage widens as the filesystem ceiling bites.
        const double gap = rc.disk.overheadFraction - rc.buddy.overheadFraction;
        EXPECT_GT(gap, prevGap) << nodes << " nodes";
        prevGap = gap;
    }
}

TEST(ScalingSimulator, CommFaultRateChargesRetransmitSurcharge) {
    ScalingCase c;
    c.version = core::CodeVersion::V20;
    c.nodes = 256;
    c.equivalentPoints = 500'000'000;

    ScalingSimulator off;
    const RegionTimes base = off.iterationTime(c);
    EXPECT_EQ(base.retransmit, 0.0);
    EXPECT_DOUBLE_EQ(off.recoveryComparison(c).retransmitOverheadFraction, 0.0);

    ScalingSimulator::Params p;
    p.modelCommFaults = true;
    p.commFaultRate = 0.01;
    ScalingSimulator on(p);
    const RegionTimes rt = on.iterationTime(c);
    // 1% of messages re-sent: the comm regions pay 1%.
    EXPECT_NEAR(rt.retransmit, 0.01 * rt.commWait(), 1e-15);
    EXPECT_NEAR(rt.total() - rt.retransmit, base.total(),
                1e-12 * base.total());
    const RecoveryComparison rc = on.recoveryComparison(c);
    EXPECT_GT(rc.retransmitOverheadFraction, 0.0);
    EXPECT_LT(rc.retransmitOverheadFraction, 0.011); // bounded by the rate
}

TEST(ScalingSimulator, ResilienceOverheadGrowsWithNodeCount) {
    ScalingSimulator::Params p;
    p.modelFailures = true;
    ScalingSimulator sim(p);
    double prev = 0.0;
    for (int nodes : {16, 128, 1024}) {
        ScalingCase c;
        c.version = core::CodeVersion::V20;
        c.nodes = nodes;
        // Weak scaling: constant work per node, as in the paper's Fig. 5.
        c.equivalentPoints = static_cast<std::int64_t>(nodes) * 40'000'000;
        const double frac = sim.resilienceStats(c).overheadFraction;
        EXPECT_GT(frac, prev);
        prev = frac;
    }
}

TEST(FailureModel, SdcMeanTimeBetweenScalesWithResidentBytes) {
    FailureModel fm;
    const std::int64_t gb = 1'000'000'000;
    // One GB at the default 1e-5 upsets/GB-hour: 1e5 hours between upsets.
    EXPECT_NEAR(fm.sdcMeanTimeBetween(gb), 1.0e5 * 3600.0, 1.0);
    // Twice the resident state, half the time between silent upsets.
    EXPECT_NEAR(fm.sdcMeanTimeBetween(2 * gb) * 2.0, fm.sdcMeanTimeBetween(gb),
                1.0);
    // No resident state (or a zero rate) means upsets never happen.
    EXPECT_TRUE(std::isinf(fm.sdcMeanTimeBetween(0)));
    FailureModel immune;
    immune.sdcRatePerGBHour = 0.0;
    EXPECT_TRUE(std::isinf(immune.sdcMeanTimeBetween(gb)));
    EXPECT_DOUBLE_EQ(immune.sdcWasteFraction(gb, 100.0, 10.0), 0.0);
}

TEST(FailureModel, SdcScanAndDetectionOverheadFollowTheCadence) {
    FailureModel fm;
    const std::int64_t bytes = 4'000'000'000'000; // 4 TB across the machine
    // The CRC sweep is per-node concurrent, like buddy mirroring.
    EXPECT_NEAR(fm.sdcScanTime(bytes, 2048) / fm.sdcScanTime(bytes, 4096), 2.0,
                1e-9);
    EXPECT_DOUBLE_EQ(fm.sdcScanTime(bytes, 64),
                     (static_cast<double>(bytes) / 64) / fm.sdcScanBandwidth);
    // Doubling the verify interval roughly halves the scan overhead, and
    // the fraction is always in (0, 1).
    const double stepTime = 1.0;
    const double o1 = fm.sdcDetectionOverhead(bytes, 4096, stepTime, 1);
    const double o10 = fm.sdcDetectionOverhead(bytes, 4096, stepTime, 10);
    EXPECT_GT(o1, 0.0);
    EXPECT_LT(o1, 1.0);
    EXPECT_GT(o1, o10);
    EXPECT_NEAR(o1 / o10, 10.0, 1.0); // scan << window: near-linear
    // Longer detection latency (a sparser verify cadence) wastes more work
    // per silent upset.
    EXPECT_LT(fm.sdcWasteFraction(bytes, 10.0, 5.0),
              fm.sdcWasteFraction(bytes, 1000.0, 5.0));
}

TEST(ScalingSimulator, SdcGuardCrossesOverToWinningAtScale) {
    // The tentpole economics: the guard's scan overhead is roughly flat in
    // node count (per-node concurrent sweep of per-node state), while the
    // unguarded waste grows with total resident bytes — a silent upset
    // rides to the next checkpoint validation and pays a disk restore plus
    // half a Daly cycle of recompute. At desktop scale the upset rate is
    // so low that running unguarded is cheaper; at the paper's 4096-node
    // weak-scaled configuration the guard must win. The acceptance gate:
    // modeled detection overhead stays under 5% at the default cadence
    // (resilience.sdc_interval = 10) at every tested node count.
    ScalingSimulator sim;
    double prevUnguarded = 0.0;
    for (int nodes : {64, 1024, 4096}) {
        ScalingCase c;
        c.version = core::CodeVersion::V20;
        c.nodes = nodes;
        c.equivalentPoints = static_cast<std::int64_t>(nodes) * 40'000'000;
        const SdcComparison sc = sim.sdcComparison(c, 10);
        EXPECT_GT(sc.residentBytes, 0) << nodes << " nodes";
        EXPECT_GT(sc.upsetMtbf, 0.0);
        EXPECT_GT(sc.scanTime, 0.0);
        EXPECT_GT(sc.detectionOverheadFraction, 0.0);
        EXPECT_LT(sc.detectionOverheadFraction, 0.05) << nodes << " nodes";
        // Unguarded waste compounds with scale (more resident GB, shorter
        // upset MTBF, pricier disk restores)...
        EXPECT_GT(sc.unguardedWasteFraction, prevUnguarded) << nodes << " nodes";
        prevUnguarded = sc.unguardedWasteFraction;
        // ...until at the paper's largest configuration the guard wins.
        if (nodes == 4096) {
            EXPECT_LT(sc.guardedWasteFraction, sc.unguardedWasteFraction);
        }
    }
    // A denser cadence detects sooner but scans more often.
    ScalingCase c;
    c.version = core::CodeVersion::V20;
    c.nodes = 4096;
    c.equivalentPoints = 4096ll * 40'000'000;
    EXPECT_GT(sim.sdcComparison(c, 1).detectionOverheadFraction,
              sim.sdcComparison(c, 10).detectionOverheadFraction);
}

} // namespace
} // namespace crocco::machine
