// PR6 bench: recovery-waste sweep — disk restart vs in-memory buddy
// recovery, plus the verified-exchange retransmit surcharge.
//
// Methodology: the ScalingSimulator prices both recovery schemes with the
// same Daly (2006) machinery at each node count under weak scaling
// (constant 4e7 equivalent points per node, the paper's Fig. 5 regime):
//
//   disk   delta = checkpointWriteTime (per-node NIC cap, aggregate GPFS
//                  ceiling past ~200 nodes); restore = job relaunch
//                  penalty + filesystem re-read,
//   buddy  delta = one node's state mirrored to its ring partner over the
//                  interconnect; restore = failure-detection latency + the
//                  partner streaming the replica back.
//
// Both follow Daly's optimal interval for their own delta, so the sweep is
// a fair fight: each scheme checkpoints as rarely as its cost allows. The
// retransmit column models the CRC/NACK verified-exchange tax: with a
// fault probability p per message, the comm regions are re-paid at rate p.
//
// JSON on stdout; the readable table goes to stderr.
#include "machine/FailureModel.hpp"
#include "machine/ScalingSimulator.hpp"

#include <cstdio>

using namespace crocco::machine;

int main() {
    // The soak campaign's drop+delay budget (~1% of messages time out and
    // retransmit) sets the modeled fault rate.
    ScalingSimulator::Params p;
    p.modelCommFaults = true;
    p.commFaultRate = 0.01;
    ScalingSimulator sim(p);
    const FailureModel& fm = sim.params().failure;

    const int nodeCounts[] = {1, 4, 16, 64, 256, 1024, 4096};
    constexpr std::int64_t kPointsPerNode = 40'000'000;

    std::fprintf(stderr,
                 "PR6 recovery sweep: Daly waste fraction, disk restart vs "
                 "buddy mirror (weak scaling, %lld pts/node, fault rate "
                 "%.2f%%)\n",
                 static_cast<long long>(kPointsPerNode),
                 100.0 * p.commFaultRate);
    std::fprintf(stderr, "%6s %12s %12s %12s %12s %12s %10s\n", "nodes",
                 "disk waste", "buddy waste", "disk rst s", "buddy rst s",
                 "buddy tau s", "rtx ovhd");

    std::printf("{\n");
    std::printf("  \"model\": \"Daly-optimal checkpointing priced twice: "
                "filesystem dumps + relaunch restore vs interconnect buddy "
                "mirroring + in-memory shrink recovery "
                "(CroccoAmr::restoreFromBuddy)\",\n");
    std::printf("  \"weak_scaling_points_per_node\": %lld,\n",
                static_cast<long long>(kPointsPerNode));
    std::printf("  \"comm_fault_rate\": %.4f,\n", p.commFaultRate);
    std::printf("  \"detection_latency_s\": %.3f,\n", fm.detectionLatency);
    std::printf("  \"interconnect_bandwidth_Bps\": %.3e,\n",
                fm.interconnectBandwidth);
    std::printf("  \"cases\": [\n");
    bool first = true;
    for (int nodes : nodeCounts) {
        ScalingCase c;
        c.version = crocco::core::CodeVersion::V20;
        c.nodes = nodes;
        c.equivalentPoints = static_cast<std::int64_t>(nodes) * kPointsPerNode;
        const RecoveryComparison rc = sim.recoveryComparison(c);
        std::fprintf(stderr, "%6d %11.5f%% %11.5f%% %12.2f %12.4f %12.0f %9.3f%%\n",
                     nodes, 100.0 * rc.disk.overheadFraction,
                     100.0 * rc.buddy.overheadFraction, rc.diskRestoreTime,
                     rc.buddyRestoreTime, rc.buddy.optimalInterval,
                     100.0 * rc.retransmitOverheadFraction);
        std::printf("%s    {\"nodes\": %d, \"checkpoint_bytes\": %lld,\n"
                    "     \"disk\": {\"waste_fraction\": %.8f, "
                    "\"delta_s\": %.4f, \"restore_s\": %.4f, "
                    "\"daly_interval_s\": %.2f},\n"
                    "     \"buddy\": {\"waste_fraction\": %.8f, "
                    "\"delta_s\": %.6f, \"restore_s\": %.6f, "
                    "\"daly_interval_s\": %.2f},\n"
                    "     \"retransmit_overhead_fraction\": %.8f}",
                    first ? "" : ",\n", nodes,
                    static_cast<long long>(rc.disk.checkpointBytes),
                    rc.disk.overheadFraction, rc.disk.writeTime,
                    rc.diskRestoreTime, rc.disk.optimalInterval,
                    rc.buddy.overheadFraction, rc.buddy.writeTime,
                    rc.buddyRestoreTime, rc.buddy.optimalInterval,
                    rc.retransmitOverheadFraction);
        first = false;
    }
    std::printf("\n  ]\n}\n");

    // The acceptance gate: buddy must beat disk at the paper's largest
    // configuration. Fail loudly so `ctest -L perf` catches a regression.
    ScalingCase big;
    big.version = crocco::core::CodeVersion::V20;
    big.nodes = 4096;
    big.equivalentPoints = 4096LL * kPointsPerNode;
    const RecoveryComparison rc = sim.recoveryComparison(big);
    if (!(rc.buddy.overheadFraction < rc.disk.overheadFraction)) {
        std::fprintf(stderr,
                     "FAIL: buddy waste %.6f >= disk waste %.6f at 4096 "
                     "nodes\n",
                     rc.buddy.overheadFraction, rc.disk.overheadFraction);
        return 1;
    }
    return 0;
}
