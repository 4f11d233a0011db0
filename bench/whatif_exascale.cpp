// What-if projection (extension): the paper's closing insight is that GPU
// speedups turn AMR codes communication-bound, and the effect sharpens on
// "modern exascale systems". This bench reruns the weak-scaling study with
// an exascale-class accelerator model (MI250X/H100-era: ~4x the V100's HBM
// bandwidth and ~3x its usable DP peak, similar network) to quantify how
// much worse the FillPatch share gets when kernels speed up again.
#include "bench_util.hpp"

using namespace crocco;
using namespace crocco::bench;
using core::CodeVersion;

int main() {
    printHeader("What-if: the paper's weak scaling on an exascale-class GPU");

    machine::ScalingSimulator summit;

    machine::ScalingSimulator::Params p;
    p.machine.v100.peakFlops = 24e12;  // usable DP of an exascale-class part
    p.machine.v100.bwDram = 3.2e12;    // HBM2e/HBM3-class
    p.machine.v100.bwL2 = 8e12;
    p.machine.v100.bwL1 = 40e12;
    p.machine.v100.pointsToSaturate = 8e5; // bigger device, later saturation
    machine::ScalingSimulator exa(p);

    std::printf("%8s | %12s %12s | %14s %14s\n", "nodes", "V100 s/iter",
                "exa s/iter", "V100 comm frac", "exa comm frac");
    double baseV = 0, baseE = 0;
    for (const auto& c : tableOneCases(CodeVersion::V20)) {
        const auto rv = summit.iterationTime(c);
        const auto re = exa.iterationTime(c);
        if (c.nodes == 4) {
            baseV = rv.total();
            baseE = re.total();
        }
        std::printf("%8d | %12.4f %12.4f | %13.0f%% %13.0f%%\n", c.nodes,
                    rv.total(), re.total(), 100 * rv.fillPatch() / rv.total(),
                    100 * re.fillPatch() / re.total());
    }
    const auto rv = summit.iterationTime(
        {CodeVersion::V20, 1024, 41900000000ll});
    const auto re = exa.iterationTime({CodeVersion::V20, 1024, 41900000000ll});
    std::printf("\nweak efficiency at 1024 nodes: V100 %.0f%%, exascale %.0f%%\n",
                100 * baseV / rv.total(), 100 * baseE / re.total());
    std::printf("\nFaster kernels shrink Advance but not FillPatch: the\n");
    std::printf("communication share grows further, confirming the paper's\n");
    std::printf("insight #2 — GPU AMR codes at exascale need the interpolator\n");
    std::printf("and ParallelCopy optimizations (v2.1 / WENO interp) even more.\n");
    return 0;
}
