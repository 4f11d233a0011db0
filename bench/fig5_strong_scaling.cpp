// Regenerates Fig. 5 (left): strong scaling of CRoCCo 1.1 / 1.2 / 2.0 on
// 16-1024 Summit nodes at 1.27e9 grid points — time per iteration, plus the
// paper's headline speedup ratios (AMR over non-AMR, GPU over CPU+AMR,
// combined).
#include "bench_util.hpp"

using namespace crocco;
using namespace crocco::bench;
using core::CodeVersion;

int main() {
    printHeader("Figure 5 (left): strong scaling, 1.27e9 grid points (DMR)");
    machine::ScalingSimulator sim;

    const CodeVersion versions[] = {CodeVersion::V11, CodeVersion::V12,
                                    CodeVersion::V20};
    std::printf("%8s %16s %16s %16s %10s %10s %10s\n", "nodes", "v1.1 s/iter",
                "v1.2 s/iter", "v2.0 s/iter", "AMR x", "GPU x", "both x");
    for (int idx = 0; idx < 7; ++idx) {
        double t[3];
        int nodes = 0;
        for (int v = 0; v < 3; ++v) {
            const auto c = strongCases(versions[v])[idx];
            nodes = c.nodes;
            t[v] = sim.iterationTime(c).total();
        }
        std::printf("%8d %16.4f %16.4f %16.4f %10.2f %10.2f %10.2f\n", nodes,
                    t[0], t[1], t[2], t[0] / t[1], t[1] / t[2], t[0] / t[2]);
    }
    std::printf("\nPaper reference points (Sec. VI-B):\n");
    std::printf("  16 nodes:  AMR 4.6x, GPU 44x, combined 201x\n");
    std::printf("  1024 nodes: AMR 0.9x (1.1x slowdown), GPU 6x, combined 5.5x\n");
    std::printf("  GPU version stops improving around 128 nodes; CPU scales to 1024.\n");
    return 0;
}
