// Regenerates Fig. 5 (right) + Table I: weak scaling of CRoCCo 1.1 / 1.2 /
// 2.0 / 2.1 over the paper's node/problem-size ladder, with weak-scaling
// efficiencies relative to the 4-node case.
#include "bench_util.hpp"

using namespace crocco;
using namespace crocco::bench;
using core::CodeVersion;

int main() {
    printHeader("Figure 5 (right): weak scaling per Table I (DMR)");
    machine::ScalingSimulator sim;

    const CodeVersion versions[] = {CodeVersion::V11, CodeVersion::V12,
                                    CodeVersion::V20, CodeVersion::V21};
    std::printf("%8s %12s | %38s | %31s\n", "nodes", "equiv pts",
                "time per iteration (s)", "efficiency vs 4 nodes");
    std::printf("%8s %12s | %9s %9s %9s %9s | %7s %7s %7s %7s\n", "", "", "v1.1",
                "v1.2", "v2.0", "v2.1", "v1.1", "v1.2", "v2.0", "v2.1");

    double base[4] = {0, 0, 0, 0};
    const auto rows = tableOneCases(CodeVersion::V11);
    for (std::size_t idx = 0; idx < rows.size(); ++idx) {
        double t[4];
        for (int v = 0; v < 4; ++v) {
            auto c = rows[idx];
            c.version = versions[v];
            t[v] = sim.iterationTime(c).total();
            if (idx == 0) base[v] = t[v];
        }
        std::printf("%8d %12.2e | %9.4f %9.4f %9.4f %9.4f | %6.0f%% %6.0f%% %6.0f%% %6.0f%%\n",
                    rows[idx].nodes, static_cast<double>(rows[idx].equivalentPoints),
                    t[0], t[1], t[2], t[3], 100 * base[0] / t[0],
                    100 * base[1] / t[1], 100 * base[2] / t[2],
                    100 * base[3] / t[3]);
    }
    std::printf("\nPaper reference points (Sec. VI-B):\n");
    std::printf("  v2.0 weak efficiency ~54%% at 400 nodes, ~40%% at 1024 nodes\n");
    std::printf("  v2.1 (trilinear interp, no global coordinate copy) ~70%% at 400 nodes\n");
    std::printf("  CPU versions stay near-flat; all versions improve slightly 4 -> 16\n");
    return 0;
}
