// Regenerates Table I: the weak-scaling configurations (nodes, GPUs,
// equivalent grid points) together with what our hierarchy synthesis
// produces for them: actual active points, the paper's 89-94% AMR point
// reduction, and the per-V100 memory footprint against the 16 GB budget.
#include "bench_util.hpp"

#include "gpu/DeviceModel.hpp"

using namespace crocco;
using namespace crocco::bench;
using core::CodeVersion;

int main() {
    printHeader("Table I: weak scaling configurations (code versions 1.1/1.2/2.0)");
    machine::ScalingSimulator sim;
    std::printf("%8s %8s %14s %14s %10s %14s %6s\n", "nodes", "GPUs",
                "equiv points", "active (AMR)", "reduction", "GB per V100",
                "fits?");
    for (const auto& c : tableOneCases(CodeVersion::V20)) {
        const auto h = sim.buildHierarchy(c);
        const auto active = h.activePoints();
        const double reduction =
            100.0 * (1.0 - static_cast<double>(active) /
                               static_cast<double>(c.equivalentPoints));
        const auto bytes = sim.gpuBytesPerRank(c);
        std::printf("%8d %8d %14.2e %14.2e %9.1f%% %14.2f %6s\n", c.nodes,
                    c.nodes * 6, static_cast<double>(c.equivalentPoints),
                    static_cast<double>(active), reduction,
                    static_cast<double>(bytes) / (1 << 30),
                    bytes < gpu::V100Model::kMemoryBytes ? "yes" : "NO");
    }
    std::printf("\nPaper reference: 8 rows from 4 nodes/24 GPUs/1.64e8 points to\n");
    std::printf("1024 nodes/6144 GPUs/4.19e10 points; AMR reduces active points\n");
    std::printf("89-94%%; sizes chosen to fill but not exceed 16 GB per V100.\n");
    return 0;
}
