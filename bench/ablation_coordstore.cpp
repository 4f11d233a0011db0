// Ablation (§III-C "Regridding"): coordinate source for newly created AMR
// patches. The paper's first implementation serially read each new patch's
// coordinates from a binary file at every regrid ("noticeable overhead on
// CPU; worse on GPU"); the current implementation keeps the whole grid in
// memory and serves getCoords() from it, trading footprint for speed.
#include "bench_util.hpp"

#include "mesh/CoordStore.hpp"

#include <unistd.h>

#include <chrono>
#include <filesystem>
#include <string>

using namespace crocco;
using namespace crocco::bench;
using amr::Box;
using amr::IntVect;

int main() {
    printHeader("Ablation: coordinate store — in-memory vs per-regrid file I/O");
    auto mapping = std::make_shared<mesh::InteriorWavyMapping>(
        std::array<double, 3>{0, 0, 0}, std::array<double, 3>{4, 1, 1}, 0.02);
    const amr::Geometry geom(Box(IntVect::zero(), IntVect{127, 63, 31}),
                             {0, 0, 0}, {1, 1, 1});

    // The coordinate files go to a directory private to this process, so
    // the bench never shares them with a concurrent run or test.
    const auto dir = std::filesystem::temp_directory_path() /
                     ("crocco_ablation_coordstore_" + std::to_string(::getpid()));
    std::filesystem::create_directories(dir);
    std::printf("%10s | %14s %14s %8s | %14s\n", "patch", "memory", "file",
                "slowdown", "stored bytes");
    for (int size : {16, 32, 64}) {
        mesh::CoordStore mem(mapping, geom, IntVect(2), 1, 7,
                             mesh::CoordStore::Mode::Memory);
        mesh::CoordStore file(mapping, geom, IntVect(2), 1, 7,
                              mesh::CoordStore::Mode::File, dir.string());
        const Box patch(IntVect(8), IntVect(8 + size - 1));
        amr::FArrayBox fab(patch.grow(7), 3);
        auto timeIt = [&](const mesh::CoordStore& store) {
            // A regrid fetches coordinates for many new patches; time 20.
            const auto t0 = std::chrono::steady_clock::now();
            for (int r = 0; r < 20; ++r) store.getCoords(fab, 1);
            const auto t1 = std::chrono::steady_clock::now();
            return std::chrono::duration<double>(t1 - t0).count() / 20;
        };
        const double tMem = timeIt(mem);
        const double tFile = timeIt(file);
        std::printf("%7d^3 | %11.3f ms %11.3f ms %8.1fx | %11.1f MB\n", size,
                    tMem * 1e3, tFile * 1e3, tFile / tMem,
                    static_cast<double>(mem.bytesStored()) / (1 << 20));
    }
    std::filesystem::remove_all(dir);
    std::printf("\nPaper: the in-memory getCoords() replaced serial std::iostream\n");
    std::printf("reads per new patch; on GPU the file path would additionally\n");
    std::printf("stage through host memory. The memory cost is the stored grid.\n");
    return 0;
}
