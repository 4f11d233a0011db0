// Microbench: communication-pattern caching (AMReX CommMetaData-style).
//
// Measures ns-per-call with the CommCache at capacity 0 (nothing retained:
// the BoxArray hash-intersection search re-runs every call) versus its
// default capacity (descriptor replay after the first call) for:
//
//  * fillBoundary        — ghost exchange on the DMR domain chopped at the
//                          paper's blocking factor (8^3 boxes): the
//                          fine-grained layout where pattern extraction,
//                          not data movement, is the per-call cost.
//  * fillBoundary_state  — the DMR solver's own 5-component, 4-ghost state
//                          exchange (copy-dominated; the cache can only
//                          remove the search).
//  * parallelCopy        — the interpolator's cross-layout gather.
//  * fillPatch_two_level — the full coarse/fine FillPatch path.
//
// Emits a JSON object on stdout; human-readable rows go to stderr.
#include "amr/CommCache.hpp"
#include "gpu/ThreadPool.hpp"
#include "problems/Dmr.hpp"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <functional>
#include <limits>
#include <vector>

using namespace crocco;

namespace {

/// Min-of-batches ns/call: the minimum is the standard noise-robust
/// microbench statistic on a shared host (anything above it is interference).
double nsPerCall(const std::function<void()>& f, int reps = 60, int batches = 5) {
    double best = std::numeric_limits<double>::infinity();
    f(); // warm (first call builds the pattern in the cached configuration)
    for (int b = 0; b < batches; ++b) {
        const auto t0 = std::chrono::steady_clock::now();
        for (int i = 0; i < reps; ++i) f();
        const std::chrono::duration<double, std::nano> dt =
            std::chrono::steady_clock::now() - t0;
        best = std::min(best, dt.count() / reps);
    }
    return best;
}

std::vector<amr::Box> tiledBoxes(const amr::Box& domain, int tile) {
    std::vector<amr::Box> out;
    for (int k = domain.smallEnd(2); k <= domain.bigEnd(2); k += tile)
        for (int j = domain.smallEnd(1); j <= domain.bigEnd(1); j += tile)
            for (int i = domain.smallEnd(0); i <= domain.bigEnd(0); i += tile)
                out.emplace_back(amr::IntVect{i, j, k},
                                 amr::IntVect{i + tile - 1, j + tile - 1,
                                              k + tile - 1});
    return out;
}

struct Row {
    const char* name;
    double ns[2] = {0, 0}; // [0] = uncached, [1] = cached
};

} // namespace

int main() {
    // Serial copies: this bench isolates the pattern-build cost, not the
    // thread pool (bench/thread_scaling.cpp covers that).
    gpu::setNumThreads(1);

    problems::Dmr::Options opts;
    opts.nx = 96;
    opts.ny = 24;
    opts.nz = 8;
    opts.maxLevel = 1;
    problems::Dmr dmr(opts);
    auto cfg = dmr.solverConfig(core::CodeVersion::V20);
    cfg.regridFreq = 4;
    core::CroccoAmr solver(dmr.geometry(), cfg, dmr.mapping());
    solver.init(dmr.initialCondition(), dmr.boundaryConditions());
    solver.evolve(4); // settle the shock-tracking hierarchy

    auto& cache = amr::CommCache::instance();
    const int lev = solver.finestLevel();
    amr::MultiFab& U = solver.state(lev);
    const amr::Geometry& fineGeom = solver.geom(lev);
    const amr::Geometry& geom0 = solver.geom(0);

    // Blocking-factor-granularity layout of the level-0 domain: one scalar
    // component, 2 ghost layers — the paper's 8^3 building blocks, where a
    // 10^5-box production layout spends its FillBoundary time in pattern
    // extraction.
    amr::BoxArray bfTiles(tiledBoxes(geom0.domain(), 8));
    amr::MultiFab bfField(bfTiles, amr::DistributionMapping(bfTiles, 4), 1, 2);
    bfField.setVal(1.0);

    amr::MultiFab gather(solver.boxArray(0), solver.dmap(0), core::NCONS,
                         core::NGHOST);
    gather.setVal(0.0);
    amr::MultiFab scratch(solver.boxArray(lev), solver.dmap(lev), core::NCONS,
                          core::NGHOST);

    Row rows[4] = {{"fillBoundary"},
                   {"fillBoundary_state"},
                   {"parallelCopy"},
                   {"fillPatch_two_level"}};
    const std::size_t capacity = cache.capacity();
    for (const bool cached : {false, true}) {
        cache.setCapacity(cached ? capacity : 0);
        cache.clear();
        const int c = cached ? 1 : 0;
        rows[0].ns[c] = nsPerCall([&] { bfField.fillBoundary(geom0); });
        rows[1].ns[c] = nsPerCall([&] { U.fillBoundary(fineGeom); });
        rows[2].ns[c] = nsPerCall([&] {
            gather.parallelCopy(U, 0, 0, core::NCONS, core::NGHOST, 0, "Bench",
                                &fineGeom);
        });
        rows[3].ns[c] = nsPerCall([&] { solver.fillPatch(lev, scratch); });
    }
    cache.setCapacity(capacity);

    std::fprintf(stderr, "%-22s %14s %14s %8s\n", "path", "uncached ns",
                 "cached ns", "speedup");
    for (const Row& r : rows)
        std::fprintf(stderr, "%-22s %14.0f %14.0f %7.2fx\n", r.name, r.ns[0],
                     r.ns[1], r.ns[0] / r.ns[1]);

    std::printf("{\n");
    std::printf("  \"layout\": \"DMR %dx%dx%d, %d levels, %d blocking-factor "
                "tiles\",\n",
                opts.nx, opts.ny, opts.nz, solver.finestLevel() + 1,
                bfTiles.size());
    for (int i = 0; i < 4; ++i)
        std::printf("  \"%s\": {\"uncached_ns_per_call\": %.0f, "
                    "\"cached_ns_per_call\": %.0f, \"speedup\": %.3f}%s\n",
                    rows[i].name, rows[i].ns[0], rows[i].ns[1],
                    rows[i].ns[0] / rows[i].ns[1], i < 3 ? "," : "");
    std::printf("}\n");
    return 0;
}
