#include "amr/AmrCore.hpp"
#include "amr/CommCache.hpp"
#include "amr/MultiFab.hpp"

#include <gtest/gtest.h>

#include <cmath>

namespace crocco::amr {
namespace {

std::vector<Box> tiledBoxes(const Box& domain, int tile) {
    std::vector<Box> out;
    for (int k = domain.smallEnd(2); k <= domain.bigEnd(2); k += tile)
        for (int j = domain.smallEnd(1); j <= domain.bigEnd(1); j += tile)
            for (int i = domain.smallEnd(0); i <= domain.bigEnd(0); i += tile)
                out.emplace_back(IntVect{i, j, k},
                                 IntVect{i + tile - 1, j + tile - 1, k + tile - 1});
    return out;
}

Real cellValue(int i, int j, int k, int n) {
    return std::sin(0.7 * i + 1.3 * j + 2.1 * k) + n;
}

void fillValid(MultiFab& mf) {
    for (int f = 0; f < mf.numFabs(); ++f) {
        auto a = mf.array(f);
        for (int n = 0; n < mf.nComp(); ++n)
            forEachCell(mf.validBox(f), [&](int i, int j, int k) {
                a(i, j, k, n) = cellValue(i, j, k, n);
            });
    }
}

/// Fresh cache per test: the CommCache is a process-wide singleton, so
/// leftovers from other tests (or the solver tests in this binary) would
/// perturb the stats assertions.
struct CacheReset {
    static void apply() {
        auto& c = CommCache::instance();
        c.clear();
        c.resetStats();
        c.setCapacity(64);
    }
    CacheReset() { apply(); }
    ~CacheReset() { apply(); }
};

TEST(CommCache, FillBoundaryMissesOnceThenHits) {
    CacheReset reset;
    const Box domain(IntVect::zero(), IntVect(15));
    const Geometry geom(domain, {0, 0, 0}, {1, 1, 1}, Periodicity::all());
    BoxArray ba(tiledBoxes(domain, 8));
    DistributionMapping dm(ba, 2);
    MultiFab mf(ba, dm, 2, 2);
    fillValid(mf);

    auto& cache = CommCache::instance();
    mf.fillBoundary(geom);
    EXPECT_EQ(cache.stats().misses, 1);
    EXPECT_EQ(cache.stats().hits, 0);

    mf.fillBoundary(geom);
    mf.fillBoundary(geom);
    EXPECT_EQ(cache.stats().misses, 1);
    EXPECT_EQ(cache.stats().hits, 2);

    // The replayed exchange produced correct ghost values (fully periodic
    // domain: every ghost cell maps to a valid cell of the periodic image).
    for (int f = 0; f < mf.numFabs(); ++f) {
        auto a = mf.const_array(f);
        forEachCell(mf.grownBox(f), [&](int i, int j, int k) {
            const int pi = (i + 16) % 16, pj = (j + 16) % 16, pk = (k + 16) % 16;
            EXPECT_DOUBLE_EQ(a(i, j, k, 1), cellValue(pi, pj, pk, 1))
                << "at " << i << ' ' << j << ' ' << k;
        });
    }
}

TEST(CommCache, ReplayedSimCommTrafficIsByteIdenticalToUncached) {
    CacheReset reset;
    const Box domain(IntVect::zero(), IntVect(15));
    const Geometry geom(domain, {0, 0, 0}, {1, 1, 1},
                        Periodicity{{true, false, false}});
    BoxArray ba(tiledBoxes(domain, 4));
    DistributionMapping dm(ba, 4);

    auto runExchange = [&](bool cached, parallel::SimComm& comm) {
        // Capacity 0 retains nothing: every call runs the uncached build.
        CommCache::instance().setCapacity(cached ? 64 : 0);
        MultiFab mf(ba, dm, 3, 2, &comm);
        fillValid(mf);
        mf.fillBoundary(geom); // build (or uncached pass 1)
        comm.log().clear();
        mf.fillBoundary(geom); // replay (or uncached pass 2)
        MultiFab dst(BoxArray(tiledBoxes(domain, 8)),
                     DistributionMapping(BoxArray(tiledBoxes(domain, 8)), 4), 3,
                     1, &comm);
        dst.setVal(0.0);
        dst.parallelCopy(mf, 0, 0, 3, 1, 0, "Interp", &geom);
        dst.parallelCopy(mf, 0, 0, 3, 1, 0, "Interp", &geom);
        return comm.log().messages();
    };

    parallel::SimComm commCached(4), commPlain(4);
    const auto cached = runExchange(true, commCached);
    const std::int64_t cachedHits = CommCache::instance().stats().hits;
    const auto plain = runExchange(false, commPlain);

    ASSERT_EQ(cached.size(), plain.size());
    ASSERT_GT(cached.size(), 0u);
    for (std::size_t m = 0; m < cached.size(); ++m) {
        EXPECT_EQ(cached[m].src, plain[m].src);
        EXPECT_EQ(cached[m].dst, plain[m].dst);
        EXPECT_EQ(cached[m].bytes, plain[m].bytes);
        EXPECT_EQ(cached[m].tag, plain[m].tag);
        EXPECT_EQ(static_cast<int>(cached[m].kind), static_cast<int>(plain[m].kind));
    }
    EXPECT_GT(cachedHits, 0);
    EXPECT_EQ(CommCache::instance().stats().hits, cachedHits)
        << "capacity 0 replayed a pattern";
}

TEST(CommCache, ChangedBoxArrayMissesAndNeverReplaysStalePattern) {
    CacheReset reset;
    const Box domain(IntVect::zero(), IntVect(15));
    const Geometry geom(domain, {0, 0, 0}, {1, 1, 1}, Periodicity::all());

    BoxArray coarseTiles(tiledBoxes(domain, 8));
    BoxArray fineTiles(tiledBoxes(domain, 4));
    EXPECT_NE(coarseTiles.id(), fineTiles.id());

    MultiFab a(coarseTiles, DistributionMapping(coarseTiles, 2), 1, 1);
    fillValid(a);
    a.fillBoundary(geom);
    EXPECT_EQ(CommCache::instance().stats().misses, 1);

    // A different layout with the same ngrow/periodicity must build its own
    // pattern, not reuse the other layout's.
    MultiFab b(fineTiles, DistributionMapping(fineTiles, 2), 1, 1);
    fillValid(b);
    b.fillBoundary(geom);
    EXPECT_EQ(CommCache::instance().stats().misses, 2);
    for (int f = 0; f < b.numFabs(); ++f) {
        auto arr = b.const_array(f);
        forEachCell(b.grownBox(f), [&](int i, int j, int k) {
            const int pi = (i + 16) % 16, pj = (j + 16) % 16, pk = (k + 16) % 16;
            ASSERT_DOUBLE_EQ(arr(i, j, k, 0), cellValue(pi, pj, pk, 0));
        });
    }
}

TEST(CommCache, RegridInvalidatesReplacedLevelsPatterns) {
    CacheReset reset;
    const Box domain(IntVect::zero(), IntVect(15));
    const Geometry geom(domain, {0, 0, 0}, {1, 1, 1}, Periodicity::all());

    // Minimal concrete hierarchy: only setLevel (the invalidation point)
    // matters here.
    struct Harness : AmrCore {
        using AmrCore::AmrCore;
        using AmrCore::setLevel;
        void errorEst(int, std::vector<IntVect>&, Real) override {}
        void makeNewLevelFromScratch(int, Real, const BoxArray&,
                                     const DistributionMapping&) override {}
        void makeNewLevelFromCoarse(int, Real, const BoxArray&,
                                    const DistributionMapping&) override {}
        void remakeLevel(int, Real, const BoxArray&,
                         const DistributionMapping&) override {}
        void clearLevel(int) override {}
    };
    AmrInfo info;
    info.maxLevel = 0;
    Harness amr(geom, info);

    BoxArray oldBa(tiledBoxes(domain, 8));
    DistributionMapping oldDm(oldBa, 2);
    amr.setLevel(0, oldBa, oldDm);
    MultiFab mf(oldBa, oldDm, 1, 1);
    fillValid(mf);
    mf.fillBoundary(geom);
    EXPECT_EQ(CommCache::instance().size(), 1u);

    // Regrid replaces the layout: the old level's pattern must be dropped.
    BoxArray newBa(tiledBoxes(domain, 4));
    amr.setLevel(0, newBa, DistributionMapping(newBa, 2));
    EXPECT_EQ(CommCache::instance().size(), 0u);
    EXPECT_EQ(CommCache::instance().stats().invalidations, 1);

    // Re-setting the *same* layout (id unchanged) must not invalidate.
    MultiFab mf2(newBa, DistributionMapping(newBa, 2), 1, 1);
    fillValid(mf2);
    mf2.fillBoundary(geom);
    const auto before = CommCache::instance().stats().invalidations;
    amr.setLevel(0, newBa, DistributionMapping(newBa, 2));
    EXPECT_EQ(CommCache::instance().stats().invalidations, before);
    EXPECT_EQ(CommCache::instance().size(), 1u);
}

TEST(CommCache, CommunicatorShrinkInvalidatesEveryCachedPattern) {
    // Rank-death regression: a cached pattern's CopyDescriptors embed srcRank/
    // dstRank in the pre-shrink numbering, so replaying one after the
    // communicator shrank would log traffic for ranks that no longer exist.
    CacheReset reset;
    const Box domain(IntVect::zero(), IntVect(15));
    const Geometry geom(domain, {0, 0, 0}, {1, 1, 1}, Periodicity::all());
    BoxArray ba(tiledBoxes(domain, 4));
    DistributionMapping dm(ba, 4);

    parallel::SimComm comm(4);
    MultiFab mf(ba, dm, 1, 1, &comm);
    fillValid(mf);
    mf.fillBoundary(geom);
    auto& cache = CommCache::instance();
    EXPECT_EQ(cache.size(), 1u);
    EXPECT_EQ(cache.notedCommSize(), 4);

    // The rank death + shrink path reports the new size; every pattern
    // built under the old numbering must be dropped and counted.
    comm.killRank(2);
    comm.shrink();
    cache.noteCommSize(comm.size());
    EXPECT_EQ(cache.size(), 0u);
    EXPECT_EQ(cache.stats().invalidations, 1);
    EXPECT_EQ(cache.notedCommSize(), 3);

    // Same size again: no churn.
    cache.noteCommSize(comm.size());
    EXPECT_EQ(cache.stats().invalidations, 1);

    // The next exchange (post-shrink mapping) rebuilds cleanly and replays;
    // the log is cleared so only post-shrink traffic is inspected.
    comm.log().clear();
    DistributionMapping dm3(ba, 3);
    MultiFab mf3(ba, dm3, 1, 1, &comm);
    fillValid(mf3);
    mf3.fillBoundary(geom);
    mf3.fillBoundary(geom);
    EXPECT_GT(cache.stats().hits, 0);
    for (const auto& m : comm.log().messages()) {
        EXPECT_LT(m.src, 3);
        EXPECT_LT(m.dst, 3);
    }
}

TEST(CommCache, DerivedIdsAreDeterministicSoFillPatchScratchHits) {
    CacheReset reset;
    const Box domain(IntVect::zero(), IntVect(15));
    BoxArray ba(tiledBoxes(domain, 8));
    // FillPatchTwoLevels coarsens the fine BoxArray afresh on every call;
    // the derived id must be a pure function of (parent id, op, ratio) so
    // those scratch layouts share one cache entry.
    EXPECT_EQ(ba.coarsen(IntVect(2)).id(), ba.coarsen(IntVect(2)).id());
    EXPECT_NE(ba.coarsen(IntVect(2)).id(), ba.id());
    EXPECT_NE(ba.coarsen(IntVect(2)).id(), ba.coarsen(IntVect(4)).id());
    EXPECT_NE(ba.coarsen(IntVect(2)).id(), ba.refine(IntVect(2)).id());
    // Copies preserve identity (same boxes, same pattern).
    BoxArray copy = ba;
    EXPECT_EQ(copy.id(), ba.id());
}

TEST(CommCache, LruEvictsOldestAndCapacityZeroDisablesRetention) {
    CacheReset reset;
    auto& cache = CommCache::instance();
    cache.setCapacity(1);
    const Box domain(IntVect::zero(), IntVect(7));
    const Geometry geom(domain, {0, 0, 0}, {1, 1, 1}, Periodicity::all());
    BoxArray ba1(tiledBoxes(domain, 4)), ba2(tiledBoxes(domain, 8));
    MultiFab m1(ba1, DistributionMapping(ba1, 1), 1, 1);
    MultiFab m2(ba2, DistributionMapping(ba2, 1), 1, 1);
    m1.setVal(1.0);
    m2.setVal(2.0);
    m1.fillBoundary(geom);
    m2.fillBoundary(geom); // evicts m1's pattern
    EXPECT_EQ(cache.size(), 1u);
    EXPECT_EQ(cache.stats().evictions, 1);
    m1.fillBoundary(geom); // rebuilt, not replayed
    EXPECT_EQ(cache.stats().misses, 3);

    cache.setCapacity(0);
    m1.fillBoundary(geom);
    EXPECT_EQ(cache.size(), 0u);
}

} // namespace
} // namespace crocco::amr
