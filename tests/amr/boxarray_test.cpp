#include "amr/BoxArray.hpp"
#include "amr/Morton.hpp"
#include "gpu/Gpu.hpp"

#include <gtest/gtest.h>

#include <random>

namespace crocco::amr {
namespace {

TEST(Morton, RoundTrip) {
    std::mt19937 rng(7);
    std::uniform_int_distribution<int> d(0, (1 << 20) - 1);
    for (int t = 0; t < 200; ++t) {
        const IntVect p{d(rng), d(rng), d(rng)};
        EXPECT_EQ(mortonDecode(mortonIndex(p)), p);
    }
}

TEST(Morton, OrderingIsSpatiallyLocal) {
    // Points within the same octant of a power-of-two cube share high bits,
    // so their codes are closer than codes across octants.
    EXPECT_LT(mortonIndex({0, 0, 0}), mortonIndex({0, 0, 1}));
    EXPECT_LT(mortonIndex({1, 1, 1}), mortonIndex({2, 0, 0}));
    EXPECT_LT(mortonIndex({3, 3, 3}), mortonIndex({4, 4, 4}));
}

std::vector<Box> tiledBoxes(int n, int size) {
    std::vector<Box> boxes;
    for (int k = 0; k < n; ++k)
        for (int j = 0; j < n; ++j)
            for (int i = 0; i < n; ++i) {
                const IntVect lo{i * size, j * size, k * size};
                boxes.emplace_back(lo, lo + IntVect(size - 1));
            }
    return boxes;
}

TEST(BoxArray, SizeAndPts) {
    BoxArray ba(tiledBoxes(3, 8));
    EXPECT_EQ(ba.size(), 27);
    EXPECT_EQ(ba.numPts(), 27 * 512);
    EXPECT_EQ(ba.minimalBox(), Box(IntVect::zero(), IntVect(23)));
}

class BoxArrayIntersectProperty : public ::testing::TestWithParam<int> {};

TEST_P(BoxArrayIntersectProperty, MatchesBruteForce) {
    std::mt19937 rng(GetParam());
    std::uniform_int_distribution<int> d(0, 30);
    std::uniform_int_distribution<int> len(0, 9);
    std::vector<Box> boxes;
    // Disjoint-ish random tiles via a shuffled lattice subset.
    for (int t = 0; t < 20; ++t) {
        const IntVect lo{d(rng), d(rng), d(rng)};
        boxes.emplace_back(lo, lo + IntVect{len(rng), len(rng), len(rng)});
    }
    BoxArray ba(boxes);
    for (int t = 0; t < 20; ++t) {
        const IntVect lo{d(rng) - 5, d(rng) - 5, d(rng) - 5};
        const Box query(lo, lo + IntVect{len(rng), len(rng), len(rng)});
        auto fast = ba.intersections(query);
        std::sort(fast.begin(), fast.end(),
                  [](auto& a, auto& b) { return a.first < b.first; });
        std::vector<std::pair<int, Box>> slow;
        for (int i = 0; i < ba.size(); ++i) {
            const Box isect = ba[i] & query;
            if (isect.ok()) slow.emplace_back(i, isect);
        }
        ASSERT_EQ(fast.size(), slow.size());
        for (std::size_t i = 0; i < fast.size(); ++i) {
            EXPECT_EQ(fast[i].first, slow[i].first);
            EXPECT_EQ(fast[i].second, slow[i].second);
        }
    }
}

INSTANTIATE_TEST_SUITE_P(RandomSeeds, BoxArrayIntersectProperty,
                         ::testing::Range(0, 10));

TEST(BoxArray, ContainsAndComplement) {
    BoxArray ba(tiledBoxes(2, 8)); // covers [0,16)^3
    EXPECT_TRUE(ba.contains(Box(IntVect(2), IntVect(13))));
    EXPECT_TRUE(ba.contains(IntVect{15, 15, 15}));
    EXPECT_FALSE(ba.contains(IntVect{16, 0, 0}));
    EXPECT_FALSE(ba.contains(Box(IntVect(2), IntVect(16))));
    const auto holes = ba.complementIn(Box(IntVect(0), IntVect(17)));
    EXPECT_EQ(totalPts(holes), 18 * 18 * 18 - 16 * 16 * 16);
}

TEST(BoxArray, CoarsenRefine) {
    BoxArray ba(tiledBoxes(2, 8));
    EXPECT_TRUE(ba.coarsenable(IntVect(2)));
    EXPECT_EQ(ba.coarsen(2).numPts(), ba.numPts() / 8);
    EXPECT_EQ(ba.refine(2).numPts(), ba.numPts() * 8);
    EXPECT_EQ(ba.coarsen(2).refine(2), ba);
}

TEST(BoxArray, ConcurrentFirstQueriesMatchSerial) {
    // Pool tasks make the first intersections() queries of a fresh array
    // (and of a copy sharing its hash) at once: the lazily built hash must
    // be published once, and every result must equal the serial query's.
    struct Restore {
        int saved = gpu::numThreads();
        ~Restore() { gpu::setNumThreads(saved); }
    } restore;
    gpu::setNumThreads(4);
    const std::vector<Box> boxes = tiledBoxes(4, 8);
    std::vector<Box> queries;
    for (int q = 0; q < 64; ++q) {
        const IntVect lo{(q * 5) % 29 - 3, (q * 11) % 31 - 3, (q * 7) % 27 - 3};
        queries.emplace_back(lo, lo + IntVect{q % 9, (q + 3) % 9, (q + 6) % 9});
    }
    const BoxArray reference(boxes);
    std::vector<std::vector<std::pair<int, Box>>> expected;
    for (const Box& q : queries) expected.push_back(reference.intersections(q));
    for (int trial = 0; trial < 20; ++trial) {
        const BoxArray fresh(boxes);
        const BoxArray copy = fresh; // shares the not-yet-built hash
        std::vector<std::vector<std::pair<int, Box>>> got(queries.size());
        gpu::ParallelForIndex(static_cast<int>(queries.size()), [&](int q) {
            const BoxArray& ba = q % 2 == 0 ? fresh : copy;
            got[static_cast<std::size_t>(q)] =
                ba.intersections(queries[static_cast<std::size_t>(q)]);
        });
        EXPECT_EQ(got, expected) << "trial " << trial;
    }
}

TEST(BoxArray, EmptyQueries) {
    BoxArray empty;
    EXPECT_TRUE(empty.empty());
    EXPECT_TRUE(empty.intersections(Box(IntVect(0), IntVect(5))).empty());
    EXPECT_FALSE(empty.contains(IntVect::zero()));
}

} // namespace
} // namespace crocco::amr
