#include "mesh/GridMetrics.hpp"

#include "mesh/CoordStore.hpp"
#include "mesh/Mapping.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <random>
#include <sstream>

namespace crocco::mesh {
namespace {

using amr::Box;
using amr::BoxArray;
using amr::DistributionMapping;
using amr::FArrayBox;
using amr::Geometry;
using amr::IntVect;
using amr::MultiFab;

/// The two-pass metric kernel as it was before the per-call constants were
/// hoisted, the shared central differences evaluated once per cell and the
/// second metrics dropped: pass 1 verbatim, pass 2 without its
/// second-metric loop. The bit-for-bit reference for mesh::computeMetricsFab.
namespace reference {

/// 4th-order central first derivative along dimension d of component m.
inline Real d1(const Array4<const Real>& f, int i, int j, int k, int m, int d,
               Real invdx) {
    const IntVect e = IntVect::basis(d);
    return (-f(i + 2 * e[0], j + 2 * e[1], k + 2 * e[2], m) +
            8.0 * f(i + e[0], j + e[1], k + e[2], m) -
            8.0 * f(i - e[0], j - e[1], k - e[2], m) +
            f(i - 2 * e[0], j - 2 * e[1], k - 2 * e[2], m)) *
           (invdx / 12.0);
}

/// Invert a 3x3 matrix T (rows: physical dims, cols: computational dims);
/// returns det(T).
inline Real invert3x3(const Real T[3][3], Real M[3][3]) {
    const Real det = T[0][0] * (T[1][1] * T[2][2] - T[1][2] * T[2][1]) -
                     T[0][1] * (T[1][0] * T[2][2] - T[1][2] * T[2][0]) +
                     T[0][2] * (T[1][0] * T[2][1] - T[1][1] * T[2][0]);
    const Real inv = 1.0 / det;
    M[0][0] = (T[1][1] * T[2][2] - T[1][2] * T[2][1]) * inv;
    M[0][1] = (T[0][2] * T[2][1] - T[0][1] * T[2][2]) * inv;
    M[0][2] = (T[0][1] * T[1][2] - T[0][2] * T[1][1]) * inv;
    M[1][0] = (T[1][2] * T[2][0] - T[1][0] * T[2][2]) * inv;
    M[1][1] = (T[0][0] * T[2][2] - T[0][2] * T[2][0]) * inv;
    M[1][2] = (T[0][2] * T[1][0] - T[0][0] * T[1][2]) * inv;
    M[2][0] = (T[1][0] * T[2][1] - T[1][1] * T[2][0]) * inv;
    M[2][1] = (T[0][1] * T[2][0] - T[0][0] * T[2][1]) * inv;
    M[2][2] = (T[0][0] * T[1][1] - T[0][1] * T[1][0]) * inv;
    return det;
}

void computeMetricsFab(const Array4<const Real>& coords, const Array4<Real>& metrics,
                       const Box& region, const std::array<Real, 3>& dxi) {
    // Pass 1: first metrics M = (∂x/∂ξ)^-1 on region.grow(1), held in a
    // scratch fab so pass 2 can difference them.
    const Box r1 = region.grow(1);
    FArrayBox firstTmp(r1, 9);
    auto first = firstTmp.array();
    amr::forEachCell(r1, [&](int i, int j, int k) {
        Real T[3][3], M[3][3];
        for (int m = 0; m < 3; ++m)
            for (int d = 0; d < 3; ++d)
                T[m][d] = d1(coords, i, j, k, m, d, 1.0 / dxi[d]);
        invert3x3(T, M);
        for (int d = 0; d < 3; ++d)
            for (int m = 0; m < 3; ++m) first(i, j, k, metric1(d, m)) = M[d][m];
    });

    auto firstC = firstTmp.const_array();
    amr::forEachCell(region, [&](int i, int j, int k) {
        for (int n = 0; n < 9; ++n) metrics(i, j, k, n) = firstC(i, j, k, n);
    });
}

} // namespace reference

struct MetricsSetup {
    Geometry geom;
    MultiFab coords, metrics;

    MetricsSetup(std::shared_ptr<const Mapping> mapping, int n, int ngMetrics = 1) {
        geom = Geometry(Box(IntVect::zero(), IntVect(n - 1)), {0, 0, 0}, {1, 1, 1},
                        amr::Periodicity::all());
        CoordStore store(std::move(mapping), geom, IntVect(2), 0, ngMetrics + 3);
        BoxArray ba(geom.domain());
        DistributionMapping dm(ba, 1);
        coords.define(ba, dm, 3, ngMetrics + 3);
        metrics.define(ba, dm, MetricComps, ngMetrics);
        store.getCoords(coords, 0);
        computeMetrics(coords, metrics, geom);
    }
};

TEST(GridMetrics, ComponentIndexing) {
    // The 9 first derivatives ∂ξ_d/∂x_j, row-major in d, fill the layout.
    EXPECT_EQ(MetricComps, 9);
    EXPECT_EQ(metric1(0, 0), 0);
    EXPECT_EQ(metric1(0, 2), 2);
    EXPECT_EQ(metric1(1, 0), 3);
    EXPECT_EQ(metric1(2, 2), MetricComps - 1);
}

TEST(GridMetrics, UniformGridIsExact) {
    // x = 4 xi, y = eta, z = 2 zeta on an 8^3 grid: dxi_0/dx = 1/4 etc.,
    // J = 8.
    auto mapping = std::make_shared<UniformMapping>(
        std::array<Real, 3>{0, 0, 0}, std::array<Real, 3>{4, 1, 2});
    MetricsSetup s(mapping, 8);
    auto m = s.metrics.const_array(0);
    amr::forEachCell(s.geom.domain(), [&](int i, int j, int k) {
        EXPECT_NEAR(m(i, j, k, metric1(0, 0)), 0.25, 1e-12);
        EXPECT_NEAR(m(i, j, k, metric1(1, 1)), 1.0, 1e-12);
        EXPECT_NEAR(m(i, j, k, metric1(2, 2)), 0.5, 1e-12);
        EXPECT_NEAR(m(i, j, k, metric1(0, 1)), 0.0, 1e-12);
        EXPECT_NEAR(m(i, j, k, metric1(1, 2)), 0.0, 1e-12);
        EXPECT_NEAR(jacobian(m, i, j, k), 8.0, 1e-10);
    });
}

TEST(GridMetrics, WavyGridMetricsConvergeAt4thOrder) {
    // Compare the computed dxi/dx against the analytic inverse Jacobian of
    // the wavy mapping at two resolutions; 4th-order differencing should
    // drop the error by ~16x.
    auto mapping = std::make_shared<WavyMapping>(std::array<Real, 3>{0, 0, 0},
                                                 std::array<Real, 3>{1, 1, 1},
                                                 0.02);
    double errs[2];
    for (int r = 0; r < 2; ++r) {
        const int n = (r == 0) ? 8 : 16;
        MetricsSetup s(mapping, n);
        auto m = s.metrics.const_array(0);
        double worst = 0.0;
        // Analytic forward Jacobian by tight finite differences of the
        // mapping itself (h far below the grid spacing).
        const double h = 1e-6;
        amr::forEachCell(s.geom.domain(), [&](int i, int j, int k) {
            const double xi = (i + 0.5) / n, eta = (j + 0.5) / n,
                         zeta = (k + 0.5) / n;
            double T[3][3];
            for (int d = 0; d < 3; ++d) {
                double sp[3]{xi, eta, zeta}, sm[3]{xi, eta, zeta};
                sp[d] += h;
                sm[d] -= h;
                const auto pp = mapping->toPhysical(sp[0], sp[1], sp[2]);
                const auto pm = mapping->toPhysical(sm[0], sm[1], sm[2]);
                for (int c = 0; c < 3; ++c) T[c][d] = (pp[c] - pm[c]) / (2 * h);
            }
            // Invert T to get the analytic dxi/dx.
            const double det =
                T[0][0] * (T[1][1] * T[2][2] - T[1][2] * T[2][1]) -
                T[0][1] * (T[1][0] * T[2][2] - T[1][2] * T[2][0]) +
                T[0][2] * (T[1][0] * T[2][1] - T[1][1] * T[2][0]);
            const double M00 = (T[1][1] * T[2][2] - T[1][2] * T[2][1]) / det;
            worst = std::max(worst,
                             std::abs(m(i, j, k, metric1(0, 0)) - M00));
        });
        errs[r] = worst;
    }
    const double order = std::log2(errs[0] / errs[1]);
    EXPECT_GT(order, 3.4) << errs[0] << " " << errs[1];
}

TEST(GridMetrics, GclResidualSmallAndConverging) {
    auto mapping = std::make_shared<WavyMapping>(std::array<Real, 3>{0, 0, 0},
                                                 std::array<Real, 3>{1, 1, 1},
                                                 0.02);
    double res[2];
    for (int r = 0; r < 2; ++r) {
        const int n = (r == 0) ? 8 : 16;
        MetricsSetup s(mapping, n);
        res[r] = gclResidual(s.metrics.const_array(0), s.geom.domain(),
                             s.geom.cellSizeArray());
    }
    EXPECT_LT(res[1], res[0]); // refining the grid shrinks the GCL error
    EXPECT_LT(res[1], 0.5);    // and it is small in absolute terms
}

/// One bit-for-bit case: a fab of `shape` on `level` of a two-level
/// hierarchy over `mapping`, with coordinates on its grown box plus the
/// stencil's 3 cells, optionally perturbed by seeded noise of up to 0.03
/// computational cells (so every cell sees distinct, unsmooth values).
/// Returns the number of (cell, component) values whose bytes differ
/// between computeMetricsFab and the reference over the whole grown box,
/// ghosts included (memcmp, so -0.0 and +0.0 differ).
std::int64_t metricByteMismatches(std::shared_ptr<const Mapping> mapping,
                                  const IntVect& shape, int level,
                                  std::uint64_t perturbSeed, std::string& first) {
    constexpr int ng = 4; // the solver's ghost width (core::NGHOST)
    const Geometry geom0(Box(IntVect::zero(), shape - IntVect(1)), {0, 0, 0},
                         {1, 1, 1}, amr::Periodicity::none());
    const CoordStore store(std::move(mapping), geom0, IntVect(2), 1, ng + 3);
    // Level 1 places the fab away from the domain corner, so its ghosts
    // straddle both interior cells and the mapping's extension.
    const IntVect lo = level == 0 ? IntVect::zero() : IntVect(shape[0] / 2, shape[1] / 2,
                                                             shape[2] / 2);
    const Box valid(lo, lo + shape - IntVect(1));
    const Box grown = valid.grow(ng);
    FArrayBox coords(grown.grow(3), 3);
    store.getCoords(coords, level);
    if (perturbSeed != 0) {
        std::mt19937_64 rng(perturbSeed);
        std::uniform_real_distribution<Real> noise(-0.03, 0.03);
        const auto h = store.levelGeom(level).cellSizeArray();
        auto c = coords.array();
        amr::forEachCell(coords.box(), [&](int i, int j, int k) {
            for (int m = 0; m < 3; ++m) c(i, j, k, m) += noise(rng) * h[m];
        });
    }
    const auto dxi = store.levelGeom(level).cellSizeArray();
    FArrayBox fast(grown, MetricComps), ref(grown, MetricComps);
    computeMetricsFab(coords.const_array(), fast.array(), grown, dxi);
    reference::computeMetricsFab(coords.const_array(), ref.array(), grown, dxi);
    auto a = fast.const_array();
    auto b = ref.const_array();
    std::int64_t bad = 0;
    for (int n = 0; n < MetricComps; ++n) {
        amr::forEachCell(grown, [&](int i, int j, int k) {
            if (std::memcmp(&a(i, j, k, n), &b(i, j, k, n), sizeof(Real)) == 0) return;
            if (bad++ > 0) return;
            std::ostringstream os;
            os << "cell (" << i << "," << j << "," << k << ") comp " << n << ": "
               << std::hexfloat << a(i, j, k, n) << " vs " << b(i, j, k, n);
            first = os.str();
        });
    }
    return bad;
}

TEST(GridMetrics, KernelBitwiseEqualsReference) {
    const std::array<Real, 3> lo{0, 0, 0}, hi{4, 1, 1};
    const std::vector<std::pair<const char*, std::shared_ptr<const Mapping>>> mappings{
        {"InteriorWavy", std::make_shared<InteriorWavyMapping>(lo, hi, 0.02)},
        {"Wavy", std::make_shared<WavyMapping>(lo, hi, 0.05)},
        {"Ramp", std::make_shared<RampMapping>(lo, hi, 30.0, 0.25)},
        {"Stretched", std::make_shared<StretchedMapping>(lo, hi, 1, 2.5)},
        {"Uniform", std::make_shared<UniformMapping>(lo, hi)},
    };
    const std::vector<IntVect> shapes{IntVect(8), IntVect(64, 16, 8), IntVect(5, 3, 7)};
    std::uint64_t seed = 20231;
    for (const auto& [name, mapping] : mappings) {
        for (const IntVect& shape : shapes) {
            for (int level = 0; level <= 1; ++level) {
                for (const std::uint64_t perturb : {std::uint64_t{0}, seed++}) {
                    std::string first;
                    EXPECT_EQ(metricByteMismatches(mapping, shape, level, perturb, first), 0)
                        << name << " shape " << shape[0] << "x" << shape[1] << "x"
                        << shape[2] << " level " << level << " perturb " << perturb
                        << ": first mismatch at " << first;
                }
            }
        }
    }
}

} // namespace
} // namespace crocco::mesh
