#include "core/Viscous.hpp"
#include "core/Weno.hpp"

#include "amr/FArrayBox.hpp"
#include "amr/Geometry.hpp"
#include "mesh/CoordStore.hpp"
#include "mesh/GridMetrics.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <map>
#include <string>

namespace crocco::core {
namespace {

using amr::Box;
using amr::FArrayBox;
using amr::Geometry;
using amr::IntVect;

/// One periodic single-fab level on a chosen mapping, with coords/metrics
/// and a conserved-state fab filled from a primitive-field functor.
struct KernelFixture {
    Geometry geom;
    FArrayBox coords, metrics, S, dU;
    GasModel gas;

    KernelFixture(std::shared_ptr<const mesh::Mapping> mapping, int n,
                  const std::function<std::array<Real, 5>(Real, Real, Real)>& prim) {
        geom = Geometry(Box(IntVect::zero(), IntVect(n - 1)), {0, 0, 0},
                        {1, 1, 1}, amr::Periodicity::all());
        mesh::CoordStore store(std::move(mapping), geom, IntVect(2), 0,
                               NGHOST + 3);
        const Box grown = geom.domain().grow(NGHOST);
        coords = FArrayBox(geom.domain().grow(NGHOST + 3), 3);
        store.getCoords(coords, 0);
        metrics = FArrayBox(grown, mesh::MetricComps);
        mesh::computeMetricsFab(coords.const_array(), metrics.array(), grown,
                                geom.cellSizeArray());
        S = FArrayBox(grown, NCONS);
        auto s = S.array();
        auto x = coords.const_array();
        amr::forEachCell(grown, [&](int i, int j, int k) {
            // Periodic state: evaluate the field at the wrapped coordinate.
            IntVect p{i, j, k};
            IntVect w = p;
            for (int d = 0; d < 3; ++d)
                w[d] = ((w[d] % n) + n) % n;
            const auto q = prim(x(w[0], w[1], w[2], 0), x(w[0], w[1], w[2], 1),
                                x(w[0], w[1], w[2], 2));
            const Real rho = q[0], u = q[1], v = q[2], ww = q[3], pp = q[4];
            s(i, j, k, URHO) = rho;
            s(i, j, k, UMX) = rho * u;
            s(i, j, k, UMY) = rho * v;
            s(i, j, k, UMZ) = rho * ww;
            s(i, j, k, UEDEN) = gas.totalEnergy(rho, u, v, ww, pp);
        });
        dU = FArrayBox(geom.domain(), NCONS, 0.0);
    }

    void runWeno(KernelVariant variant, WenoScheme scheme = WenoScheme::Symbo) {
        for (int dir = 0; dir < 3; ++dir) {
            wenoFlux(dir, S.const_array(), metrics.const_array(), geom.domain(),
                     dU.array(), geom.cellSize(dir), gas, scheme, variant);
        }
    }
};

std::shared_ptr<const mesh::Mapping> uniformMap() {
    return std::make_shared<mesh::UniformMapping>(std::array<Real, 3>{0, 0, 0},
                                                  std::array<Real, 3>{1, 1, 1});
}
std::shared_ptr<const mesh::Mapping> wavyMap(double amp) {
    return std::make_shared<mesh::WavyMapping>(std::array<Real, 3>{0, 0, 0},
                                               std::array<Real, 3>{1, 1, 1}, amp);
}

TEST(WenoKernel, FreeStreamPreservedOnUniformGrid) {
    // Constant state on a uniform grid: RHS must vanish to round-off.
    KernelFixture fx(uniformMap(), 12, [](Real, Real, Real) {
        return std::array<Real, 5>{1.2, 0.7, -0.3, 0.4, 2.0};
    });
    fx.runWeno(KernelVariant::Portable);
    for (int nc = 0; nc < NCONS; ++nc) {
        EXPECT_NEAR(fx.dU.max(fx.geom.domain(), nc), 0.0, 1e-10) << nc;
        EXPECT_NEAR(fx.dU.min(fx.geom.domain(), nc), 0.0, 1e-10) << nc;
    }
}

TEST(WenoKernel, FreeStreamErrorSmallAndConvergingOnCurvedGrid) {
    // On a curvilinear grid the discrete GCL is violated at truncation
    // order: constant flow produces a small residual that shrinks under
    // refinement.
    auto constPrim = [](Real, Real, Real) {
        return std::array<Real, 5>{1.0, 1.0, 0.5, 0.25, 1.0};
    };
    double errs[2];
    for (int r = 0; r < 2; ++r) {
        KernelFixture fx(wavyMap(0.02), r == 0 ? 8 : 16, constPrim);
        fx.runWeno(KernelVariant::Portable);
        double worst = 0.0;
        auto a = fx.dU.const_array();
        amr::forEachCell(fx.geom.domain(), [&](int i, int j, int k) {
            for (int nc = 0; nc < NCONS; ++nc)
                worst = std::max(worst, std::abs(a(i, j, k, nc)));
        });
        errs[r] = worst;
    }
    EXPECT_LT(errs[1], errs[0]);
    EXPECT_LT(errs[1], 0.5);
}

class VariantEquivalence : public ::testing::TestWithParam<WenoScheme> {};

TEST_P(VariantEquivalence, FortranStyleMatchesPortableBitForBit) {
    // §IV-A: the L2 norm of the per-variable difference between the two
    // kernel structures plateaued at ~1e-7 for the paper's (different-
    // language) versions. Our two C++ structures call the same interfaceFlux
    // per face and evaluate every per-point expression in the same order,
    // so their dU must be identical bit for bit.
    auto prim = [](Real x, Real y, Real z) {
        return std::array<Real, 5>{1.0 + 0.2 * std::sin(2 * M_PI * x),
                                   0.5 * std::cos(2 * M_PI * y),
                                   0.1 * std::sin(2 * M_PI * z), 0.05,
                                   1.0 + 0.1 * std::cos(2 * M_PI * x)};
    };
    KernelFixture a(wavyMap(0.02), 12, prim);
    KernelFixture b(wavyMap(0.02), 12, prim);
    a.runWeno(KernelVariant::Portable, GetParam());
    b.runWeno(KernelVariant::FortranStyle, GetParam());
    auto da = a.dU.const_array();
    auto db = b.dU.const_array();
    for (int nc = 0; nc < NCONS; ++nc) {
        const Real l2 = FArrayBox::l2Diff(a.dU, b.dU, a.geom.domain(), nc);
        EXPECT_LT(l2, 1e-7) << "component " << nc; // the paper's criterion
        int differing = 0;
        amr::forEachCell(a.geom.domain(), [&](int i, int j, int k) {
            if (std::bit_cast<std::uint64_t>(da(i, j, k, nc)) !=
                std::bit_cast<std::uint64_t>(db(i, j, k, nc)))
                ++differing;
        });
        EXPECT_EQ(differing, 0) << "component " << nc; // and bit for bit
    }
}

INSTANTIATE_TEST_SUITE_P(Schemes, VariantEquivalence,
                         ::testing::Values(WenoScheme::JS5, WenoScheme::Symbo));

TEST(WenoKernel, ConservesOnPeriodicUniformGrid) {
    // Sum of J * dU over a periodic domain telescopes to zero.
    auto prim = [](Real x, Real y, Real) {
        return std::array<Real, 5>{1.0 + 0.3 * std::sin(2 * M_PI * x),
                                   0.4 * std::sin(2 * M_PI * y), 0.1, -0.2,
                                   1.0 + 0.2 * std::cos(2 * M_PI * x)};
    };
    KernelFixture fx(uniformMap(), 16, prim);
    fx.runWeno(KernelVariant::Portable);
    auto a = fx.dU.const_array();
    auto m = fx.metrics.const_array();
    for (int nc = 0; nc < NCONS; ++nc) {
        Real total = 0.0;
        amr::forEachCell(fx.geom.domain(), [&](int i, int j, int k) {
            total += a(i, j, k, nc) * mesh::jacobian(m, i, j, k);
        });
        EXPECT_NEAR(total, 0.0, 1e-9) << "component " << nc;
    }
}

/// A 12x10x8 fab on a wavy grid whose state carries an oblique Mach-10-like
/// shock (DMR's pre- and post-shock states) over smooth perturbations of
/// every component. The jump puts a discontinuity inside the six-cell
/// window of faces in every direction, so the SYMBO limiter drops the
/// downwind stencil there.
struct ShockFab {
    Geometry geom;
    FArrayBox coords, metrics, S, dU;
    GasModel gas;

    ShockFab() {
        geom = Geometry(Box(IntVect::zero(), IntVect(11, 9, 7)), {0, 0, 0},
                        {1, 1, 1}, amr::Periodicity::none());
        mesh::CoordStore store(wavyMap(0.03), geom, IntVect(2), 0, NGHOST + 3);
        const Box grown = geom.domain().grow(NGHOST);
        coords = FArrayBox(geom.domain().grow(NGHOST + 3), 3);
        store.getCoords(coords, 0);
        metrics = FArrayBox(grown, mesh::MetricComps);
        mesh::computeMetricsFab(coords.const_array(), metrics.array(), grown,
                                geom.cellSizeArray());
        S = FArrayBox(grown, NCONS);
        auto s = S.array();
        auto x = coords.const_array();
        amr::forEachCell(grown, [&](int i, int j, int k) {
            const Real px = x(i, j, k, 0), py = x(i, j, k, 1), pz = x(i, j, k, 2);
            const bool post = px + 0.6 * py + 0.3 * pz < 0.7;
            const Real wig = 0.05 * std::sin(7.0 * px + 3.0 * py - 5.0 * pz);
            const Real rho = (post ? 8.0 : 1.4) * (1.0 + wig);
            const Real u = (post ? 7.1 : 0.2) + wig;
            const Real v = (post ? -4.1 : 0.1) - 0.5 * wig;
            const Real w = 0.3 * std::cos(4.0 * pz + py);
            const Real p = (post ? 116.5 : 1.0) * (1.0 + 0.5 * wig);
            s(i, j, k, URHO) = rho;
            s(i, j, k, UMX) = rho * u;
            s(i, j, k, UMY) = rho * v;
            s(i, j, k, UMZ) = rho * w;
            s(i, j, k, UEDEN) = gas.totalEnergy(rho, u, v, w, p);
        });
        dU = FArrayBox(geom.domain(), NCONS);
    }

    /// A nonzero dU, so the digest also pins how each kernel accumulates.
    void resetDU() {
        auto d = dU.array();
        amr::forEachCell(geom.domain(), [&](int i, int j, int k) {
            for (int n = 0; n < NCONS; ++n)
                d(i, j, k, n) = 1e-3 * std::sin(1.0 + i + 2.0 * j + 3.0 * k + 0.5 * n);
        });
    }

    /// 64-bit FNV-1a over the bytes of every valid dU value, cell-major.
    std::uint64_t digest() const {
        std::uint64_t h = 14695981039346656037ull;
        auto d = dU.const_array();
        amr::forEachCell(geom.domain(), [&](int i, int j, int k) {
            for (int n = 0; n < NCONS; ++n) {
                const auto bits = std::bit_cast<std::uint64_t>(d(i, j, k, n));
                for (int b = 0; b < 8; ++b) {
                    h ^= (bits >> (8 * b)) & 0xffu;
                    h *= 1099511628211ull;
                }
            }
        });
        return h;
    }
};

TEST(KernelDigest, KernelOutputDigestsArePinned) {
    // Every kernel path's dU pinned bit for bit: each WENO direction x
    // scheme x reconstruction x variant, and the viscous kernel with the
    // molecular (Sutherland) and subgrid (Smagorinsky) viscosities alone
    // and together. FortranStyleMatchesPortableBitForBit compares the two
    // variants only with each other, and eigen_test the characteristic
    // projection only to a tolerance; these constants catch a change to
    // the per-cell code they share.
    ShockFab fab;
    auto s = fab.S.const_array();
    int jumps = 0;
    amr::forEachCell(fab.geom.domain(), [&](int i, int j, int k) {
        for (int d = 0; d < 3; ++d) {
            const IntVect e = IntVect::basis(d);
            const Real a = s(i, j, k, URHO), b = s(i + e[0], j + e[1], k + e[2], URHO);
            if (std::max(a, b) > 4.0 * std::min(a, b)) ++jumps;
        }
    });
    ASSERT_GT(jumps, 0) << "the fab must carry the shock";

    // The two kernel structures must agree bit for bit, so each WENO
    // constant pins both.
    const std::map<std::string, std::uint64_t> pinned{
        {"viscous/both", 0x7deb37a0dc4c72a1ull},
        {"viscous/smagorinsky", 0x3110c34bf56aa723ull},
        {"viscous/sutherland", 0xacbb1cf30a4ec5a9ull},
        {"weno/x/js5/char", 0x76e80fae0846f652ull},
        {"weno/x/js5/cw", 0x4ffc716f5d6b6b64ull},
        {"weno/x/symbo/char", 0x649b0eee98f205cbull},
        {"weno/x/symbo/cw", 0x4b5900db6089ca65ull},
        {"weno/y/js5/char", 0x11da4295543f0b04ull},
        {"weno/y/js5/cw", 0x9d6aeb724cce08d4ull},
        {"weno/y/symbo/char", 0xb0717eab5b1b8632ull},
        {"weno/y/symbo/cw", 0x0ec5fc19075ec76bull},
        {"weno/z/js5/char", 0xbee9b83d1045016eull},
        {"weno/z/js5/cw", 0xd0f566fa0b513991ull},
        {"weno/z/symbo/char", 0x03eb55ff39a91680ull},
        {"weno/z/symbo/cw", 0xeb22749ccf6512b3ull},
    };
    int checked = 0;
    const auto expectPinned = [&](const std::string& name, const char* variant) {
        const auto it = pinned.find(name);
        ASSERT_NE(it, pinned.end()) << name;
        const std::uint64_t value = fab.digest();
        EXPECT_EQ(value, it->second)
            << name << variant << " 0x" << std::hex << value << "ull";
        ++checked;
    };
    const char* dirName[3] = {"x", "y", "z"};
    for (int dir = 0; dir < 3; ++dir)
        for (auto scheme : {WenoScheme::JS5, WenoScheme::Symbo})
            for (auto recon : {Reconstruction::ComponentWise,
                               Reconstruction::CharacteristicWise})
                for (auto variant : {KernelVariant::Portable,
                                     KernelVariant::FortranStyle}) {
                    fab.resetDU();
                    wenoFlux(dir, s, fab.metrics.const_array(), fab.geom.domain(),
                             fab.dU.array(), fab.geom.cellSize(dir), fab.gas,
                             scheme, variant, recon);
                    expectPinned(
                        std::string("weno/") + dirName[dir] +
                            (scheme == WenoScheme::JS5 ? "/js5" : "/symbo") +
                            (recon == Reconstruction::ComponentWise ? "/cw"
                                                                    : "/char"),
                        variant == KernelVariant::Portable ? " (Portable)"
                                                           : " (FortranStyle)");
                }
    const auto viscous = [&](const std::string& name, Real muRef, Real cs) {
        GasModel gas = fab.gas;
        gas.muRef = muRef;
        SgsModel sgs;
        sgs.cs = cs;
        fab.resetDU();
        viscousFlux(s, fab.metrics.const_array(), fab.geom.domain(),
                    fab.dU.array(), fab.geom.cellSizeArray(), gas,
                    KernelVariant::Portable, sgs);
        expectPinned(name, "");
    };
    viscous("viscous/sutherland", 0.01, 0.0);
    viscous("viscous/smagorinsky", 0.0, 0.1);
    viscous("viscous/both", 0.01, 0.1);
    EXPECT_EQ(checked, 2 * 12 + 3);
}

TEST(WenoKernel, AdvectsDensityWaveInRightDirection) {
    // rho-wave moving with u > 0: d(rho)/dt = -u d(rho)/dx; check the sign
    // and approximate magnitude against the analytic RHS.
    const Real u0 = 0.5;
    auto prim = [u0](Real x, Real, Real) {
        return std::array<Real, 5>{1.0 + 0.01 * std::sin(2 * M_PI * x), u0, 0.0,
                                   0.0, 1.0};
    };
    KernelFixture fx(uniformMap(), 32, prim);
    fx.runWeno(KernelVariant::Portable, WenoScheme::JS5);
    auto a = fx.dU.const_array();
    auto x = fx.coords.const_array();
    double worst = 0.0;
    amr::forEachCell(fx.geom.domain(), [&](int i, int j, int k) {
        const Real exact = -u0 * 0.01 * 2 * M_PI * std::cos(2 * M_PI * x(i, j, k, 0));
        worst = std::max(worst, std::abs(a(i, j, k, URHO) - exact));
    });
    EXPECT_LT(worst, 2e-3);
}

} // namespace
} // namespace crocco::core
