#include "core/Weno.hpp"

#include <gtest/gtest.h>

#include <array>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <random>
#include <vector>

namespace crocco::core {
namespace {

class WenoScheme_P : public ::testing::TestWithParam<WenoScheme> {};

TEST_P(WenoScheme_P, ReproducesConstants) {
    const Real f[6] = {3.5, 3.5, 3.5, 3.5, 3.5, 3.5};
    EXPECT_NEAR(wenoReconstruct(f, GetParam()), 3.5, 1e-13);
}

TEST_P(WenoScheme_P, ReproducesLinearData) {
    // Linear data has identical candidate reconstructions, so the nonlinear
    // weights are irrelevant and the result is the exact midpoint value.
    Real f[6];
    for (int i = 0; i < 6; ++i) f[i] = 2.0 * (i - 2) + 1.0; // cell i is f[2]
    EXPECT_NEAR(wenoReconstruct(f, GetParam()), 2.0 * 0.5 + 1.0, 1e-12);
}

TEST_P(WenoScheme_P, FluxDifferenceIsHighOrderOnSmoothData) {
    // Finite-difference WENO reconstructs the numerical flux h(x_{i+1/2}),
    // not f(x_{i+1/2}) itself: the high-order property is that the flux
    // *difference* approximates the derivative, (R_{i+1/2} - R_{i-1/2})/h =
    // f'(x_i) + O(h^5) for the linear scheme. Measure that order.
    auto runAt = [&](double h) {
        Real lo[6], hi[6];
        for (int i = 0; i < 6; ++i) {
            lo[i] = std::sin(1.0 + (i - 3) * h); // window for i-1/2
            hi[i] = std::sin(1.0 + (i - 2) * h); // window for i+1/2
        }
        const double deriv =
            (wenoReconstruct(hi, GetParam()) - wenoReconstruct(lo, GetParam())) / h;
        return std::abs(deriv - std::cos(1.0));
    };
    const double e1 = runAt(0.2), e2 = runAt(0.1);
    EXPECT_GT(std::log2(e1 / e2), 3.5) << e1 << " " << e2;
}

TEST_P(WenoScheme_P, NonOscillatoryAtJump) {
    // A step must not produce values outside [min, max] of the data (ENO
    // property, small epsilon-tolerance allowed).
    const Real f[6] = {1.0, 1.0, 1.0, 10.0, 10.0, 10.0};
    const Real v = wenoReconstruct(f, GetParam());
    EXPECT_GE(v, 1.0 - 0.02);
    EXPECT_LE(v, 10.0 + 0.02);
    const Real g[6] = {10.0, 10.0, 10.0, 1.0, 1.0, 1.0};
    const Real w = wenoReconstruct(g, GetParam());
    EXPECT_GE(w, 1.0 - 0.02);
    EXPECT_LE(w, 10.0 + 0.02);
}

TEST_P(WenoScheme_P, UpwindBiasAtDownstreamShock) {
    // With a discontinuity in the downwind half of the window, the
    // left-biased reconstruction must come from the smooth upwind data.
    const Real f[6] = {2.0, 2.0, 2.0, 2.0, 50.0, 50.0};
    const Real v = wenoReconstruct(f, GetParam());
    EXPECT_NEAR(v, 2.0, 0.5);
}

TEST_P(WenoScheme_P, PairLanesEqualScalarReferenceBitForBit) {
    // Each lane of wenoReconstructPair must be wenoReconstruct of its own
    // window, bit for bit (a NaN lane need only be NaN): on 1e5 random
    // window pairs, and on adversarial windows for the smoothness selects
    // and the SYMBO limiter.
    const WenoScheme scheme = GetParam();
    using Window = std::array<Real, 6>;
    const auto sameBits = [](Real a, Real b) {
        return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b) ||
               (std::isnan(a) && std::isnan(b));
    };
    int checked = 0;
    const auto check = [&](const Window& w0, const Window& w1) {
        RealPair f[6];
        for (int l = 0; l < 6; ++l) f[l] = RealPair{w0[l], w1[l]};
        const RealPair r = wenoReconstructPair(f, scheme);
        const Real ref0 = wenoReconstruct(w0.data(), scheme);
        const Real ref1 = wenoReconstruct(w1.data(), scheme);
        ASSERT_TRUE(sameBits(r[0], ref0))
            << "lane 0: " << r[0] << " vs " << ref0 << " window[0] " << w0[0];
        ASSERT_TRUE(sameBits(r[1], ref1))
            << "lane 1: " << r[1] << " vs " << ref1 << " window[0] " << w1[0];
        ++checked;
    };

    // Random windows: smooth samples, jumps, and values spread over many
    // decades with either sign.
    std::mt19937_64 rng(20260417);
    std::uniform_real_distribution<Real> unit(-1.0, 1.0);
    std::uniform_int_distribution<int> kind(0, 3), decade(-12, 12), pos(0, 5);
    const auto randomWindow = [&] {
        Window w;
        switch (kind(rng)) {
        case 0: { // smooth
            const Real x0 = 10.0 * unit(rng), h = 0.5 * (1.0 + unit(rng));
            for (int l = 0; l < 6; ++l) w[l] = std::sin(x0 + l * h);
            break;
        }
        case 1: { // a jump at a random position
            const Real a = unit(rng), b = 100.0 * unit(rng);
            const int at = pos(rng);
            for (int l = 0; l < 6; ++l) w[l] = l < at ? a : b;
            break;
        }
        case 2: // independent values over many decades
            for (Real& x : w) x = unit(rng) * std::pow(10.0, decade(rng));
            break;
        default: { // one scale per window
            const Real scale = std::pow(10.0, decade(rng));
            for (Real& x : w) x = scale * unit(rng);
        }
        }
        return w;
    };
    for (int n = 0; n < 100000; ++n) check(randomWindow(), randomWindow());

    // Adversarial windows, each paired with every other in both lanes.
    constexpr Real inf = std::numeric_limits<Real>::infinity();
    constexpr Real nan = std::numeric_limits<Real>::quiet_NaN();
    constexpr Real tiny = std::numeric_limits<Real>::denorm_min();
    constexpr Real minNormal = std::numeric_limits<Real>::min();
    std::vector<Window> adv = {
        {0, 0, 0, 0, 0, 0},                   // every beta ties at 0
        {-0.0, -0.0, -0.0, -0.0, -0.0, -0.0}, // negative zeros
        {0.0, -0.0, 0.0, -0.0, 0.0, -0.0},
        {0, 1, 2, 3, 4, 5},                   // linear: every beta ties
        {5, 4, 3, 2, 1, 0},
        {1, 2, 3, 3, 2, 1},                   // mirror pairs tie
        {1, 2, 1, 2, 1, 2},                   // ties at the max
        {2, 2, 2, 7, 2, 2},
        {1, 1, 1, 1, 1, 9},                   // ties at the min
        {tiny, 0, tiny, 0, tiny, 0},          // subnormal data and betas
        {tiny, 2 * tiny, 3 * tiny, 4 * tiny, 5 * tiny, 6 * tiny},
        {minNormal, -minNormal, minNormal, 0, -tiny, tiny},
        {1e-160, -1e-160, 1e-160, 2e-160, 0, 1e-160}, // betas underflow
        {inf, 1, 1, 1, 1, 1},
        {1, 1, -inf, 1, 1, 1},
        {1, 1, 1, 1, 1, inf},
        {inf, inf, inf, inf, inf, inf},
        {nan, 1, 1, 1, 1, 1},
        {1, 1, 1, 1, 1, nan},
        {1e200, -1e200, 1e200, -1e200, 1e200, 1e200}, // betas overflow
    };
    // beta_max exactly at 5 beta_min + eps: the limiter keeps the downwind
    // stencil there and drops it one ulp above. Windows {f0, f1, 0, t, 2t,
    // 3t} have beta_0 as the maximum and the minimum 0 (t = 0) or t^2
    // (t > 0); bisect f0 onto the boundary, then search f0 and f1 by ulps
    // for an exact hit, computing the betas with the reference's
    // expressions. Each hit also runs with f0 one ulp to either side.
    const auto betas = [](const Window& f) {
        return std::array<Real, 4>{
            (13.0 / 12.0) * (f[0] - 2 * f[1] + f[2]) * (f[0] - 2 * f[1] + f[2]) +
                0.25 * (f[0] - 4 * f[1] + 3 * f[2]) * (f[0] - 4 * f[1] + 3 * f[2]),
            (13.0 / 12.0) * (f[1] - 2 * f[2] + f[3]) * (f[1] - 2 * f[2] + f[3]) +
                0.25 * (f[1] - f[3]) * (f[1] - f[3]),
            (13.0 / 12.0) * (f[2] - 2 * f[3] + f[4]) * (f[2] - 2 * f[3] + f[4]) +
                0.25 * (3 * f[2] - 4 * f[3] + f[4]) * (3 * f[2] - 4 * f[3] + f[4]),
            (13.0 / 12.0) * (f[3] - 2 * f[4] + f[5]) * (f[3] - 2 * f[4] + f[5]) +
                0.25 * (3 * f[3] - 4 * f[4] + f[5]) * (3 * f[3] - 4 * f[4] + f[5])};
    };
    // (bmax - (5 bmin + eps)) of a window, exactly zero on the boundary.
    const auto excess = [&](const Window& f) {
        const auto b = betas(f);
        return std::max({b[0], b[1], b[2], b[3]}) -
               (5.0 * std::min({b[0], b[1], b[2], b[3]}) + 1e-6);
    };
    int boundaryHits = 0;
    for (const Real t : {0.0, 1e-4}) {
        const Real f1 = 1e-5;
        Window w = {0, f1, 0, t, 2 * t, 3 * t};
        Real lo = 0.0, hi = 1.0;
        for (int it = 0; it < 200; ++it) {
            w[0] = 0.5 * (lo + hi);
            (excess(w) < 0 ? lo : hi) = w[0];
        }
        bool hit = false;
        Real g0 = lo;
        for (int i = 0; i < 64 && !hit; ++i, g0 = std::nextafter(g0, -inf)) {
            Real g1 = f1;
            for (int j = 0; j < 64 && !hit; ++j, g1 = std::nextafter(g1, inf)) {
                w[0] = std::nextafter(g0, inf);
                w[1] = g1;
                hit = excess(w) == 0.0;
            }
        }
        if (!hit) continue;
        ++boundaryHits;
        Window up = w, down = w;
        up[0] = std::nextafter(w[0], inf);
        down[0] = std::nextafter(w[0], -inf);
        adv.insert(adv.end(), {w, up, down});
    }
    EXPECT_EQ(boundaryHits, 2) << "a window family missed the limiter boundary";
    for (const Window& a : adv)
        for (const Window& b : adv) check(a, b);
    EXPECT_EQ(checked, 100000 + static_cast<int>(adv.size() * adv.size()));
}

INSTANTIATE_TEST_SUITE_P(Schemes, WenoScheme_P,
                         ::testing::Values(WenoScheme::JS5, WenoScheme::Symbo));

TEST(WenoSymbo, UsesDownwindInformationOnSmoothData) {
    // SYMBO's raison d'etre: on smooth data the downwind stencil
    // participates, giving a different (bandwidth-optimized) value than the
    // purely upwind JS5.
    Real f[6];
    for (int i = 0; i < 6; ++i) f[i] = std::sin(0.8 * (i - 2));
    const Real js = wenoReconstruct(f, WenoScheme::JS5);
    const Real sy = wenoReconstruct(f, WenoScheme::Symbo);
    EXPECT_GT(std::abs(js - sy), 1e-8);
    // And SYMBO is *closer* to symmetric than JS5 (its candidate set is
    // symmetric even though its optimized weights retain an upwind bias):
    // the mirror-image window reconstructs closer to the original value.
    Real g[6];
    for (int i = 0; i < 6; ++i) g[i] = f[5 - i];
    const Real asymSy = std::abs(wenoReconstruct(g, WenoScheme::Symbo) - sy);
    const Real asymJs = std::abs(wenoReconstruct(g, WenoScheme::JS5) - js);
    EXPECT_LT(asymSy, asymJs);
}

TEST(WenoSymbo, SharperThanJs5OnSmoothData) {
    // The added downwind stencil raises the design order on smooth data:
    // SYMBO's reconstruction error should beat JS5's.
    double ejs = 0, esy = 0;
    for (int t = 0; t < 10; ++t) {
        const double x0 = 0.3 * t;
        const double h = 0.2;
        Real f[6];
        for (int i = 0; i < 6; ++i) f[i] = std::sin(x0 + (i - 2) * h);
        const double exact = std::sin(x0 + 0.5 * h);
        ejs += std::abs(wenoReconstruct(f, WenoScheme::JS5) - exact);
        esy += std::abs(wenoReconstruct(f, WenoScheme::Symbo) - exact);
    }
    EXPECT_LT(esy, ejs);
}

} // namespace
} // namespace crocco::core
