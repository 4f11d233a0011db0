#include "problems/Dmr.hpp"

#include <cmath>

namespace crocco::problems {

using amr::Box;
using amr::Geometry;
using amr::IntVect;
using amr::MultiFab;
using core::NCONS;
using core::UEDEN;
using core::UMX;
using core::UMY;
using core::UMZ;
using core::URHO;

namespace {

constexpr Real kGamma = 1.4;
constexpr Real kSqrt3 = 1.7320508075688772;

std::array<Real, NCONS> consState(Real rho, Real u, Real v, Real w, Real p) {
    return {rho, rho * u, rho * v, rho * w,
            p / (kGamma - 1.0) + 0.5 * rho * (u * u + v * v + w * w)};
}

} // namespace

std::array<Real, NCONS> Dmr::preShockState() {
    // Quiescent gas ahead of the shock: rho = 1.4, p = 1 (so a = 1).
    return consState(1.4, 0.0, 0.0, 0.0, 1.0);
}

std::array<Real, NCONS> Dmr::postShockState() {
    // Exact Rankine-Hugoniot state behind a Mach 10 shock inclined 60
    // degrees to the wall (Woodward & Colella 1984).
    const Real speed = 8.25;
    return consState(8.0, speed * kSqrt3 / 2.0, -speed * 0.5, 0.0, 116.5);
}

Real Dmr::shockXAtTop(Real t, Real yTop) {
    // The shock travels at Mach 10 along its normal; its intersection with
    // the horizontal line y = yTop moves at 20/sqrt(3).
    return shockX0 + (yTop + 20.0 * t) / kSqrt3;
}

Dmr::Dmr() : Dmr(Options{}) {}

Dmr::Dmr(const Options& opts) : opts_(opts) {
    const Box domain(IntVect::zero(), IntVect{opts.nx - 1, opts.ny - 1, opts.nz - 1});
    amr::Periodicity per;
    per.periodic[2] = true; // spanwise
    geom_ = Geometry(domain, {0, 0, 0}, {1, 1, 1}, per);
    const std::array<Real, 3> lo{0.0, 0.0, 0.0};
    const std::array<Real, 3> hi{4.0, 1.0, opts.spanZ};
    if (opts.curvilinear) {
        mapping_ = std::make_shared<mesh::InteriorWavyMapping>(lo, hi,
                                                               opts.waveAmplitude);
    } else {
        mapping_ = std::make_shared<mesh::UniformMapping>(lo, hi);
    }
}

core::GasModel Dmr::gas() const {
    core::GasModel g;
    g.gamma = kGamma;
    g.muRef = 0.0; // inviscid
    return g;
}

core::InitFunct Dmr::initialCondition() const {
    return [](Real x, Real y, Real /*z*/) {
        // Post-shock to the left of the 60-degree shock through (x0, 0).
        return (x < shockX0 + y / kSqrt3) ? postShockState() : preShockState();
    };
}

amr::PhysBCFunct Dmr::boundaryConditions() const {
    auto mapping = mapping_;
    return [mapping](MultiFab& mf, const Geometry& geom, Real time) {
        const Box& domain = geom.domain();
        const auto post = postShockState();
        const auto pre = preShockState();
        // Physical x of a (possibly ghost) cell, from the analytic mapping
        // in the BC functor (scratch MultiFabs need not carry coordinates).
        auto physX = [&](int i, int j, int k) {
            const Real xi = geom.cellCenter(i, 0);
            const Real eta = geom.cellCenter(j, 1);
            Real zeta = geom.cellCenter(k, 2);
            zeta -= std::floor(zeta); // spanwise periodic wrap
            return mapping->toPhysical(xi, eta, zeta)[0];
        };
        core::forEachFab(mf, [&](int f) {
            auto a = mf.array(f);
            // Mirror/edge sources read through a const view; the sweep
            // regions (core::bcSweepRegion) clamp each x sweep away from the
            // y ghost rows, whose corner cells belong to the later y sweeps
            // — so every source read here is already filled, and the final
            // ghost values are bitwise identical to the unclamped fill.
            const auto src = mf.const_array(f);
            const Box grown = mf.grownBox(f);

            // x-low: supersonic inflow at the post-shock state.
            amr::forEachCell(core::bcSweepRegion(grown, domain, 0, 0, geom),
                             [&](int i, int j, int k) {
                                 for (int n = 0; n < NCONS; ++n)
                                     a(i, j, k, n) = post[static_cast<std::size_t>(n)];
                             });
            // x-high: supersonic outflow (zero-gradient).
            amr::forEachCell(core::bcSweepRegion(grown, domain, 0, 1, geom),
                             [&](int i, int j, int k) {
                                 for (int n = 0; n < NCONS; ++n)
                                     a(i, j, k, n) = src(domain.bigEnd(0), j, k, n);
                             });
            // y-low: post-shock inflow before the ramp foot (x < 1/6),
            // inviscid reflecting wall after it.
            amr::forEachCell(
                core::bcSweepRegion(grown, domain, 1, 0, geom),
                [&](int i, int j, int k) {
                    if (physX(i, j, k) < shockX0) {
                        for (int n = 0; n < NCONS; ++n)
                            a(i, j, k, n) = post[static_cast<std::size_t>(n)];
                    } else {
                        const int jm = 2 * domain.smallEnd(1) - 1 - j; // mirror
                        for (int n = 0; n < NCONS; ++n)
                            a(i, j, k, n) = src(i, jm, k, n);
                        a(i, j, k, UMY) = -src(i, jm, k, UMY);
                    }
                });
            // y-high: exact states tracking the moving incident shock.
            amr::forEachCell(
                core::bcSweepRegion(grown, domain, 1, 1, geom),
                [&](int i, int j, int k) {
                    const auto& s =
                        physX(i, j, k) < shockXAtTop(time, 1.0) ? post : pre;
                    for (int n = 0; n < NCONS; ++n)
                        a(i, j, k, n) = s[static_cast<std::size_t>(n)];
                });
            // z: periodic, handled by FillBoundary.
        });
    };
}

core::CroccoAmr::Config Dmr::solverConfig(core::CodeVersion v) const {
    auto cfg = core::CroccoAmr::Config::forVersion(v);
    if (cfg.amrInfo.maxLevel > 0) cfg.amrInfo.maxLevel = opts_.maxLevel;
    cfg.amrInfo.blockingFactor = 8;
    cfg.amrInfo.maxGridSize = 32;
    cfg.gas = gas();
    cfg.cfl = 0.5;
    cfg.regridFreq = 5;
    cfg.tagging = {core::TagCriterion::DensityGradient, 0.3};
    return cfg;
}

} // namespace crocco::problems
