#include "core/Viscous.hpp"

#include "amr/FArrayBox.hpp"
#include "gpu/Gpu.hpp"
#include "mesh/GridMetrics.hpp"

#include <cassert>

namespace crocco::core {

using amr::FArrayBox;
using amr::IntVect;
using mesh::jacobian;
using mesh::metric1;

namespace {

/// 4th-order central first derivatives along dim D of the N components
/// comp[0..N) of f at one cell, out[r] for comp[r]; `c` is the hoisted
/// factor (1/dxi_D)/12. One call per direction shares the stencil's cell
/// offsets across the components.
template <int D, int N>
inline void d1(const Array4<const Real>& f, int i, int j, int k,
               const int (&comp)[N], Real c, Real (&out)[N]) {
    static_assert(N <= 5, "the unroll pragma below covers N <= 5");
    constexpr IntVect e = IntVect::basis(D);
#pragma GCC unroll 5
    for (int r = 0; r < N; ++r) {
        const int m = comp[r];
        out[r] = (-f(i + 2 * e[0], j + 2 * e[1], k + 2 * e[2], m) +
                  8.0 * f(i + e[0], j + e[1], k + e[2], m) -
                  8.0 * f(i - e[0], j - e[1], k - e[2], m) +
                  f(i - 2 * e[0], j - 2 * e[1], k - 2 * e[2], m)) *
                 c;
    }
}

// Primitive components, in the order the gradient loop visits them.
constexpr int QU = 0, QV = 1, QW = 2, QT = 3, QRHO = 4, NPRIM = 5;
/// Contravariant viscous flux Theta^d: 3 momentum + 1 energy per direction.
constexpr int thetaComp(int d, int m) { return 4 * d + m; }

/// Direction D's term of the divergence of Theta at one cell:
/// dU += Jinv * dTheta^D/dxi_D for the three momenta and the energy.
template <int D>
inline void addThetaDivergence(const Array4<const Real>& th, int i, int j,
                               int k, Real c, Real Jinv,
                               const Array4<Real>& dU) {
    constexpr int tc[4] = {thetaComp(D, 0), thetaComp(D, 1), thetaComp(D, 2),
                           thetaComp(D, 3)};
    Real div[4];
    d1<D>(th, i, j, k, tc, c, div);
    dU(i, j, k, UMX) += Jinv * div[0];
    dU(i, j, k, UMY) += Jinv * div[1];
    dU(i, j, k, UMZ) += Jinv * div[2];
    dU(i, j, k, UEDEN) += Jinv * div[3];
}

} // namespace

void viscousFlux(const Array4<const Real>& S, const Array4<const Real>& metrics,
                 const Box& validBox, const Array4<Real>& dU,
                 const std::array<Real, 3>& dxi, const GasModel& gas,
                 KernelVariant /*variant: both code paths share this staged
                                  implementation; the Fortran/C++ structural
                                  difference the paper measures is dominated
                                  by the WENO kernels (see Weno.cpp)*/,
                 const SgsModel& sgs) {
    assert(gas.viscous() || sgs.active());

    // Kernel 1: primitive fields over the widest region (pass 2 reads +-2).
    // Both scratch fabs are unfilled, as fresh device allocations are;
    // check builds poison them so any read before the write is caught.
    const Box primBox = validBox.grow(4);
    FArrayBox primFab;
    primFab.resize(primBox, NPRIM);
    primFab.markUninitialized(primBox);
    auto q = primFab.array();
    // toPrim's expressions without its sound speed, which nothing reads.
    gpu::ParallelFor(primBox, [&](int i, int j, int k) {
        const Real rho = S(i, j, k, URHO), rinv = 1.0 / rho;
        const Real u = S(i, j, k, UMX) * rinv;
        const Real v = S(i, j, k, UMY) * rinv;
        const Real w = S(i, j, k, UMZ) * rinv;
        const Real p = gas.pressure(rho, u, v, w, S(i, j, k, UEDEN));
        q(i, j, k, QU) = u;
        q(i, j, k, QV) = v;
        q(i, j, k, QW) = w;
        q(i, j, k, QT) = gas.temperature(rho, p);
        q(i, j, k, QRHO) = rho;
    });

    // Loop-invariant factors are hoisted out of the per-cell lambdas: the
    // derivative factors (1/dxi_d)/12, cp, and the cell spacings of the filter
    // volume, whose product keeps its per-cell order ((J dxi) deta) dzeta.
    // Sutherland's law runs once per cell; the conductivity is muL * cp /
    // prandtl, the expression GasModel::conductivity evaluates.
    const Real c[3] = {(1.0 / dxi[0]) / 12.0, (1.0 / dxi[1]) / 12.0,
                       (1.0 / dxi[2]) / 12.0};
    const Real dx0 = dxi[0], dx1 = dxi[1], dx2 = dxi[2];
    const Real cp = gas.cp();

    // Kernel 2: stress tensor, heat flux, and the contravariant viscous
    // fluxes Theta^d at every cell the divergence stencil reads.
    const Box fluxBox = validBox.grow(2);
    FArrayBox thetaFab;
    thetaFab.resize(fluxBox, 12);
    thetaFab.markUninitialized(fluxBox);
    auto th = thetaFab.array();
    auto qc = primFab.const_array();
    gpu::ParallelFor(fluxBox, [&](int i, int j, int k) {
        // Physical-space gradients by the chain rule:
        // dphi/dx_m = sum_d (dxi_d/dx_m) dphi/dxi_d.
        constexpr int prim[NPRIM] = {QU, QV, QW, QT, QRHO};
        Real gxi[3][NPRIM]; // computational gradients, gxi[d][component]
        d1<0>(qc, i, j, k, prim, c[0], gxi[0]);
        d1<1>(qc, i, j, k, prim, c[1], gxi[1]);
        d1<2>(qc, i, j, k, prim, c[2], gxi[2]);
        Real M[3][3];
#pragma GCC unroll 3
        for (int d = 0; d < 3; ++d)
#pragma GCC unroll 3
            for (int m = 0; m < 3; ++m) M[d][m] = metrics(i, j, k, metric1(d, m));
        Real gu[3][3], gT[3];
#pragma GCC unroll 3
        for (int m = 0; m < 3; ++m) {
#pragma GCC unroll 3
            for (int vc = 0; vc < 3; ++vc) {
                gu[vc][m] = 0.0;
#pragma GCC unroll 3
                for (int d = 0; d < 3; ++d) gu[vc][m] += M[d][m] * gxi[d][vc];
            }
            gT[m] = 0.0;
#pragma GCC unroll 3
            for (int d = 0; d < 3; ++d) gT[m] += M[d][m] * gxi[d][QT];
        }
        // gu[a][b] = du_a/dx_b is the layout the SGS model wants.
        const Real J = jacobian(metrics, i, j, k);
        const Real delta = SgsModel::filterWidth(J * dx0 * dx1 * dx2);
        const Real muT = sgs.eddyViscosity(gu, qc(i, j, k, QRHO), delta);
        const Real muL = gas.viscosity(qc(i, j, k, QT));
        const Real mu = muL + muT;
        const Real lambda = muL * cp / gas.prandtl + muT * cp / sgs.prandtlT;
        const Real divu = gu[0][0] + gu[1][1] + gu[2][2];
        Real tau[3][3];
#pragma GCC unroll 3
        for (int a = 0; a < 3; ++a)
#pragma GCC unroll 3
            for (int b = 0; b < 3; ++b)
                tau[a][b] = mu * (gu[a][b] + gu[b][a] -
                                  (a == b ? (2.0 / 3.0) * divu : 0.0));
        const Real u[3] = {qc(i, j, k, QU), qc(i, j, k, QV), qc(i, j, k, QW)};
#pragma GCC unroll 3
        for (int d = 0; d < 3; ++d) {
#pragma GCC unroll 3
            for (int a = 0; a < 3; ++a) {
                Real s = 0.0;
#pragma GCC unroll 3
                for (int b = 0; b < 3; ++b) s += M[d][b] * tau[a][b];
                th(i, j, k, thetaComp(d, a)) = J * s;
            }
            Real se = 0.0;
#pragma GCC unroll 3
            for (int b = 0; b < 3; ++b) {
                Real work = lambda * gT[b];
#pragma GCC unroll 3
                for (int a = 0; a < 3; ++a) work += u[a] * tau[a][b];
                se += M[d][b] * work;
            }
            th(i, j, k, thetaComp(d, 3)) = J * se;
        }
    });

    // Kernel 3: divergence of Theta into dU (viscous terms enter the RHS
    // with a positive sign).
    auto thc = thetaFab.const_array();
    gpu::ParallelFor(validBox, [&](int i, int j, int k) {
        const Real Jinv = 1.0 / jacobian(metrics, i, j, k);
        addThetaDivergence<0>(thc, i, j, k, c[0], Jinv, dU);
        addThetaDivergence<1>(thc, i, j, k, c[1], Jinv, dU);
        addThetaDivergence<2>(thc, i, j, k, c[2], Jinv, dU);
    });
}

} // namespace crocco::core
