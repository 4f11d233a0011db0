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

/// 4th-order central first derivatives along dim d of the N components
/// comp[0..N) of f at one cell, out[r] for comp[r]; `c` is the hoisted
/// factor (1/dxi_d)/12. One call per direction shares the stencil's cell
/// offsets across the components.
template <int N>
inline void d1(const Array4<const Real>& f, int i, int j, int k,
               const int (&comp)[N], int d, Real c, Real (&out)[N]) {
    const IntVect e = IntVect::basis(d);
    for (int r = 0; r < N; ++r) {
        const int m = comp[r];
        out[r] = (-f(i + 2 * e[0], j + 2 * e[1], k + 2 * e[2], m) +
                  8.0 * f(i + e[0], j + e[1], k + e[2], m) -
                  8.0 * f(i - e[0], j - e[1], k - e[2], m) +
                  f(i - 2 * e[0], j - 2 * e[1], k - 2 * e[2], m)) *
                 c;
    }
}

// Primitive component roles, in the order the gradient loop visits them.
constexpr int QU = 0, QV = 1, QW = 2, QT = 3, QRHO = 4, NPRIM = 5;
/// Contravariant viscous flux Theta^d: 3 momentum + 1 energy per direction.
constexpr int thetaComp(int d, int m) { return 4 * d + m; }

/// The Theta and divergence kernels of viscousFlux and viscousFluxFused,
/// which differ only in where the primitives and J come from: `q` holds
/// the primitive of role r at component comp[r] on validBox.grow(4), and
/// jac(i, j, k) is the Jacobian determinant there.
///
/// Loop-invariant factors are hoisted out of the per-cell lambdas: the
/// derivative factors (1/dxi_d)/12, cp, and the cell spacings of the filter
/// volume, whose product keeps its per-cell order ((J dxi) deta) dzeta.
/// Sutherland's law runs once per cell; the conductivity is muL * cp /
/// prandtl, the expression GasModel::conductivity evaluates.
template <typename Jacobian>
void viscousKernels(const Array4<const Real>& q, const int (&comp)[NPRIM],
                    const Jacobian& jac, const Array4<const Real>& metrics,
                    const Box& validBox, const Array4<Real>& dU,
                    const std::array<Real, 3>& dxi, const GasModel& gas,
                    const SgsModel& sgs) {
    const Real c[3] = {(1.0 / dxi[0]) / 12.0, (1.0 / dxi[1]) / 12.0,
                       (1.0 / dxi[2]) / 12.0};
    const Real dx0 = dxi[0], dx1 = dxi[1], dx2 = dxi[2];
    const Real cp = gas.cp();

    // Kernel 1: stress tensor, heat flux, and the contravariant viscous
    // fluxes Theta^d at every cell the divergence stencil reads.
    const Box fluxBox = validBox.grow(2);
    FArrayBox thetaFab(fluxBox, 12);
    auto th = thetaFab.array();
    gpu::ParallelFor(fluxBox, [&](int i, int j, int k) {
        // Physical-space gradients by the chain rule:
        // dphi/dx_m = sum_d (dxi_d/dx_m) dphi/dxi_d.
        Real gxi[3][NPRIM]; // computational gradients, gxi[d][role]
        for (int d = 0; d < 3; ++d) d1(q, i, j, k, comp, d, c[d], gxi[d]);
        Real M[3][3];
        for (int d = 0; d < 3; ++d)
            for (int m = 0; m < 3; ++m) M[d][m] = metrics(i, j, k, metric1(d, m));
        Real gu[3][3], gT[3];
        for (int m = 0; m < 3; ++m) {
            for (int vc = 0; vc < 3; ++vc) {
                gu[vc][m] = 0.0;
                for (int d = 0; d < 3; ++d) gu[vc][m] += M[d][m] * gxi[d][vc];
            }
            gT[m] = 0.0;
            for (int d = 0; d < 3; ++d) gT[m] += M[d][m] * gxi[d][QT];
        }
        // gu[a][b] = du_a/dx_b is the layout the SGS model wants.
        const Real J = jac(i, j, k);
        const Real delta = SgsModel::filterWidth(J * dx0 * dx1 * dx2);
        const Real muT = sgs.eddyViscosity(gu, q(i, j, k, comp[QRHO]), delta);
        const Real muL = gas.viscosity(q(i, j, k, comp[QT]));
        const Real mu = muL + muT;
        const Real lambda = muL * cp / gas.prandtl + muT * cp / sgs.prandtlT;
        const Real divu = gu[0][0] + gu[1][1] + gu[2][2];
        Real tau[3][3];
        for (int a = 0; a < 3; ++a)
            for (int b = 0; b < 3; ++b)
                tau[a][b] = mu * (gu[a][b] + gu[b][a] -
                                  (a == b ? (2.0 / 3.0) * divu : 0.0));
        const Real u[3] = {q(i, j, k, comp[QU]), q(i, j, k, comp[QV]),
                           q(i, j, k, comp[QW])};
        for (int d = 0; d < 3; ++d) {
            for (int a = 0; a < 3; ++a) {
                Real s = 0.0;
                for (int b = 0; b < 3; ++b) s += M[d][b] * tau[a][b];
                th(i, j, k, thetaComp(d, a)) = J * s;
            }
            Real se = 0.0;
            for (int b = 0; b < 3; ++b) {
                Real work = lambda * gT[b];
                for (int a = 0; a < 3; ++a) work += u[a] * tau[a][b];
                se += M[d][b] * work;
            }
            th(i, j, k, thetaComp(d, 3)) = J * se;
        }
    });

    // Kernel 2: divergence of Theta into dU (viscous terms enter the RHS
    // with a positive sign).
    auto thc = thetaFab.const_array();
    gpu::ParallelFor(validBox, [&](int i, int j, int k) {
        const Real Jinv = 1.0 / jac(i, j, k);
        for (int d = 0; d < 3; ++d) {
            const int tc[4] = {thetaComp(d, 0), thetaComp(d, 1), thetaComp(d, 2),
                               thetaComp(d, 3)};
            Real div[4];
            d1(thc, i, j, k, tc, d, c[d], div);
            dU(i, j, k, UMX) += Jinv * div[0];
            dU(i, j, k, UMY) += Jinv * div[1];
            dU(i, j, k, UMZ) += Jinv * div[2];
            dU(i, j, k, UEDEN) += Jinv * div[3];
        }
    });
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
    const Box primBox = validBox.grow(4);
    FArrayBox primFab(primBox, NPRIM);
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

    // Kernels 2-3: Theta and its divergence, J recomputed from the metrics.
    constexpr int primComp[NPRIM] = {QU, QV, QW, QT, QRHO};
    viscousKernels(
        primFab.const_array(), primComp,
        [&](int i, int j, int k) { return jacobian(metrics, i, j, k); }, metrics,
        validBox, dU, dxi, gas, sgs);
}

void viscousFluxFused(const Array4<const Real>& cache,
                      const Array4<const Real>& metrics, const Box& validBox,
                      const Array4<Real>& dU, const std::array<Real, 3>& dxi,
                      const GasModel& gas, const SgsModel& sgs) {
    assert(gas.viscous() || sgs.active());

    // The unfused kernels 2-3 over the shared cache: the same roles at the
    // cache's components, J read instead of recomputed (bit-equal operands).
    constexpr int cacheComp[NPRIM] = {fused::QC_U, fused::QC_V, fused::QC_W,
                                      fused::QC_T, fused::QC_RHO};
    viscousKernels(
        cache, cacheComp,
        [&](int i, int j, int k) { return cache(i, j, k, fused::QC_J); }, metrics,
        validBox, dU, dxi, gas, sgs);
}

} // namespace crocco::core
