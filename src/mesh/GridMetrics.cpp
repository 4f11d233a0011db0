#include "mesh/GridMetrics.hpp"

#include "amr/FArrayBox.hpp"

#include <cassert>
#include <cmath>

namespace crocco::mesh {

using amr::FArrayBox;
using amr::IntVect;

namespace {

/// 4th-order central first derivative from the four stencil values at
/// offsets -2, -1, +1, +2; `c` = (1/dξ)/12.
inline Real d1(Real fm2, Real fm1, Real fp1, Real fp2, Real c) {
    return (-fp2 + 8.0 * fp1 - 8.0 * fm1 + fm2) * c;
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

} // namespace

void computeMetricsFab(const Array4<const Real>& coords, const Array4<Real>& metrics,
                       const Box& region, const std::array<Real, 3>& dxi) {
    // Per-call stencil weights: (1/dξ)/12 for the 4th-order first
    // derivative, 0.5·(1/dξ) for the 2nd-order one.
    Real c4[3], c2[3];
    for (int d = 0; d < 3; ++d) {
        c4[d] = (1.0 / dxi[d]) / 12.0;
        c2[d] = 0.5 * (1.0 / dxi[d]);
    }

    // Pass 1: first metrics M = (∂x/∂ξ)^-1 on region.grow(1), held in a
    // scratch fab so pass 2 can difference them.
    const Box r1 = region.grow(1);
    FArrayBox firstTmp(r1, 9);
    auto first = firstTmp.array();
    amr::forEachCell(r1, [&](int i, int j, int k) {
        Real T[3][3], M[3][3];
        for (int m = 0; m < 3; ++m) {
            T[m][0] = d1(coords(i - 2, j, k, m), coords(i - 1, j, k, m),
                         coords(i + 1, j, k, m), coords(i + 2, j, k, m), c4[0]);
            T[m][1] = d1(coords(i, j - 2, k, m), coords(i, j - 1, k, m),
                         coords(i, j + 1, k, m), coords(i, j + 2, k, m), c4[1]);
            T[m][2] = d1(coords(i, j, k - 2, m), coords(i, j, k - 1, m),
                         coords(i, j, k + 1, m), coords(i, j, k + 2, m), c4[2]);
        }
        invert3x3(T, M);
        for (int d = 0; d < 3; ++d)
            for (int m = 0; m < 3; ++m) first(i, j, k, metric1(d, m)) = M[d][m];
    });

    auto firstC = firstTmp.const_array();
    amr::forEachCell(region, [&](int i, int j, int k) {
        // D[n][e] = ∂(first metric n)/∂ξ_e by 2nd-order central differences:
        // the 27 distinct derivatives the 18 second metrics share.
        Real M[9], D[9][3];
        for (int n = 0; n < 9; ++n) {
            M[n] = firstC(i, j, k, n);
            D[n][0] = (firstC(i + 1, j, k, n) - firstC(i - 1, j, k, n)) * c2[0];
            D[n][1] = (firstC(i, j + 1, k, n) - firstC(i, j - 1, k, n)) * c2[1];
            D[n][2] = (firstC(i, j, k + 1, n) - firstC(i, j, k - 1, n)) * c2[2];
        }
        for (int n = 0; n < 9; ++n) metrics(i, j, k, n) = M[n];
        // Second metrics by the chain rule:
        //   ∂²ξ_d/∂x_j∂x_k = Σ_e (∂ξ_e/∂x_k) ∂(∂ξ_d/∂x_j)/∂ξ_e
        for (int d = 0; d < 3; ++d) {
            for (int jj = 0; jj < 3; ++jj) {
                for (int kk = jj; kk < 3; ++kk) {
                    Real s = 0.0;
                    for (int e = 0; e < 3; ++e)
                        s += M[metric1(e, kk)] * D[metric1(d, jj)][e];
                    metrics(i, j, k, metric2(d, jj, kk)) = s;
                }
            }
        }
    });
}

void computeMetrics(const amr::MultiFab& coords, amr::MultiFab& metrics,
                    const amr::Geometry& geom) {
    assert(coords.nGrow() >= metrics.nGrow() + 3);
    assert(metrics.nComp() == MetricComps && coords.nComp() == 3);
    assert(coords.boxArray() == metrics.boxArray());
    const std::array<Real, 3> dxi = geom.cellSizeArray();
    for (int i = 0; i < metrics.numFabs(); ++i) {
        computeMetricsFab(coords.const_array(i), metrics.array(i),
                          metrics.grownBox(i), dxi);
    }
}

Real gclResidual(const Array4<const Real>& metrics, const Box& region,
                 const std::array<Real, 3>& dxi) {
    Real worst = 0.0;
    amr::forEachCell(region, [&](int i, int j, int k) {
        for (int m = 0; m < 3; ++m) {
            Real r = 0.0;
            for (int d = 0; d < 3; ++d) {
                const IntVect e = IntVect::basis(d);
                // 2nd-order central difference of J * ∂ξ_d/∂x_m along ξ_d.
                const Real fp = jacobian(metrics, i + e[0], j + e[1], k + e[2]) *
                                metrics(i + e[0], j + e[1], k + e[2], metric1(d, m));
                const Real fm = jacobian(metrics, i - e[0], j - e[1], k - e[2]) *
                                metrics(i - e[0], j - e[1], k - e[2], metric1(d, m));
                r += (fp - fm) / (2.0 * dxi[d]);
            }
            worst = std::max(worst, std::abs(r));
        }
    });
    return worst;
}

} // namespace crocco::mesh
