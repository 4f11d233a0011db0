#include "mesh/GridMetrics.hpp"

#include <cassert>
#include <cmath>

namespace crocco::mesh {

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
    // Per-call stencil weights (1/dξ)/12 of the 4th-order first derivative.
    Real c4[3];
    for (int d = 0; d < 3; ++d) c4[d] = (1.0 / dxi[d]) / 12.0;

    // M = (∂x/∂ξ)^-1 per cell: T[m][e] = ∂x_m/∂ξ_e.
    amr::forEachCell(region, [&](int i, int j, int k) {
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
            for (int m = 0; m < 3; ++m) metrics(i, j, k, metric1(d, m)) = M[d][m];
    });
}

void computeMetrics(const amr::MultiFab& coords, amr::MultiFab& metrics,
                    const amr::Geometry& geom) {
    assert(coords.nGrow() >= metrics.nGrow() + 2);
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
