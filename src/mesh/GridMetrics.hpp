#pragma once

#include "amr/Geometry.hpp"
#include "amr/MultiFab.hpp"

namespace crocco::mesh {

using amr::Array4;
using amr::Box;
using amr::Real;

/// Grid-metric storage layout (§III-C "Data management"): the first
/// derivatives ∂ξ_d/∂x_j of the computational coordinates (ξ, η, ζ) with
/// respect to physical (x, y, z). The paper also stores the 18 symmetric
/// second derivatives (27 components in all); no kernel here reads them,
/// so each level stores only these 9.
inline constexpr int MetricComps = 9;

/// Component of ∂ξ_d/∂x_j.
constexpr int metric1(int d, int j) { return 3 * d + j; }

/// Jacobian determinant J = det(∂x/∂ξ) recovered from the stored inverse
/// metrics at one cell (J is not stored; the kernels recompute this cheap
/// 3x3 determinant, keeping the metrics MultiFab at 9 components).
/// Every RHS kernel evaluates it per cell. Always inlined: with `inline`
/// alone GCC's -O2 heuristics emit it out of line and call it per cell.
[[gnu::always_inline]] inline Real jacobian(const Array4<const Real>& metrics,
                                            int i, int j, int k) {
    // det(M) = 1/J for M = ∂ξ/∂x.
    const Real a00 = metrics(i, j, k, metric1(0, 0));
    const Real a01 = metrics(i, j, k, metric1(0, 1));
    const Real a02 = metrics(i, j, k, metric1(0, 2));
    const Real a10 = metrics(i, j, k, metric1(1, 0));
    const Real a11 = metrics(i, j, k, metric1(1, 1));
    const Real a12 = metrics(i, j, k, metric1(1, 2));
    const Real a20 = metrics(i, j, k, metric1(2, 0));
    const Real a21 = metrics(i, j, k, metric1(2, 1));
    const Real a22 = metrics(i, j, k, metric1(2, 2));
    const Real detM = a00 * (a11 * a22 - a12 * a21) -
                      a01 * (a10 * a22 - a12 * a20) +
                      a02 * (a10 * a21 - a11 * a20);
    return 1.0 / detM;
}

/// Compute the 9 metric components over `region` of one fab.
/// `coords` must provide cell-center physical coordinates on
/// region.grow(2): the metrics invert ∂x/∂ξ from 4th-order central
/// differences (±2 cells). `dxi` is the computational cell spacing.
void computeMetricsFab(const Array4<const Real>& coords, const Array4<Real>& metrics,
                       const Box& region, const std::array<Real, 3>& dxi);

/// Level-wide driver: fills `metrics` (valid + ghost) from `coords`.
/// Requires coords.nGrow() >= metrics.nGrow() + 2.
void computeMetrics(const amr::MultiFab& coords, amr::MultiFab& metrics,
                    const amr::Geometry& geom);

/// Discrete geometric-conservation-law residual max-norm over `region`:
/// max_j | Σ_d ∂(J·∂ξ_d/∂x_j)/∂ξ_d |. Zero in exact arithmetic on any grid;
/// truncation-order small for the discrete metrics. The free-stream
/// preservation tests bound this.
Real gclResidual(const Array4<const Real>& metrics, const Box& region,
                 const std::array<Real, 3>& dxi);

} // namespace crocco::mesh
