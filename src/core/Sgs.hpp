#pragma once

#include "core/State.hpp"

#include <cmath>

namespace crocco::core {

/// Subgrid-scale closure for CRoCCo's LES mode (§I, §II-A): the filtered
/// equations add an eddy viscosity to the molecular one. The classic
/// Smagorinsky model is implemented:
///
///   nu_t = (Cs * Delta)^2 * |S|,   |S| = sqrt(2 S_ij S_ij)
///
/// with Delta the local filter width (the cell size, anisotropy-averaged via
/// the Jacobian). Turbulent heat flux uses a constant turbulent Prandtl
/// number. Cs = 0 disables the model (DNS mode).
struct SgsModel {
    Real cs = 0.0;        ///< Smagorinsky constant (typical 0.1-0.2)
    Real prandtlT = 0.9;  ///< turbulent Prandtl number

    bool active() const { return cs > 0.0; }

    /// Eddy viscosity mu_t from the resolved velocity-gradient tensor
    /// gradU[i][j] = du_i/dx_j, density, and filter width delta. Defined
    /// here so the viscous kernel inlines it into its per-cell body.
    Real eddyViscosity(const Real gradU[3][3], Real rho, Real delta) const {
        if (!active()) return 0.0;
        Real s2 = 0.0;
#pragma GCC unroll 3
        for (int i = 0; i < 3; ++i) {
#pragma GCC unroll 3
            for (int j = 0; j < 3; ++j) {
                const Real sij = 0.5 * (gradU[i][j] + gradU[j][i]);
                s2 += 2.0 * sij * sij;
            }
        }
        const Real magS = std::sqrt(s2);
        return rho * cs * cs * delta * delta * magS;
    }

    /// Filter width from the cell's physical volume J * dxi*deta*dzeta.
    static Real filterWidth(Real cellVolume) { return std::cbrt(cellVolume); }
};

} // namespace crocco::core
