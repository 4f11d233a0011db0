#pragma once

#include "amr/Box.hpp"
#include "core/Sgs.hpp"
#include "core/State.hpp"
#include "core/Weno.hpp"

namespace crocco::core {

/// The Viscous kernel of Algorithm 2: accumulate the viscous flux
/// divergence into dU over `validBox` using 4th-order central differences
/// (§II-A).
///
/// Two-pass curvilinear formulation: physical-space velocity and
/// temperature gradients via the chain rule with the stored metrics, then
/// the divergence of the contravariant viscous fluxes. Requires NGHOST = 4
/// filled ghost cells (2 per pass).
/// When `sgs` is active (LES mode), the Smagorinsky eddy viscosity is added
/// to the molecular viscosity and a turbulent heat flux to the molecular
/// one — CRoCCo's filtered-equation path (§II-A).
void viscousFlux(const Array4<const Real>& S, const Array4<const Real>& metrics,
                 const Box& validBox, const Array4<Real>& dU,
                 const std::array<Real, 3>& dxi, const GasModel& gas,
                 KernelVariant variant, const SgsModel& sgs = {});

} // namespace crocco::core
