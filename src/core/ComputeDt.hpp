#pragma once

#include "amr/MultiFab.hpp"
#include "core/State.hpp"

namespace crocco::core {

/// Largest stable timestep of one fab under the CFL condition (Eq. 3,
/// generalized to 3-D curvilinear grids):
///
///   dt = cfl / max_cells sum_d (|u_hat_d| + a*|grad xi_d|) / dxi_d
///
/// where u_hat_d is the contravariant velocity. Runs as a device reduction
/// (amrex::ReduceData pattern, §IV-B).
Real computeDtFab(const Array4<const Real>& S, const Array4<const Real>& metrics,
                  const amr::Box& validBox, const std::array<Real, 3>& dxi,
                  const GasModel& gas, Real cfl);

/// Level-wide ComputeDt: one fab-parallel launch of per-fab reductions,
/// per-rank minima combined in fab order, then the global ReduceRealMin the
/// paper describes (§III-B) — every patch advances with the same dt.
Real computeDt(const amr::MultiFab& U, const amr::MultiFab& metrics,
               const amr::Geometry& geom, const GasModel& gas, Real cfl);

} // namespace crocco::core
