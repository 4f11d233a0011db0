#pragma once

#include "amr/Array4.hpp"

#include <array>

namespace crocco::amr {
class MultiFab;
}

namespace crocco::core {

/// Williamson's 3rd-order low-storage (2N) Runge-Kutta scheme [Williamson
/// 1980], the time integrator CRoCCo propagates convective and viscous
/// fluxes with (§II-A). Per stage s:
///
///   G <- A[s] * G + dt * RHS(U)
///   U <- U + B[s] * G
///
/// Only U and one accumulator G are stored — the "low-storage" property
/// that matters on 16 GB GPUs.
struct Rk3 {
    static constexpr int nStages = 3;
    static constexpr std::array<amr::Real, 3> A{0.0, -5.0 / 9.0, -153.0 / 128.0};
    static constexpr std::array<amr::Real, 3> B{1.0 / 3.0, 15.0 / 16.0, 8.0 / 15.0};
};

/// One RK3 stage update over the valid region of the level:
///
///   G <- A * G + dt * dU;  U <- U + B * G
///
/// This is the single sanctioned home of the stage-update triple (lint rule
/// R7 forbids open-coded mult+saxpy+saxpy RK3 sequences elsewhere): one
/// MultiFab::mult and two saxpy sweeps, three launches per fab.
///
/// `fusedKernel` must be false; true throws std::invalid_argument. The
/// parameter stays because existing callers (dmrbench's layer probe) pass it.
void rk3StageUpdate(amr::MultiFab& G, amr::MultiFab& U,
                    const amr::MultiFab& dU, amr::Real A, amr::Real B,
                    amr::Real dt, bool fusedKernel);

} // namespace crocco::core
