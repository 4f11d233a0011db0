#pragma once

#include "amr/Box.hpp"
#include "core/State.hpp"

namespace crocco::core {

using amr::Box;

/// Convective-flux reconstruction scheme.
enum class WenoScheme {
    JS5,   ///< classic 5th-order WENO of Jiang & Shu (3 upwind stencils)
    Symbo, ///< bandwidth-optimized symmetric WENO of Martín et al. (2006):
           ///< adds the downwind candidate stencil with optimized linear
           ///< weights and a relative-smoothness limiter (§II-A)
};

/// Kernel code structure (§IV-A): the same numerics written two ways.
enum class KernelVariant {
    FortranStyle, ///< original CPU structure: fused pencil loops with 1-D
                  ///< scratch reused across the line (the Fortran baseline)
    Portable,     ///< the GPU port's structure: staged ParallelFor kernels,
                  ///< one thread per cell, 3-D scratch in (device) global
                  ///< memory to avoid the data races of shared 1-D scratch
};

/// What the WENO scheme reconstructs (§II-A: CRoCCo reconstructs fluxes at
/// interfaces; production hypersonic runs project onto characteristic
/// fields first).
enum class Reconstruction {
    ComponentWise,      ///< reconstruct each conserved flux directly
    CharacteristicWise, ///< project the stencil onto the local Euler
                        ///< eigenvectors, reconstruct, project back —
                        ///< cleaner strong shocks at extra cost
};

/// Left-biased WENO reconstruction of the interface value at i+1/2 from the
/// six cell values f[0..5] holding {i-2, i-1, i, i+1, i+2, i+3}.
/// (JS5 ignores f[5].) The right-biased value at i+1/2 is obtained by
/// passing the reversed window for the opposite-sign characteristic family.
Real wenoReconstruct(const Real f[6], WenoScheme scheme);

/// Two doubles in one 16-byte vector (GCC/Clang vector extension): one
/// SSE2 register, so `/` and `*` on it are single divpd/mulpd instructions
/// on any x86-64 target.
using RealPair = Real __attribute__((vector_size(2 * sizeof(Real))));

/// Two reconstructions at once, one per lane: lane n of the result is
/// wenoReconstruct of the window {f[0][n], ..., f[5][n]}, bit for bit (NaN
/// results are NaN, possibly with another sign or payload). Each lane
/// evaluates the scalar reference's expressions in the same order; the
/// smoothness max and min are the strict-`<` selects std::max/std::min
/// make over an initializer list, and the SYMBO downwind limiter is a
/// select. wenoReconstruct stays the reference (tests/core/weno_test).
RealPair wenoReconstructPair(const RealPair f[6], WenoScheme scheme);

/// The WENOx/WENOy/WENOz kernel of Algorithm 2: accumulate the convective
/// flux divergence of direction `dir` into dU over `validBox`.
///
///   dU -= (1/J) * d(F_hat)/dxi_dir,  F_hat at interfaces reconstructed by
///   WENO from Lax-Friedrichs-split contravariant cell fluxes.
///
/// `S` is the 5-component conserved state with NGHOST filled ghost cells;
/// `metrics` the 9-component grid metrics (also on the grown box);
/// `dxi` the computational cell spacing in `dir`.
void wenoFlux(int dir, const Array4<const Real>& S,
              const Array4<const Real>& metrics, const Box& validBox,
              const Array4<Real>& dU, Real dxi, const GasModel& gas,
              WenoScheme scheme, KernelVariant variant,
              Reconstruction recon = Reconstruction::ComponentWise);

} // namespace crocco::core
