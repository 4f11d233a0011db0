#pragma once

#include "amr/FillPatch.hpp"
#include "core/State.hpp"

#include <array>
#include <functional>

namespace crocco::core {

using amr::Box;
using amr::Geometry;
using amr::MultiFab;

/// Physical boundary condition type of one domain face.
enum class BCType {
    Periodic,  ///< handled by FillBoundary, not here
    Outflow,   ///< zeroth-order extrapolation (supersonic outflow)
    Dirichlet, ///< fixed external state (supersonic inflow)
    SlipWall,  ///< inviscid wall: mirror with normal momentum flipped
    NoSlipWall ///< viscous wall: mirror with all momentum flipped
};

/// One face's condition; `state` is used only for Dirichlet.
struct FaceBC {
    BCType type = BCType::Outflow;
    std::array<Real, NCONS> state{};
};

/// Per-face physical BC specification: [dim][side] with side 0 = low face.
struct BCSpec {
    FaceBC face[3][2];
};

/// CRoCCo's BC_Fill kernel (Algorithm 2) for the standard condition types:
/// fills every ghost cell of `mf` outside a non-periodic domain face
/// according to `spec`. Problems with bespoke boundaries (DMR's mixed,
/// time-dependent top/bottom) wrap this with their own PhysBCFunct.
void applyBCs(MultiFab& mf, const Geometry& geom, const BCSpec& spec);

/// Convenience adapter to the amr::PhysBCFunct signature.
amr::PhysBCFunct makeBCFunct(const BCSpec& spec);

/// Run `fill(f)` for every fab f of `mf` as one thread-pool task per fab —
/// the launch shape of BC_Fill. A physical BC reads and writes only the
/// cells of the fab it fills, so `fill` must touch fab f alone. Problem
/// functors loop through this instead of over fabs themselves (src/problems
/// does not depend on gpu/).
void forEachFab(MultiFab& mf, const std::function<void(int)>& fill);

/// Ghost regions of `fab` beyond face (dim, side) of the domain, where
/// side 0 is the low face. Exposed for custom BC functors.
Box ghostRegionOutside(const Box& fabBox, const Box& domain, int dim, int side);

/// The region BC sweep `dim` should fill on face (dim, side):
/// ghostRegionOutside clamped to the domain extent in every *later*
/// non-periodic dimension. Sweeps run in dimension order, so a corner cell
/// outside the domain in dims d1 < d2 belongs to the d2 sweep — which reads
/// through cells the d1 sweep has already filled. The unclamped region would
/// make the d1 sweep read never-filled corner sources first (a violation
/// CroccoCheck flags); the cells it would have written are exactly the ones
/// the d2 sweep overwrites, so final values are bitwise unchanged. Periodic
/// later dims keep their full extent: fillBoundary already filled their
/// ghost sources, and no later sweep runs there.
Box bcSweepRegion(const Box& fabBox, const Box& domain, int dim, int side,
                  const Geometry& geom);

} // namespace crocco::core
