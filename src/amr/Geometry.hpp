#pragma once

#include "amr/Array4.hpp"
#include "amr/Box.hpp"

#include <array>

namespace crocco::amr {

/// Periodicity flags of the computational domain (DMR is periodic only in
/// the spanwise direction).
struct Periodicity {
    std::array<bool, 3> periodic{false, false, false};

    bool isPeriodic(int d) const { return periodic[d]; }

    static Periodicity none() { return {}; }
    static Periodicity all() { return {{true, true, true}}; }
};

/// Description of the rectangular *computational* domain of one AMR level:
/// index box, physical extents of the computational coordinates, and cell
/// spacing. For curvilinear runs the physical (x, y, z) coordinates live in
/// a separate coordinates MultiFab (see mesh::CurvilinearGrid); this
/// Geometry then describes the uniform (ξ, η, ζ) computational space the
/// physical domain is mapped onto.
class Geometry {
public:
    Geometry() = default;
    Geometry(const Box& domain, const std::array<Real, 3>& probLo,
             const std::array<Real, 3>& probHi, Periodicity per = {});

    const Box& domain() const { return domain_; }
    const Periodicity& periodicity() const { return per_; }
    bool isPeriodic(int d) const { return per_.isPeriodic(d); }

    Real probLo(int d) const { return probLo_[d]; }
    Real probHi(int d) const { return probHi_[d]; }
    Real cellSize(int d) const { return dx_[d]; }
    std::array<Real, 3> cellSizeArray() const { return dx_; }

    /// Physical (computational-space) coordinate of cell center i along d.
    Real cellCenter(int i, int d) const {
        return probLo_[d] + (i + 0.5) * dx_[d];
    }

    /// Geometry of the same physical region refined/coarsened by ratio.
    Geometry refine(const IntVect& ratio) const;
    Geometry coarsen(const IntVect& ratio) const;

    /// Index shift vectors that map the domain onto its periodic images
    /// (includes the zero shift). Used by FillBoundary.
    std::vector<IntVect> periodicShifts() const;

private:
    Box domain_;
    std::array<Real, 3> probLo_{0, 0, 0};
    std::array<Real, 3> probHi_{1, 1, 1};
    std::array<Real, 3> dx_{1, 1, 1};
    Periodicity per_;
};

} // namespace crocco::amr
