#pragma once

#include "amr/FArrayBox.hpp"
#include "amr/Geometry.hpp"
#include "amr/MultiFab.hpp"
#include "mesh/Mapping.hpp"

#include <memory>
#include <string>
#include <vector>

namespace crocco::mesh {

/// Source of physical coordinates for newly created AMR patches (§III-C,
/// "Regridding").
///
/// Curvilinear grids are generated once from an analytic Mapping and stored.
/// When Regrid creates new patches, their coordinates must come from
/// somewhere:
///
///  * Mode::File — the paper's *first* implementation: each new patch
///    serially reads its coordinates from a binary file with std::iostream.
///    Noticeable overhead on CPU, worse on GPU (host staging + copy-in).
///  * Mode::Memory — the *current* implementation: the entire AMR grid is
///    read into a stored variable up front and getCoords() serves patches
///    from memory, trading footprint for regrid speed.
///
/// bench/ablation_coordstore measures the difference.
class CoordStore {
public:
    enum class Mode { Memory, File };

    CoordStore(std::shared_ptr<const Mapping> mapping, const amr::Geometry& geom0,
               const amr::IntVect& refRatio, int maxLevel, int ngrow,
               Mode mode = Mode::Memory, std::string fileDir = ".");

    Mode mode() const { return mode_; }
    int nGrow() const { return ngrow_; }

    /// Fill a 3-component coordinates MultiFab of level `lev` — valid cells
    /// *and* all ghost cells (ghosts beyond periodic faces carry
    /// periodic-image coordinates; beyond physical faces the mapping's
    /// smooth extension).
    void getCoords(amr::MultiFab& coords, int lev) const;

    /// Same, for a single fab (used by tests and the file-mode hot path).
    /// Safe to call concurrently for distinct fabs. In File mode a level
    /// file that cannot be opened, sought or read in full throws
    /// std::runtime_error naming the file and the level (as does a failed
    /// write when the constructor generates the files).
    void getCoords(amr::FArrayBox& fab, int lev) const;

    /// Physical coordinates of cell center `cell` at level `lev`, honoring
    /// periodic wrapping.
    std::array<Real, 3> cellCoord(int lev, const amr::IntVect& cell) const;

    /// Footprint of the in-memory grids (0 in File mode) — the "high memory
    /// cost" side of the paper's tradeoff.
    std::int64_t bytesStored() const;

    const amr::Geometry& levelGeom(int lev) const { return geoms_[lev]; }

private:
    std::string levelFile(int lev) const;
    void buildLevel(int lev);

    std::shared_ptr<const Mapping> mapping_;
    std::vector<amr::Geometry> geoms_;
    int ngrow_;
    Mode mode_;
    std::string fileDir_;
    std::vector<amr::FArrayBox> stored_; // Memory mode: one grid per level
};

} // namespace crocco::mesh
