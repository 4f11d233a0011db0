// crocco-analyze:allow-file(R1): the curvilinear coordinate store serializes
// raw coordinate planes to disk; byte-level I/O needs the base pointer.
#include "mesh/CoordStore.hpp"

#include <cassert>
#include <fstream>
#include <stdexcept>

namespace crocco::mesh {

using amr::Box;
using amr::FArrayBox;
using amr::IntVect;

namespace {

[[noreturn]] void throwFileError(const char* what, int lev,
                                 const std::string& path) {
    throw std::runtime_error("CoordStore: " + std::string(what) + " level " +
                             std::to_string(lev) + " coordinate file " + path);
}

} // namespace

CoordStore::CoordStore(std::shared_ptr<const Mapping> mapping,
                       const amr::Geometry& geom0, const amr::IntVect& refRatio,
                       int maxLevel, int ngrow, Mode mode, std::string fileDir)
    : mapping_(std::move(mapping)), ngrow_(ngrow), mode_(mode),
      fileDir_(std::move(fileDir)) {
    assert(mapping_ && maxLevel >= 0 && ngrow >= 0);
    geoms_.push_back(geom0);
    for (int lev = 1; lev <= maxLevel; ++lev)
        geoms_.push_back(geoms_.back().refine(refRatio));
    for (int lev = 0; lev <= maxLevel; ++lev) buildLevel(lev);
}

std::array<Real, 3> CoordStore::cellCoord(int lev, const amr::IntVect& cell) const {
    // Always the smooth *continuous* extension of the mapping, including
    // beyond periodic faces: metric differencing and curvilinear
    // interpolation both need globally consistent coordinate values, never
    // periodic images (which would jump by the domain span at the seam).
    const amr::Geometry& g = geoms_[lev];
    Real s[3];
    for (int d = 0; d < 3; ++d) {
        s[d] = (cell[d] + 0.5) / g.domain().length(d);
    }
    return mapping_->toPhysical(s[0], s[1], s[2]);
}

std::string CoordStore::levelFile(int lev) const {
    return fileDir_ + "/coords_lev" + std::to_string(lev) + ".bin";
}

void CoordStore::buildLevel(int lev) {
    const Box grown = geoms_[lev].domain().grow(ngrow_);
    FArrayBox grid(grown, 3);
    auto a = grid.array();
    amr::forEachCell(grown, [&](int i, int j, int k) {
        const auto p = cellCoord(lev, IntVect{i, j, k});
        for (int m = 0; m < 3; ++m) a(i, j, k, m) = p[m];
    });
    if (mode_ == Mode::Memory) {
        stored_.push_back(std::move(grid));
    } else {
        // First-implementation path: the grid generator dumps the level to a
        // binary file; patches read it back at regrid time.
        const std::string path = levelFile(lev);
        std::ofstream os(path, std::ios::binary);
        if (!os) throwFileError("cannot create", lev, path);
        auto ca = grid.const_array();
        for (int m = 0; m < 3; ++m) {
            amr::forEachCell(grown, [&](int i, int j, int k) {
                const Real v = ca(i, j, k, m);
                os.write(reinterpret_cast<const char*>(&v), sizeof(Real));
            });
        }
        os.flush();
        if (!os) throwFileError("failed writing", lev, path);
    }
}

void CoordStore::getCoords(amr::FArrayBox& fab, int lev) const {
    assert(fab.nComp() >= 3);
    const Box grown = geoms_[lev].domain().grow(ngrow_);
    const Box target = fab.box();
    assert(grown.contains(target));
    if (mode_ == Mode::Memory) {
        fab.copyFrom(stored_[lev], target, 0, 0, 3);
        return;
    }
    // Serial binary read, one i-row seek at a time — deliberately the
    // paper's slow first implementation. A missing or truncated file
    // throws rather than leaving coordinates unfilled.
    const std::string path = levelFile(lev);
    std::ifstream is(path, std::ios::binary);
    if (!is) throwFileError("cannot open", lev, path);
    auto a = fab.array();
    const std::int64_t pts = grown.numPts();
    std::vector<Real> row(target.length(0));
    for (int m = 0; m < 3; ++m) {
        for (int k = target.smallEnd(2); k <= target.bigEnd(2); ++k) {
            for (int j = target.smallEnd(1); j <= target.bigEnd(1); ++j) {
                const std::int64_t off =
                    grown.index(IntVect{target.smallEnd(0), j, k}) + m * pts;
                is.seekg(off * static_cast<std::int64_t>(sizeof(Real)));
                is.read(reinterpret_cast<char*>(row.data()),
                        static_cast<std::streamsize>(row.size() * sizeof(Real)));
                if (!is) throwFileError("short seek or read in", lev, path);
                for (int i = 0; i < target.length(0); ++i)
                    a(target.smallEnd(0) + i, j, k, m) = row[static_cast<std::size_t>(i)];
            }
        }
    }
}

void CoordStore::getCoords(amr::MultiFab& coords, int lev) const {
    assert(coords.nComp() == 3);
    assert(coords.nGrow() <= ngrow_);
    for (int i = 0; i < coords.numFabs(); ++i) getCoords(coords.fab(i), lev);
}

std::int64_t CoordStore::bytesStored() const {
    std::int64_t b = 0;
    for (const FArrayBox& f : stored_)
        b += f.size() * static_cast<std::int64_t>(sizeof(Real));
    return b;
}

} // namespace crocco::mesh
