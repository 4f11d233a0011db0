#include "core/BCFill.hpp"

#include "gpu/Gpu.hpp"

#include <algorithm>
#include <cassert>

namespace crocco::core {

using amr::forEachCell;
using amr::IntVect;

Box ghostRegionOutside(const Box& fabBox, const Box& domain, int dim, int side) {
    IntVect lo = fabBox.smallEnd(), hi = fabBox.bigEnd();
    if (side == 0) {
        hi[dim] = domain.smallEnd(dim) - 1;
    } else {
        lo[dim] = domain.bigEnd(dim) + 1;
    }
    return Box(lo, hi);
}

Box bcSweepRegion(const Box& fabBox, const Box& domain, int dim, int side,
                  const Geometry& geom) {
    const Box r = ghostRegionOutside(fabBox, domain, dim, side);
    if (!r.ok()) return r;
    amr::IntVect lo = r.smallEnd(), hi = r.bigEnd();
    for (int dd = dim + 1; dd < amr::SpaceDim; ++dd) {
        if (geom.isPeriodic(dd)) continue;
        lo[dd] = std::max(lo[dd], domain.smallEnd(dd));
        hi[dd] = std::min(hi[dd], domain.bigEnd(dd));
    }
    return Box(lo, hi);
}

namespace {

void fillFace(amr::FArrayBox& fab, const Box& region, const Box& domain, int dim,
              int side, const FaceBC& bc) {
    if (!region.ok()) return;
    auto a = fab.array();
    // Mirror/edge sources are read through a const view: the sweep regions
    // guarantee every source cell was filled (by FillBoundary, the interior,
    // or an earlier sweep), and check builds verify exactly that.
    const auto s = fab.const_array();
    const int edge = side == 0 ? domain.smallEnd(dim) : domain.bigEnd(dim);
    forEachCell(region, [&](int i, int j, int k) {
        IntVect p{i, j, k};
        switch (bc.type) {
            case BCType::Periodic:
                break;
            case BCType::Outflow: {
                IntVect q = p;
                q[dim] = edge;
                for (int n = 0; n < NCONS; ++n)
                    a(p[0], p[1], p[2], n) = s(q[0], q[1], q[2], n);
                break;
            }
            case BCType::Dirichlet:
                for (int n = 0; n < NCONS; ++n)
                    a(p[0], p[1], p[2], n) = bc.state[static_cast<std::size_t>(n)];
                break;
            case BCType::SlipWall:
            case BCType::NoSlipWall: {
                // Mirror about the wall face: ghost cell m layers out maps to
                // interior cell m layers in.
                IntVect q = p;
                const int m = side == 0 ? edge - p[dim] : p[dim] - edge;
                q[dim] = side == 0 ? edge + m - 1 : edge - m + 1;
                for (int n = 0; n < NCONS; ++n)
                    a(p[0], p[1], p[2], n) = s(q[0], q[1], q[2], n);
                if (bc.type == BCType::SlipWall) {
                    const int mom = UMX + dim;
                    a(p[0], p[1], p[2], mom) = -s(q[0], q[1], q[2], mom);
                } else {
                    for (int mom = UMX; mom <= UMZ; ++mom)
                        a(p[0], p[1], p[2], mom) = -s(q[0], q[1], q[2], mom);
                }
                break;
            }
        }
    });
}

} // namespace

void forEachFab(MultiFab& mf, const std::function<void(int)>& fill) {
    gpu::ParallelForIndex(mf.numFabs(), fill);
}

void applyBCs(MultiFab& mf, const Geometry& geom, const BCSpec& spec) {
    assert(mf.nComp() == NCONS);
    const Box& domain = geom.domain();
    forEachFab(mf, [&](int i) {
        const Box grown = mf.grownBox(i);
        for (int d = 0; d < amr::SpaceDim; ++d) {
            if (geom.isPeriodic(d)) continue;
            for (int side = 0; side < 2; ++side) {
                fillFace(mf.fab(i), bcSweepRegion(grown, domain, d, side, geom),
                         domain, d, side, spec.face[d][side]);
            }
        }
    });
}

amr::PhysBCFunct makeBCFunct(const BCSpec& spec) {
    return [spec](MultiFab& mf, const Geometry& geom, Real /*time*/) {
        applyBCs(mf, geom, spec);
    };
}

} // namespace crocco::core
