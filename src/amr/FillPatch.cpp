#include "amr/FillPatch.hpp"

#include "gpu/Gpu.hpp"

#include <cassert>

namespace crocco::amr {

namespace {
int ceilDiv(int a, int b) { return (a + b - 1) / b; }

/// The coarse coordinates under every coarsened fine fab of `dst`, grown by
/// `ngc`, for an interpolator that needs them (an empty MultiFab
/// otherwise). Stored coordinates are a pure function of level and cell
/// index, ghost cells included, so every source fab that holds a cell
/// holds the same value and the gather reads source ghosts instead of
/// periodic images. It reads them only `ngc` deep: each destination cell
/// lies within `ngc` of its coarsened fine box, which proper nesting
/// places inside the coarse level, so a source grown by `ngc` holds it.
MultiFab gatherCoarseCoords(const Interpolater& interp, const BoxArray& cba,
                            const MultiFab& dst, int ngc,
                            [[maybe_unused]] const MultiFab* fineCoords,
                            const MultiFab* crseCoords) {
    MultiFab coords;
    if (!interp.needsCoordinates()) return coords;
    assert(fineCoords && crseCoords);
    assert(crseCoords->nGrow() >= ngc);
    coords.define(cba, dst.distributionMap(), 3, ngc, dst.comm());
    coords.parallelCopy(*crseCoords, 0, 0, 3, ngc, ngc, "ParallelCopy_interp");
    return coords;
}

/// Fine cells interpolation may fill: the domain, widened by the ghost
/// width across periodic faces (cells there hold periodic-image data and
/// interpolate like interior cells). Ghost cells beyond non-periodic faces
/// are left for the fine BC.
Box interpDomain(const Geometry& fineGeom, int ng) {
    Box d = fineGeom.domain();
    for (int dim = 0; dim < SpaceDim; ++dim)
        if (fineGeom.isPeriodic(dim)) d = d.grow(dim, ng);
    return d;
}

/// The one coarse-fill body, after InterpFromCoarseLevel and steps 3-5 of
/// FillPatchTwoLevels: gather the coarse data needed under every fab of
/// `dst` into a scratch MultiFab on dst's coarsened layout (the ParallelCopy
/// FillPatch always performs, Fig. 7), apply the coarse BC, gather the
/// coarse coordinates when the interpolator needs them, interpolate, and
/// apply the fine BC. Each fab is filled over its in-domain cells, or with
/// `uncoveredOnly` over the pieces of them no fine patch covers. One pool
/// task per fab: a task writes dst fab i alone and reads only fab i of the
/// const scratch and coordinate fabs.
void fillFromCoarse(MultiFab& dst, const MultiFab& crseSrc,
                    const Geometry& fineGeom, const Geometry& crseGeom,
                    const IntVect& ratio, const Interpolater& interp,
                    const PhysBCFunct& fineBC, const PhysBCFunct& crseBC,
                    Real time, const MultiFab* fineCoords,
                    const MultiFab* crseCoords, bool uncoveredOnly) {
    const int ng = dst.nGrow();
    const int ncomp = dst.nComp();
    const int ngc = ceilDiv(ng, ratio.min()) + interp.nGrowCoarse();
    const BoxArray cba = dst.boxArray().coarsen(ratio);
    MultiFab ctmp(cba, dst.distributionMap(), ncomp, ngc, dst.comm());
    ctmp.parallelCopy(crseSrc, 0, 0, ncomp, ngc, 0, "ParallelCopy", &crseGeom);
    if (crseBC) crseBC(ctmp, crseGeom, time);

    // Curvilinear interpolation additionally needs coarse physical
    // coordinates under the same regions — the paper's *extra* global
    // ParallelCopy that throttles CRoCCo 2.0's weak scaling (§VI-B).
    const MultiFab ctmpCoords =
        gatherCoarseCoords(interp, cba, dst, ngc, fineCoords, crseCoords);

    const Box domain = interpDomain(fineGeom, ng);
    gpu::ParallelForIndex(dst.numFabs(), [&](int i) {
        InterpContext ctx;
        if (interp.needsCoordinates()) {
            ctx.crseCoords = &ctmpCoords.fab(i);
            ctx.fineCoords = &fineCoords->fab(i);
        }
        const Box region = dst.grownBox(i) & domain;
        const std::vector<Box> pieces =
            uncoveredOnly ? uncoveredBy(region, dst.boxArray(), fineGeom)
                          : std::vector<Box>{region};
        for (const Box& piece : pieces)
            interp.interp(ctmp.fab(i), dst.fab(i), piece, 0, 0, ncomp, ratio,
                          ctx);
    });
    if (fineBC) fineBC(dst, fineGeom, time);
}

} // namespace

std::vector<Box> uncoveredBy(const Box& region, const BoxArray& ba,
                             const Geometry& geom) {
    std::vector<Box> covers;
    for (const IntVect& s : geom.periodicShifts()) {
        for (const auto& [j, isect] : ba.intersections(region.shift(s)))
            covers.push_back(isect.shift(-s));
    }
    return boxDiff(region, covers);
}

void FillPatchSingleLevel(MultiFab& dst, const MultiFab& src, const Geometry& geom,
                          const PhysBCFunct& bc, Real time) {
    assert(dst.boxArray() == src.boxArray());
    MultiFab::copy(dst, src, 0, 0, dst.nComp(), 0);
    dst.fillBoundary(geom);
    if (bc) bc(dst, geom, time);
}

void FillPatchTwoLevels(MultiFab& dst, const MultiFab& fineSrc,
                        const MultiFab& crseSrc, const Geometry& fineGeom,
                        const Geometry& crseGeom, const IntVect& ratio,
                        const Interpolater& interp, const PhysBCFunct& fineBC,
                        const PhysBCFunct& crseBC, Real time,
                        const MultiFab* fineCoords, const MultiFab* crseCoords) {
    assert(dst.boxArray() == fineSrc.boxArray());

    // 1-2. Fine data everywhere it exists: valid cells, then ghost cells
    // covered by sibling fine patches (incl. periodic images).
    MultiFab::copy(dst, fineSrc, 0, 0, dst.nComp(), 0);
    dst.fillBoundary(fineGeom);
    // 3-5. Coarse data interpolated into the ghost cells no fine patch
    // covers, then the physical BCs.
    fillFromCoarse(dst, crseSrc, fineGeom, crseGeom, ratio, interp, fineBC,
                   crseBC, time, fineCoords, crseCoords, /*uncoveredOnly=*/true);
}

void InterpFromCoarseLevel(MultiFab& dst, const MultiFab& crseSrc,
                           const Geometry& fineGeom, const Geometry& crseGeom,
                           const IntVect& ratio, const Interpolater& interp,
                           const PhysBCFunct& fineBC, const PhysBCFunct& crseBC,
                           Real time, const MultiFab* fineCoords,
                           const MultiFab* crseCoords) {
    fillFromCoarse(dst, crseSrc, fineGeom, crseGeom, ratio, interp, fineBC,
                   crseBC, time, fineCoords, crseCoords, /*uncoveredOnly=*/false);
}

void linearExtrapolateGhost(FArrayBox& fab, const Box& interior, int srcComp,
                            int numComp) {
    assert(fab.box().contains(interior));
    auto a = fab.array();
    Box filled = interior;
    for (int d = 0; d < SpaceDim; ++d) {
        if (fab.box().length(d) == filled.length(d)) continue;
        assert(filled.length(d) >= 2);
        const int lo = filled.smallEnd(d), hi = filled.bigEnd(d);
        forEachCell(fab.box(), [&](int i, int j, int k) {
            IntVect p{i, j, k};
            // Only touch cells whose off-dimension indices are inside the
            // already-filled slab (sweep order widens `filled` one dim at a
            // time, so corners are handled by later sweeps reading earlier
            // extrapolations).
            for (int dd = 0; dd < SpaceDim; ++dd)
                if (dd != d && (p[dd] < filled.smallEnd(dd) || p[dd] > filled.bigEnd(dd)))
                    return;
            if (p[d] >= lo && p[d] <= hi) return;
            IntVect e0 = p, e1 = p;
            int m;
            if (p[d] < lo) {
                e0[d] = lo;
                e1[d] = lo + 1;
                m = lo - p[d];
            } else {
                e0[d] = hi;
                e1[d] = hi - 1;
                m = p[d] - hi;
            }
            for (int n = srcComp; n < srcComp + numComp; ++n) {
                a(p[0], p[1], p[2], n) = (1 + m) * a(e0[0], e0[1], e0[2], n) -
                                         m * a(e1[0], e1[1], e1[2], n);
            }
        });
        IntVect flo = filled.smallEnd(), fhi = filled.bigEnd();
        flo[d] = fab.box().smallEnd(d);
        fhi[d] = fab.box().bigEnd(d);
        filled = Box(flo, fhi);
    }
}

void AverageDown(const MultiFab& fine, MultiFab& crse, const IntVect& ratio,
                 int srcComp, int destComp, int numComp) {
    const double volRatio = 1.0 / static_cast<double>(ratio.product());
    // Restrict on the fine ranks, onto the coarsened fine layout: one pool
    // task per fine fab writes only its own coarsened fab.
    MultiFab crseFine(fine.boxArray().coarsen(ratio), fine.distributionMap(),
                      numComp, 0, crse.comm());
    gpu::ParallelForIndex(fine.numFabs(), [&](int fj) {
        auto c = crseFine.array(fj);
        auto f = fine.const_array(fj);
        for (int n = 0; n < numComp; ++n) {
            forEachCell(crseFine.validBox(fj), [&](int i, int j, int k) {
                double s = 0.0;
                for (int dk = 0; dk < ratio[2]; ++dk)
                    for (int dj = 0; dj < ratio[1]; ++dj)
                        for (int di = 0; di < ratio[0]; ++di)
                            s += f(i * ratio[0] + di, j * ratio[1] + dj,
                                   k * ratio[2] + dk, srcComp + n);
                c(i, j, k, n) = s * volRatio;
            });
        }
    });
    // Then ship the result to the coarse owners through the one exchange.
    crse.parallelCopy(crseFine, 0, destComp, numComp, 0, 0, "AverageDown");
    // Restriction rewrote coarse valid cells under the fine level, so any
    // coarse ghost data is out of date until the next exchange (check-build
    // shadow bookkeeping; no-op otherwise).
    crse.invalidateGhosts();
}

} // namespace crocco::amr
