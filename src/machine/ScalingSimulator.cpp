#include "machine/ScalingSimulator.hpp"

#include "amr/BoxList.hpp"
#include "core/KernelProfiles.hpp"
#include "core/State.hpp"

#include <cassert>
#include <algorithm>
#include <cmath>
#include <vector>

namespace crocco::machine {

using amr::Box;
using amr::BoxArray;
using amr::DistributionMapping;
using amr::Geometry;
using amr::IntVect;

std::int64_t HierarchyMeta::activePoints() const {
    std::int64_t n = 0;
    for (const LevelMeta& l : levels) n += l.ba.numPts();
    return n;
}

ScalingSimulator::ScalingSimulator() : params_() {}
ScalingSimulator::ScalingSimulator(const Params& params) : params_(params) {}

int ScalingSimulator::ranksFor(const ScalingCase& c) const {
    return c.nodes * params_.machine.ranksPerNode(isGpuVersion(c.version));
}

namespace {

int roundToMultiple(double v, int m, int minV) {
    const int r = static_cast<int>(std::round(v / m)) * m;
    return std::max(r, minV);
}

/// The DMR refinement band: a diagonal strip following the incident shock /
/// Mach-stem region, spanwise-homogeneous. `fx, fy` are fractional
/// positions; `halfWidth` sets the covered area fraction.
bool inBand(double fx, double fy, double halfWidth) {
    return std::abs(fx - (0.2 + 0.5 * fy)) < halfWidth;
}

/// Tile the level domain with maxGridSize tiles and keep those whose center
/// lies in the band.
std::vector<Box> bandBoxes(const Box& domain, int tileSize, double halfWidth) {
    std::vector<Box> out;
    const Box tiles = domain.coarsen(tileSize);
    amr::forEachCell(tiles, [&](int ti, int tj, int tk) {
        const Box tile =
            Box(IntVect{ti, tj, tk}, IntVect{ti, tj, tk}).refine(tileSize) & domain;
        const double fx = (tile.smallEnd(0) + 0.5 * tile.length(0)) / domain.length(0);
        const double fy = (tile.smallEnd(1) + 0.5 * tile.length(1)) / domain.length(1);
        if (inBand(fx, fy, halfWidth)) out.push_back(tile);
    });
    return out;
}

Geometry makeGeom(const Box& domain) {
    amr::Periodicity per;
    per.periodic[2] = true; // spanwise
    return Geometry(domain, {0, 0, 0}, {1, 1, 1}, per);
}

/// Off-rank message pattern of a FillBoundary on one level: one message
/// per intersecting box pair.
PhaseLoad fillBoundaryLoad(const LevelMeta& L, int ng, int ncomp, int nranks) {
    PhaseLoad load(nranks);
    const auto shifts = L.geom.periodicShifts();
    for (int i = 0; i < L.ba.size(); ++i) {
        for (const Box& g : amr::boxDiff(L.ba[i].grow(ng), L.ba[i])) {
            for (const IntVect& s : shifts) {
                for (const auto& [j, isect] : L.ba.intersections(g.shift(s))) {
                    if (i == j && s == IntVect::zero()) continue;
                    load.addMessage(L.dm[j], L.dm[i],
                                    isect.numPts() * ncomp *
                                        static_cast<std::int64_t>(sizeof(double)));
                }
            }
        }
    }
    return load;
}

/// Off-rank message pattern of a ParallelCopy gathering `src` data under
/// dst boxes grown by dstGrow.
PhaseLoad copyLoad(const BoxArray& dstBA, const DistributionMapping& dstDM,
                   int dstGrow, const BoxArray& srcBA,
                   const DistributionMapping& srcDM, int ncomp, int nranks) {
    PhaseLoad load(nranks);
    for (int i = 0; i < dstBA.size(); ++i) {
        for (const auto& [j, isect] : srcBA.intersections(dstBA[i].grow(dstGrow))) {
            load.addMessage(srcDM[j], dstDM[i],
                            isect.numPts() * ncomp *
                                static_cast<std::int64_t>(sizeof(double)));
        }
    }
    return load;
}

} // namespace

HierarchyMeta ScalingSimulator::buildHierarchy(const ScalingCase& c) const {
    const bool gpuRun = isGpuVersion(c.version);
    const bool amr = isAmrVersion(c.version);
    const int ranks = ranksFor(c);
    const double N = static_cast<double>(c.equivalentPoints);

    // Finest-resolution domain with the DMR's 2:1 x:z constraint; y is the
    // free direction used to hit the target size (§V-C).
    const int nz = roundToMultiple(std::cbrt(N / 2.0), 32, 32);
    const int nx = 2 * nz;
    const int ny = roundToMultiple(N / (static_cast<double>(nx) * nz), 32, 32);
    const Box fineDomain(IntVect::zero(), IntVect{nx - 1, ny - 1, nz - 1});

    // Box size: the paper's hand-tuned 128 for GPU runs; for CPU runs AMReX
    // decompositions target a few boxes per rank.
    const double activeEstimate =
        amr ? N / 64.0 * (1.0 + 8.0 * params_.level1Fraction +
                          64.0 * params_.level2Fraction)
            : N;
    int mgs = params_.maxGridSize;
    if (!gpuRun) {
        const double target =
            std::cbrt(activeEstimate / (static_cast<double>(ranks) *
                                        params_.boxesPerCpuRank));
        mgs = roundToMultiple(target, params_.blockingFactor, 16);
        mgs = std::min(mgs, params_.maxGridSize);
    }

    // Refined-level boxes come out of Berger-Rigoutsos clustering of the
    // shock band, which yields boxes well under max_grid_size — and small
    // enough that every rank gets work (the load balancer needs more boxes
    // than ranks, at every level, as §V-C's blocking-factor discussion
    // implies).
    auto levelTile = [&](double levelActive) {
        const double perRank = levelActive / (static_cast<double>(ranks) * 4.0);
        int t = roundToMultiple(std::cbrt(perRank), params_.blockingFactor, 16);
        return std::clamp(t, 16, std::min(mgs, params_.bandTileSize));
    };

    HierarchyMeta h;
    if (!amr) {
        BoxArray ba(amr::chopToMaxSize({fineDomain}, IntVect(mgs)));
        DistributionMapping dm(ba, ranks);
        h.levels.push_back({ba, dm, makeGeom(fineDomain)});
        return h;
    }

    const Box l0Domain = fineDomain.coarsen(4);
    const Box l1Domain = fineDomain.coarsen(2);
    BoxArray ba0(amr::chopToMaxSize({l0Domain}, IntVect(mgs)));
    h.levels.push_back({ba0, DistributionMapping(ba0, ranks), makeGeom(l0Domain)});
    const int tile1 = levelTile(params_.level1Fraction * N / 8.0);
    BoxArray ba1(bandBoxes(l1Domain, tile1, params_.level1Fraction / 2.0));
    h.levels.push_back({ba1, DistributionMapping(ba1, ranks), makeGeom(l1Domain)});
    const int tile2 = levelTile(params_.level2Fraction * N);
    BoxArray ba2(bandBoxes(fineDomain, tile2, params_.level2Fraction / 2.0));
    h.levels.push_back({ba2, DistributionMapping(ba2, ranks), makeGeom(fineDomain)});
    return h;
}

std::int64_t ScalingSimulator::gpuBytesPerRank(const ScalingCase& c) const {
    const HierarchyMeta h = buildHierarchy(c);
    const int ranks = ranksFor(c);
    std::int64_t maxPts = 0;
    std::vector<std::int64_t> per(static_cast<std::size_t>(ranks), 0);
    for (const LevelMeta& L : h.levels) {
        const auto pts = L.dm.pointsPerRank(L.ba);
        for (int r = 0; r < ranks; ++r) per[static_cast<std::size_t>(r)] += pts[static_cast<std::size_t>(r)];
    }
    for (auto p : per) maxPts = std::max(maxPts, p);
    // Resident doubles per point: U + G + Sborder + dU (4x5), coordinates
    // (3), metrics (27), kernel scratch (~11), with ghost-halo inflation.
    // The model deliberately keeps the paper's 27 metric components (the
    // executed solver stores 9): it reproduces the paper's per-V100 memory
    // ceiling, not this code's layout.
    const double haloFactor = std::pow((128.0 + 2 * core::NGHOST) / 128.0, 3);
    return static_cast<std::int64_t>(maxPts * 61 * sizeof(double) * haloFactor);
}

RegionTimes ScalingSimulator::iterationTime(const ScalingCase& c) const {
    const HierarchyMeta h = buildHierarchy(c);
    const bool gpuRun = isGpuVersion(c.version);
    const bool cpp = c.version != core::CodeVersion::V10;
    const bool curvilinearInterp = c.version == core::CodeVersion::V12 ||
                                   c.version == core::CodeVersion::V20;
    const int ranks = ranksFor(c);
    const SummitMachine& m = params_.machine;
    const NetworkModel& net = params_.network;
    constexpr int nStages = 3;

    RegionTimes rt;
    const int rpn = m.ranksPerNode(gpuRun);
    for (int lev = 0; lev <= h.finestLevel(); ++lev) {
        const LevelMeta& L = h.levels[static_cast<std::size_t>(lev)];
        const auto pts = L.dm.pointsPerRank(L.ba);
        std::vector<int> fabs(static_cast<std::size_t>(ranks), 0);
        for (int i = 0; i < L.ba.size(); ++i) ++fabs[static_cast<std::size_t>(L.dm[i])];

        // Busiest rank's kernel time for one sweep of one kernel.
        auto kernelTime = [&](const gpu::KernelProfile& k) {
            double worst = 0.0;
            for (int r = 0; r < ranks; ++r) {
                const auto p = pts[static_cast<std::size_t>(r)];
                if (p == 0) continue;
                double t = m.rankKernelTime(k, p, gpuRun, cpp);
                if (gpuRun && fabs[static_cast<std::size_t>(r)] > 1)
                    t += (fabs[static_cast<std::size_t>(r)] - 1) * m.v100.launchOverhead;
                worst = std::max(worst, t);
            }
            return worst;
        };

        rt.advance += nStages * (3.0 * kernelTime(core::wenoKernelProfile()) +
                                 kernelTime(core::viscousKernelProfile()));
        rt.update += nStages * kernelTime(core::updateKernelProfile());
        rt.computeDt += kernelTime(core::computeDtProfile());

        // FillPatch's on-rank work: ghost-shell data staging (local copies)
        // and, on fine levels, ghost interpolation. On CPU runs the copies
        // go through host memory bandwidth; the GPU path folds them into
        // kernel-model traffic.
        std::vector<std::int64_t> ghostPerRank(static_cast<std::size_t>(ranks), 0);
        for (int i = 0; i < L.ba.size(); ++i) {
            ghostPerRank[static_cast<std::size_t>(L.dm[i])] +=
                L.ba[i].grow(core::NGHOST).numPts() - L.ba[i].numPts();
        }
        std::int64_t maxGhost = 0;
        for (auto g : ghostPerRank) maxGhost = std::max(maxGhost, g);
        const double ghostBytes =
            static_cast<double>(maxGhost) * core::NCONS * sizeof(double);
        if (!gpuRun) {
            rt.fillBoundary += nStages * 2.0 * ghostBytes / net.hostCopyBandwidth;
        }
        if (lev > 0) {
            double tInterp = 0.0;
            for (int r = 0; r < ranks; ++r) {
                if (ghostPerRank[static_cast<std::size_t>(r)] == 0) continue;
                tInterp = std::max(
                    tInterp, m.rankKernelTime(core::interpKernelProfile(),
                                              ghostPerRank[static_cast<std::size_t>(r)],
                                              gpuRun, cpp));
            }
            rt.interpCompute += nStages * tInterp;
        }

        const PhaseLoad fbLoad =
            fillBoundaryLoad(L, core::NGHOST, core::NCONS, ranks);
        rt.fillBoundary += nStages * fbLoad.time(net, c.nodes, gpuRun, rpn);
        if (gpuRun) {
            // The device side of the exchange: the busiest rank dispatches
            // one copy-engine descriptor per message and streams the
            // pack/unpack staging through device memory.
            rt.fillBoundary +=
                nStages * (fbLoad.maxMessages() * m.v100.copyEngineDispatch +
                           2.0 * static_cast<double>(fbLoad.maxBytes()) /
                               m.v100.bwDram);
        }

        if (lev > 0) {
            const LevelMeta& P = h.levels[static_cast<std::size_t>(lev - 1)];
            const int ngc = core::NGHOST / 2 + 1;
            const BoxArray cba = L.ba.coarsen(h.refRatio);
            const PhaseLoad pcLoad =
                copyLoad(cba, L.dm, ngc, P.ba, P.dm, core::NCONS, ranks);
            rt.parallelCopy += nStages * pcLoad.time(net, c.nodes, gpuRun, rpn) +
                               nStages * net.parallelCopyMetaTime(ranks, gpuRun);
            if (curvilinearInterp) {
                const PhaseLoad coordLoad =
                    copyLoad(cba, L.dm, ngc, P.ba, P.dm, 3, ranks);
                rt.parallelCopyInterp +=
                    nStages * coordLoad.time(net, c.nodes, gpuRun, rpn) +
                    nStages * net.parallelCopyMetaTime(ranks, gpuRun);
            }
            // AverageDown, once per iteration (RK stage 3 only).
            rt.averageDown +=
                copyLoad(P.ba, P.dm, 0, cba, L.dm, core::NCONS, ranks)
                    .time(net, c.nodes, gpuRun, rpn) +
                kernelTime(core::updateKernelProfile());
        }
    }

    rt.computeDt += net.reductionTime(ranks, c.nodes);

    // Regrid: tagging sweep + Berger-Rigoutsos + redistribution of the
    // moved fraction of each fine level, amortized over the interval.
    if (h.finestLevel() > 0) {
        double tRegrid = 0.0;
        for (int lev = 1; lev <= h.finestLevel(); ++lev) {
            const LevelMeta& L = h.levels[static_cast<std::size_t>(lev)];
            const double levelBytes =
                static_cast<double>(L.ba.numPts()) * core::NCONS * sizeof(double);
            const double moved = levelBytes * params_.regridMoveFraction;
            tRegrid += moved * m.ranksPerNode(gpuRun) /
                           (ranks * net.bandwidth) * net.contention(c.nodes) +
                       2.0 * net.parallelCopyMetaTime(ranks, gpuRun) +
                       L.ba.size() * 2e-6; // clustering + metadata rebuild
            // Tagging sweep on the parent level.
            const LevelMeta& P = h.levels[static_cast<std::size_t>(lev - 1)];
            const auto pts = P.dm.pointsPerRank(P.ba);
            std::int64_t maxPts = 0;
            for (auto p : pts) maxPts = std::max(maxPts, p);
            tRegrid += m.rankKernelTime(core::computeDtProfile(), maxPts, gpuRun, cpp);
        }
        rt.regrid = tRegrid / params_.regridFreq;
    }

    if (params_.modelCommFaults && params_.commFaultRate > 0.0) {
        // Expected retransmit traffic of the verified exchange: a fraction
        // commFaultRate of messages times out or fails its CRC and is
        // re-sent after a NACK, so the wire carries the exchanged volume
        // again (with the dispatch cost of the duplicate descriptors).
        // First-order in the rate; the geometric tail of re-faulted
        // retransmits is negligible at realistic rates.
        rt.retransmit = params_.commFaultRate * rt.commWait();
    }

    if (params_.modelFailures) {
        // Charge the Daly checkpoint + expected-rework waste against each
        // iteration so that resilience / total() == overheadFraction.
        const ResilienceStats rs = resilienceStats(c);
        const double base = rt.total(); // resilience still 0 here
        rt.resilience = base * rs.overheadFraction / (1.0 - rs.overheadFraction);
    }
    return rt;
}

ResilienceStats ScalingSimulator::resilienceStats(const ScalingCase& c) const {
    ResilienceStats rs;
    // A checkpoint stores the conserved fields of every active point (what
    // CroccoAmr::writeCheckpoint serializes); coordinates and metrics are
    // regenerated on restart.
    rs.checkpointBytes = buildHierarchy(c).activePoints() * core::NCONS *
                         static_cast<std::int64_t>(sizeof(double));
    rs.writeTime = params_.failure.checkpointWriteTime(rs.checkpointBytes,
                                                       c.nodes);
    rs.systemMtbf = params_.failure.systemMtbf(c.nodes);
    rs.optimalInterval = FailureModel::dalyInterval(rs.writeTime, rs.systemMtbf);
    rs.overheadFraction = params_.failure.wasteFraction(rs.writeTime,
                                                        rs.systemMtbf);
    return rs;
}

RecoveryComparison ScalingSimulator::recoveryComparison(
        const ScalingCase& c) const {
    const FailureModel& fm = params_.failure;
    RecoveryComparison rc;

    // Disk scheme: exactly the existing economics (filesystem dump, job
    // relaunch + checkpoint re-read on every failure).
    rc.disk = resilienceStats(c);
    rc.diskRestoreTime = fm.diskRestoreTime(rc.disk.checkpointBytes, c.nodes);

    // Buddy scheme: same state volume, but the dump streams to the partner
    // over the interconnect and a failure is repaired in memory — shrink,
    // adopt the dead rank's boxes from the partner copy, keep running.
    rc.buddy.checkpointBytes = rc.disk.checkpointBytes;
    rc.buddy.systemMtbf = rc.disk.systemMtbf;
    rc.buddy.writeTime = fm.buddyCheckpointTime(rc.buddy.checkpointBytes,
                                                c.nodes);
    rc.buddy.optimalInterval = FailureModel::dalyInterval(rc.buddy.writeTime,
                                                          rc.buddy.systemMtbf);
    rc.buddyRestoreTime = fm.buddyRestoreTime(rc.buddy.checkpointBytes,
                                              c.nodes);
    rc.buddy.overheadFraction = fm.wasteFraction(
        rc.buddy.writeTime, rc.buddy.systemMtbf, rc.buddyRestoreTime);
    rc.disk.overheadFraction = fm.wasteFraction(
        rc.disk.writeTime, rc.disk.systemMtbf, rc.diskRestoreTime);

    rc.detectionLatency = fm.detectionLatency;

    // Retransmit surcharge of the verified exchange relative to the
    // fault-free iteration, at this case's communication profile.
    if (params_.modelCommFaults && params_.commFaultRate > 0.0) {
        RegionTimes rt = iterationTime(c);
        const double surcharge = rt.retransmit;
        const double total = rt.total();
        if (total > 0.0) rc.retransmitOverheadFraction = surcharge / total;
    }
    return rc;
}

SdcComparison ScalingSimulator::sdcComparison(const ScalingCase& c,
                                              int interval) const {
    assert(interval >= 1);
    const FailureModel& fm = params_.failure;
    SdcComparison sc;
    // The guarded footprint is the conserved state — the same bytes a
    // checkpoint serializes (coordinates/metrics are regenerated, and
    // scratch is refilled before every read, so upsets there are harmless).
    sc.residentBytes = buildHierarchy(c).activePoints() * core::NCONS *
                       static_cast<std::int64_t>(sizeof(double));
    sc.upsetMtbf = fm.sdcMeanTimeBetween(sc.residentBytes);
    sc.scanTime = fm.sdcScanTime(sc.residentBytes, c.nodes);
    const double stepTime = iterationTime(c).total();
    sc.detectionOverheadFraction =
        fm.sdcDetectionOverhead(sc.residentBytes, c.nodes, stepTime, interval);
    // Guarded: an upset is caught at most `interval` steps after it lands
    // and repaired fab-granularly (one in-memory copy, priced as one scan).
    sc.guardedWasteFraction = std::clamp(
        sc.detectionOverheadFraction +
            fm.sdcWasteFraction(sc.residentBytes,
                                static_cast<double>(interval) * stepTime,
                                sc.scanTime),
        0.0, 0.99);
    // Unguarded: the upset silently poisons the trajectory until the next
    // checkpoint validation — on average half a Daly cycle of work is wrong
    // and must be replayed from a disk restore.
    const ResilienceStats rs = resilienceStats(c);
    const double cycle = rs.optimalInterval + rs.writeTime;
    sc.unguardedWasteFraction = fm.sdcWasteFraction(
        sc.residentBytes, cycle,
        fm.diskRestoreTime(rs.checkpointBytes, c.nodes) + 0.5 * cycle);
    return sc;
}

} // namespace crocco::machine
