// The AMR data-movement layer runs one pool task per destination fab:
// fillBoundary and parallelCopy replays, FillPatch's coarse-fine
// interpolation, the physical BC fills and AverageDown. Each scenario below
// runs in one process at 1 and at 4 threads and must leave bitwise-equal
// fabs and an identical CommLog message vector; with a dead rank, the
// RankFailure must be raised at the same message, after the same log
// prefix; under a seeded fault injector (the CRC-verified exchange), the
// fabs must also equal the injector-free run's.
#include "amr/FillPatch.hpp"
#include "core/BCFill.hpp"
#include "parallel/CommFaults.hpp"
#include "gpu/ThreadPool.hpp"
#include "mesh/CoordStore.hpp"
#include "parallel/SimComm.hpp"
#include "problems/Dmr.hpp"

#include "FaultCampaign.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

namespace crocco::amr {
namespace {

std::vector<Box> tiledBoxes(const Box& domain, int size) {
    std::vector<Box> out;
    forEachCell(domain.coarsen(size), [&](int i, int j, int k) {
        const IntVect lo = domain.smallEnd() + IntVect{i, j, k} * size;
        out.emplace_back(lo, lo + IntVect(size - 1));
    });
    return out;
}

/// What one scenario leaves behind: the bit pattern of every value it
/// wrote, the message record, and the RankFailure text when one was raised.
struct Outcome {
    std::vector<std::uint64_t> bits;
    std::vector<parallel::Message> log;
    std::string failure;

    /// Append every value of `mf` over its valid boxes grown by `ngrow`.
    void add(const MultiFab& mf, int ngrow) {
        for (int f = 0; f < mf.numFabs(); ++f) {
            auto a = mf.const_array(f);
            for (int n = 0; n < mf.nComp(); ++n)
                forEachCell(mf.validBox(f).grow(ngrow), [&](int i, int j, int k) {
                    bits.push_back(std::bit_cast<std::uint64_t>(a(i, j, k, n)));
                });
        }
    }
};

bool sameMessage(const parallel::Message& a, const parallel::Message& b) {
    return a.src == b.src && a.dst == b.dst && a.bytes == b.bytes &&
           a.kind == b.kind && a.tag == b.tag && a.crc == b.crc;
}

/// Run `scenario` at 1 and at 4 threads and require identical outcomes.
/// Returns the serial outcome so callers can check it is not vacuous.
Outcome expectThreadCountInvariant(const std::function<Outcome()>& scenario) {
    struct Restore {
        int saved = gpu::numThreads();
        ~Restore() { gpu::setNumThreads(saved); }
    } restore;
    gpu::setNumThreads(1);
    const Outcome serial = scenario();
    gpu::setNumThreads(4);
    const Outcome pooled = scenario();

    EXPECT_EQ(serial.bits.size(), pooled.bits.size());
    std::size_t differing = 0;
    for (std::size_t v = 0; v < serial.bits.size() && v < pooled.bits.size(); ++v)
        differing += serial.bits[v] != pooled.bits[v];
    EXPECT_EQ(differing, 0u) << "values differ between 1 and 4 threads";

    EXPECT_EQ(serial.log.size(), pooled.log.size());
    for (std::size_t m = 0; m < serial.log.size() && m < pooled.log.size(); ++m) {
        if (sameMessage(serial.log[m], pooled.log[m])) continue;
        ADD_FAILURE() << "first differing message at index " << m << ": "
                      << serial.log[m].tag << " vs " << pooled.log[m].tag;
        break;
    }
    EXPECT_EQ(serial.failure, pooled.failure);
    return serial;
}

/// A value that differs per fab, cell and component, so a copy from the
/// wrong source (or in the wrong order) shows.
Real sample(int fab, int i, int j, int k, int n) {
    return 1.0 + 0.125 * i - 0.0625 * j + 0.03125 * k + 10.0 * n + 1.0e-3 * fab;
}

void fillGrown(MultiFab& mf, int ngrow) {
    for (int f = 0; f < mf.numFabs(); ++f) {
        auto a = mf.array(f);
        for (int n = 0; n < mf.nComp(); ++n)
            forEachCell(mf.validBox(f).grow(ngrow), [&](int i, int j, int k) {
                a(i, j, k, n) = sample(f, i, j, k, n);
            });
    }
}

/// Periodic in x and z, 12 boxes of 8 cells on 4 ranks.
struct PeriodicLayout {
    Geometry geom;
    BoxArray ba;
    DistributionMapping dm;

    PeriodicLayout() {
        const Box domain(IntVect::zero(), IntVect{23, 15, 15});
        Periodicity per;
        per.periodic[0] = per.periodic[2] = true;
        geom = Geometry(domain, {0, 0, 0}, {1, 1, 1}, per);
        ba = BoxArray(tiledBoxes(domain, 8));
        dm = DistributionMapping(ba, 4);
    }
};

Outcome fillBoundaryScenario(int deadRank) {
    const PeriodicLayout l;
    parallel::SimComm comm(4);
    MultiFab mf(l.ba, l.dm, 2, 3, &comm);
    mf.setVal(-1.0);
    fillGrown(mf, 0);
    if (deadRank >= 0) comm.killRank(deadRank);
    Outcome out;
    try {
        mf.fillBoundary(l.geom);
    } catch (const parallel::RankFailure& e) {
        out.failure = e.what();
    }
    if (out.failure.empty()) out.add(mf, mf.nGrow());
    out.log = comm.log().messages();
    return out;
}

/// The coordinate gather: grown sources overlap and disagree in their
/// ghosts, so the result depends on the order of each fab's copies.
Outcome parallelCopyScenario(int deadRank) {
    const PeriodicLayout l;
    parallel::SimComm comm(4);
    MultiFab src(l.ba, l.dm, 3, 3, &comm);
    fillGrown(src, src.nGrow());
    const BoxArray dstBa(tiledBoxes(l.geom.domain(), 4));
    const DistributionMapping dstDm(dstBa, 4);
    MultiFab gather(dstBa, dstDm, 3, 2, &comm), periodic(dstBa, dstDm, 3, 2, &comm);
    gather.setVal(-1.0);
    periodic.setVal(-1.0);
    if (deadRank >= 0) comm.killRank(deadRank);
    Outcome out;
    try {
        gather.parallelCopy(src, 0, 0, 3, 2, 3, "ParallelCopy_interp");
        periodic.parallelCopy(src, 1, 0, 2, 2, 0, "ParallelCopy", &l.geom);
    } catch (const parallel::RankFailure& e) {
        out.failure = e.what();
    }
    if (out.failure.empty()) {
        out.add(gather, gather.nGrow());
        out.add(periodic, periodic.nGrow());
    }
    out.log = comm.log().messages();
    return out;
}

/// Two levels of the DMR problem on 4 ranks: a 32x16x8 coarse level in
/// 8-cell boxes and a fine patch touching the y-low wall and both periodic
/// z faces, with curvilinear coordinates from the problem's mapping.
struct TwoLevels {
    problems::Dmr dmr;
    Geometry geom0, geom1;
    BoxArray ba0, ba1;
    DistributionMapping dm0, dm1;
    parallel::SimComm comm{4};
    MultiFab crse, fine, crseCoords, fineCoords;

    TwoLevels() : dmr(options()) {
        geom0 = dmr.geometry();
        geom1 = geom0.refine(IntVect(2));
        ba0 = BoxArray(tiledBoxes(geom0.domain(), 8));
        dm0 = DistributionMapping(ba0, 4);
        ba1 = BoxArray(tiledBoxes(Box(IntVect{8, 0, 0}, IntVect{39, 15, 15}), 8));
        dm1 = DistributionMapping(ba1, 4);
        const mesh::CoordStore store(dmr.mapping(), geom0, IntVect(2), 1, 7);
        crseCoords.define(ba0, dm0, 3, 7, &comm);
        fineCoords.define(ba1, dm1, 3, 7, &comm);
        store.getCoords(crseCoords, 0);
        store.getCoords(fineCoords, 1);
        crse.define(ba0, dm0, core::NCONS, 4, &comm);
        fine.define(ba1, dm1, core::NCONS, 4, &comm);
        crse.setVal(0.0);
        fine.setVal(0.0);
        fillGrown(crse, 0);
        fillGrown(fine, 0);
    }

    static problems::Dmr::Options options() {
        problems::Dmr::Options o;
        o.nx = 32;
        o.ny = 16;
        o.nz = 8;
        return o;
    }
};

/// FillPatchTwoLevels, InterpFromCoarseLevel and AverageDown in sequence
/// under one physical BC functor, with `faults` (if any) attached to the
/// communicator.
Outcome fillPatchScenario(
    const std::function<PhysBCFunct(const problems::Dmr&)>& makeBC,
    parallel::CommFaults* faults = nullptr) {
    TwoLevels s;
    s.comm.attachFaults(faults);
    const PhysBCFunct bc = makeBC(s.dmr);
    const CurvilinearInterp interp;
    MultiFab patched(s.ba1, s.dm1, core::NCONS, 4, &s.comm);
    MultiFab interpolated(s.ba1, s.dm1, core::NCONS, 4, &s.comm);
    patched.setVal(-1.0);
    interpolated.setVal(-1.0);
    FillPatchTwoLevels(patched, s.fine, s.crse, s.geom1, s.geom0, IntVect(2),
                       interp, bc, bc, 0.05, &s.fineCoords, &s.crseCoords);
    InterpFromCoarseLevel(interpolated, s.crse, s.geom1, s.geom0, IntVect(2),
                          interp, bc, bc, 0.05, &s.fineCoords, &s.crseCoords);
    AverageDown(s.fine, s.crse, IntVect(2), 0, 0, core::NCONS);
    Outcome out;
    out.add(patched, patched.nGrow());
    out.add(interpolated, interpolated.nGrow());
    out.add(s.crse, 0); // AverageDown leaves the coarse ghosts stale
    out.log = s.comm.log().messages();
    return out;
}

Outcome averageDownScenario(int deadRank) {
    TwoLevels s;
    if (deadRank >= 0) s.comm.killRank(deadRank);
    Outcome out;
    try {
        AverageDown(s.fine, s.crse, IntVect(2), 0, 0, core::NCONS);
    } catch (const parallel::RankFailure& e) {
        out.failure = e.what();
    }
    if (out.failure.empty()) out.add(s.crse, 0);
    out.log = s.comm.log().messages();
    return out;
}

core::BCSpec mixedSpec() {
    core::BCSpec spec;
    spec.face[0][0].type = core::BCType::Dirichlet;
    spec.face[0][0].state = {1.4, 0.5, -0.25, 0.0, 2.5};
    spec.face[0][1].type = core::BCType::Outflow;
    spec.face[1][0].type = core::BCType::SlipWall;
    spec.face[1][1].type = core::BCType::NoSlipWall;
    return spec;
}

TEST(DataMovementThreads, FillBoundaryWithPeriodicShifts) {
    const Outcome o = expectThreadCountInvariant([] { return fillBoundaryScenario(-1); });
    EXPECT_FALSE(o.bits.empty());
    EXPECT_FALSE(o.log.empty());
}

TEST(DataMovementThreads, ParallelCopyWithOverlappingGrownSources) {
    const Outcome o = expectThreadCountInvariant([] { return parallelCopyScenario(-1); });
    EXPECT_FALSE(o.bits.empty());
    EXPECT_FALSE(o.log.empty());
}

TEST(DataMovementThreads, FillPatchInterpAndAverageDownWithDmrBC) {
    const Outcome o = expectThreadCountInvariant([] {
        return fillPatchScenario(
            [](const problems::Dmr& dmr) { return dmr.boundaryConditions(); });
    });
    EXPECT_FALSE(o.log.empty());
}

TEST(DataMovementThreads, FillPatchInterpAndAverageDownWithStandardBCs) {
    const Outcome o = expectThreadCountInvariant([] {
        return fillPatchScenario(
            [](const problems::Dmr&) { return core::makeBCFunct(mixedSpec()); });
    });
    EXPECT_FALSE(o.log.empty());
}

TEST(DataMovementThreads, VerifiedExchangeUnderSeededFaults) {
    // A fresh injector per run, seeded and not persistent: both thread
    // counts see the same decision stream, every fault is repaired, and
    // the fabs are the injector-free run's.
    const auto dmrBC = [](const problems::Dmr& dmr) {
        return dmr.boundaryConditions();
    };
    parallel::CommFaults::Stats injected;
    const Outcome verified = expectThreadCountInvariant([&] {
        parallel::CommFaults faults(2026);
        parallel::CommFaults::Rates r;
        r.drop = 0.05;
        r.duplicate = 0.05;
        r.delay = 0.05;
        r.corrupt = 0.05;
        faults.setRates(r);
        Outcome out = fillPatchScenario(dmrBC, &faults);
        parallel::CommLog log;
        for (const parallel::Message& m : out.log) log.record(m);
        testing::expectWireAccountsForInjectedFaults(log, faults.stats());
        injected = faults.stats();
        return out;
    });
    EXPECT_GT(injected.drops + injected.delays + injected.corruptions, 0);
    const Outcome plain = fillPatchScenario(dmrBC);
    EXPECT_EQ(verified.bits, plain.bits);
}

TEST(DataMovementThreads, DeadRankFailsAtTheSameMessage) {
    // Each exchange records messages before the first one that touches
    // rank 3 (checked below), so the failure point is not trivially 0.
    const std::vector<std::function<Outcome()>> scenarios = {
        [] { return fillBoundaryScenario(3); },
        [] { return parallelCopyScenario(3); },
        [] { return averageDownScenario(3); },
    };
    for (const auto& scenario : scenarios) {
        const Outcome o = expectThreadCountInvariant(scenario);
        EXPECT_NE(o.failure.find("rank 3 is dead"), std::string::npos) << o.failure;
        EXPECT_FALSE(o.log.empty()) << "RankFailure raised before any message";
    }
}

} // namespace
} // namespace crocco::amr
