#include "resilience/Crc32.hpp"
#include "resilience/FaultInjector.hpp"
#include "resilience/StateValidator.hpp"

#include "core/CroccoAmr.hpp"
#include "gpu/LaunchStats.hpp"
#include "gpu/ThreadPool.hpp"
#include "problems/Dmr.hpp"

#include "RecoveryTrace.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>

namespace crocco::resilience {
namespace {

using amr::Box;
using amr::BoxArray;
using amr::DistributionMapping;
using amr::IntVect;
using amr::MultiFab;
using core::GasModel;
using testing::Climb;
using testing::climbs;

// ------------------------------------------------------------------ CRC32

TEST(Crc32, KnownAnswerAndChaining) {
    // The canonical CRC-32 check value.
    const char* s = "123456789";
    EXPECT_EQ(crc32(s, 9), 0xCBF43926u);
    EXPECT_EQ(crc32(s, 0), 0u);
    // Chaining across a split must equal one pass.
    const std::uint32_t first = crc32(s, 4);
    EXPECT_EQ(crc32(s + 4, 5, first), crc32(s, 9));
    // One flipped bit changes the checksum.
    char buf[9];
    std::copy(s, s + 9, buf);
    buf[3] ^= 0x10;
    EXPECT_NE(crc32(buf, 9), crc32(s, 9));
}

/// Byte-at-a-time CRC-32, the definition the sliced implementation must
/// reproduce.
std::uint32_t crc32Bytewise(const unsigned char* p, std::size_t n,
                            std::uint32_t seed) {
    std::uint32_t c = seed ^ 0xFFFFFFFFu;
    for (std::size_t i = 0; i < n; ++i) {
        c ^= p[i];
        for (int k = 0; k < 8; ++k) c = (c & 1u) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
    }
    return c ^ 0xFFFFFFFFu;
}

TEST(Crc32, EqualsBytewiseReferenceForEveryLengthAlignmentAndSeed) {
    std::vector<unsigned char> buf(300 + 8);
    std::uint32_t x = 2463534242u; // xorshift32: arbitrary, reproducible bytes
    for (auto& b : buf) {
        x ^= x << 13;
        x ^= x >> 17;
        x ^= x << 5;
        b = static_cast<unsigned char>(x);
    }
    for (std::size_t align = 0; align < 8; ++align) {
        const unsigned char* p = buf.data() + align;
        for (std::size_t n = 0; n <= 300; ++n) {
            for (const std::uint32_t seed : {0u, 0xCBF43926u, 0xFFFFFFFFu}) {
                ASSERT_EQ(crc32(p, n, seed), crc32Bytewise(p, n, seed))
                    << "length " << n << " alignment " << align << " seed " << seed;
            }
            // Chained across a split at n/3, the checksum equals one pass.
            const std::size_t cut = n / 3;
            ASSERT_EQ(crc32(p + cut, n - cut, crc32(p, cut)), crc32Bytewise(p, n, 0))
                << "length " << n << " alignment " << align << " split " << cut;
        }
    }
    const char* check = "123456789";
    EXPECT_EQ(crc32(check, 9), 0xCBF43926u);
}

// --------------------------------------------------------- StateValidator

MultiFab makeState(double rho, double e) {
    const Box b(IntVect::zero(), IntVect{7, 7, 7});
    BoxArray ba({b});
    DistributionMapping dm(ba, 1);
    MultiFab mf(ba, dm, core::NCONS, 0);
    mf.setVal(0.0);
    mf.setVal(rho, core::URHO, 1);
    mf.setVal(e, core::UEDEN, 1);
    return mf;
}

TEST(StateValidator, HealthyStatePasses) {
    MultiFab mf = makeState(1.0, 2.5);
    const auto rep = validateState(mf, GasModel{}, 0);
    EXPECT_TRUE(rep.healthy());
    EXPECT_EQ(rep.faultCount, 0);
    EXPECT_EQ(rep.cellsScanned, 512);
    EXPECT_NE(rep.describe().find("healthy"), std::string::npos);
}

TEST(StateValidator, DetectsNaNWithExactAddress) {
    MultiFab mf = makeState(1.0, 2.5);
    mf.array(0)(3, 4, 5, core::UMY) = std::numeric_limits<double>::quiet_NaN();
    const auto rep = validateState(mf, GasModel{}, 2);
    ASSERT_FALSE(rep.healthy());
    ASSERT_EQ(rep.faults.size(), 1u);
    const CellFault& f = rep.faults[0];
    EXPECT_EQ(f.kind, FaultKind::NotANumber);
    EXPECT_EQ(f.level, 2);
    EXPECT_EQ(f.fabIndex, 0);
    EXPECT_EQ(f.cell, (IntVect{3, 4, 5}));
    EXPECT_EQ(f.comp, core::UMY);
}

TEST(StateValidator, DetectsInfNegativeDensityAndNegativePressure) {
    MultiFab mf = makeState(1.0, 2.5);
    auto a = mf.array(0);
    a(0, 0, 0, core::UEDEN) = std::numeric_limits<double>::infinity();
    a(1, 0, 0, core::URHO) = -0.25;
    // Finite but unphysical: kinetic energy exceeds total energy.
    a(2, 0, 0, core::UMX) = 10.0;
    const auto rep = validateState(mf, GasModel{}, 0);
    ASSERT_EQ(rep.faultCount, 3);
    EXPECT_EQ(rep.faults[0].kind, FaultKind::Infinite);
    EXPECT_EQ(rep.faults[1].kind, FaultKind::NegativeDensity);
    EXPECT_EQ(rep.faults[2].kind, FaultKind::NegativePressure);
    // The report names each kind.
    const std::string d = rep.describe();
    EXPECT_NE(d.find("Inf"), std::string::npos);
    EXPECT_NE(d.find("negative-density"), std::string::npos);
    EXPECT_NE(d.find("negative-pressure"), std::string::npos);
}

TEST(StateValidator, FaultReportIsCappedButCountIsNot) {
    MultiFab mf = makeState(-1.0, 2.5); // every cell has negative density
    const auto rep = validateState(mf, GasModel{}, 0);
    EXPECT_EQ(rep.faultCount, 512);
    EXPECT_EQ(rep.faults.size(), static_cast<std::size_t>(kMaxFaultsReported));
    EXPECT_NE(rep.describe().find("more not shown"), std::string::npos);
}

TEST(StateValidator, HierarchyMergesLevels) {
    std::vector<MultiFab> U;
    U.push_back(makeState(1.0, 2.5));
    U.push_back(makeState(1.0, 2.5));
    U[1].array(0)(1, 2, 3, core::URHO) = -1.0;
    const auto rep = validateHierarchy(U, 1, GasModel{});
    EXPECT_EQ(rep.cellsScanned, 1024);
    ASSERT_EQ(rep.faultCount, 1);
    EXPECT_EQ(rep.faults[0].level, 1);
}

// ------------------------------------------------ fab-parallel reductions

/// Bits of a double, so a NaN fault value compares equal to itself.
std::uint64_t bitsOf(double v) {
    std::uint64_t b = 0;
    std::memcpy(&b, &v, sizeof v);
    return b;
}

TEST(FabParallelReductions, DtAndHealthIdenticalAtOneTwoFourEightThreads) {
    // core::computeDt and validateState each run one ParallelForIndex launch
    // per level and combine the per-fab partials in fab order, so dt, the
    // ComputeDt reduction records and the HealthReport cannot depend on the
    // thread count. The dmr_regrid shape: three levels of 8-cell boxes on
    // eight ranks.
    struct RestoreThreads {
        int saved = gpu::numThreads();
        ~RestoreThreads() { gpu::setNumThreads(saved); }
    } restore;
    problems::Dmr::Options o;
    o.nx = 32;
    o.ny = 8;
    o.nz = 8;
    o.maxLevel = 2;
    problems::Dmr dmr(o);
    auto cfg = dmr.solverConfig(core::CodeVersion::V20);
    cfg.amrInfo.maxGridSize = 8;
    cfg.nranks = 8;
    parallel::SimComm comm(8);
    core::CroccoAmr solver(dmr.geometry(), cfg, dmr.mapping(), &comm);
    solver.init(dmr.initialCondition(), dmr.boundaryConditions());
    ASSERT_EQ(solver.finestLevel(), 2);

    // Faults in three fabs of every level, two per fab: 18 in all, more
    // than the report keeps, spread over first, middle and last fabs, which
    // different threads claim at more than one thread.
    std::vector<MultiFab> U;
    int nfabs = 0;
    for (int lev = 0; lev <= solver.finestLevel(); ++lev) {
        U.push_back(solver.state(lev));
        MultiFab& mf = U.back();
        nfabs += mf.numFabs();
        ASSERT_GE(mf.numFabs(), 3) << "level " << lev;
        for (int f : {0, mf.numFabs() / 2, mf.numFabs() - 1}) {
            const IntVect lo = mf.validBox(f).smallEnd();
            const IntVect hi = mf.validBox(f).bigEnd();
            auto a = mf.array(f);
            a(lo[0], lo[1], lo[2], core::UMX) =
                std::numeric_limits<double>::quiet_NaN();
            a(hi[0], hi[1], hi[2], core::URHO) = -0.5;
        }
    }
    struct Result {
        double dt = 0.0;
        std::vector<parallel::Message> dtRecords;
        std::uint64_t launches = 0;
        HealthReport health;
    };
    auto run = [&](int nthreads) {
        gpu::setNumThreads(nthreads);
        Result r;
        r.dt = std::numeric_limits<double>::infinity();
        const std::size_t mark = comm.log().count();
        const std::uint64_t l0 = gpu::LaunchStats::count();
        for (int lev = 0; lev <= solver.finestLevel(); ++lev)
            r.dt = std::min(r.dt, core::computeDt(solver.state(lev),
                                                  solver.metrics(lev),
                                                  solver.geom(lev), cfg.gas,
                                                  cfg.cfl));
        r.health = validateHierarchy(U, solver.finestLevel(), cfg.gas);
        r.launches = gpu::LaunchStats::count() - l0;
        const auto& log = comm.log().messages();
        r.dtRecords.assign(log.begin() + static_cast<std::ptrdiff_t>(mark), log.end());
        return r;
    };

    const Result ref = run(1);
    ASSERT_TRUE(std::isfinite(ref.dt));
    ASSERT_GT(ref.dt, 0.0);
    // One modeled launch per fab for each of the two reductions.
    EXPECT_EQ(ref.launches, static_cast<std::uint64_t>(2 * nfabs));
    ASSERT_FALSE(ref.dtRecords.empty());
    for (const auto& m : ref.dtRecords) EXPECT_EQ(m.tag, "ComputeDt");
    EXPECT_EQ(ref.health.faultCount, 18);
    ASSERT_EQ(ref.health.faults.size(), static_cast<std::size_t>(kMaxFaultsReported));

    for (int nt : {2, 4, 8}) {
        const Result r = run(nt);
        EXPECT_EQ(bitsOf(r.dt), bitsOf(ref.dt)) << "threads=" << nt;
        EXPECT_EQ(r.launches, ref.launches) << "threads=" << nt;
        ASSERT_EQ(r.dtRecords.size(), ref.dtRecords.size()) << "threads=" << nt;
        for (std::size_t i = 0; i < r.dtRecords.size(); ++i) {
            const auto &a = r.dtRecords[i], &b = ref.dtRecords[i];
            EXPECT_TRUE(a.src == b.src && a.dst == b.dst && a.bytes == b.bytes &&
                        a.kind == b.kind && a.tag == b.tag && a.crc == b.crc)
                << "threads=" << nt << " record " << i;
        }
        EXPECT_EQ(r.health.faultCount, ref.health.faultCount) << "threads=" << nt;
        EXPECT_EQ(r.health.cellsScanned, ref.health.cellsScanned) << "threads=" << nt;
        ASSERT_EQ(r.health.faults.size(), ref.health.faults.size()) << "threads=" << nt;
        for (std::size_t i = 0; i < r.health.faults.size(); ++i) {
            const CellFault &a = r.health.faults[i], &b = ref.health.faults[i];
            EXPECT_TRUE(a.level == b.level && a.fabIndex == b.fabIndex &&
                        a.cell == b.cell && a.comp == b.comp && a.kind == b.kind &&
                        bitsOf(a.value) == bitsOf(b.value))
                << "threads=" << nt << " fault " << i;
        }
    }
}

// ----------------------------------------------------------- FaultInjector

TEST(FaultInjector, SeededAndDeterministic) {
    auto run = [](std::uint64_t seed) {
        std::vector<MultiFab> U;
        U.push_back(makeState(1.0, 2.5));
        FaultInjector inj(seed);
        inj.armCellCorruption(5, FaultInjector::Corruption::QuietNaN);
        inj.corruptState(5, U, 0);
        // Locate the corrupted cell.
        const auto rep = validateState(U[0], GasModel{}, 0);
        return rep.faults.at(0);
    };
    const CellFault a = run(42), b = run(42), c = run(43);
    EXPECT_EQ(a.cell, b.cell);
    EXPECT_EQ(a.comp, b.comp);
    // A different seed picks a different target (true for these seeds).
    EXPECT_TRUE(c.cell != a.cell || c.comp != a.comp);
}

TEST(FaultInjector, OneShotConsumesPersistentRefires) {
    std::vector<MultiFab> U;
    U.push_back(makeState(1.0, 2.5));
    FaultInjector inj(7);
    inj.armCellCorruption(3);
    EXPECT_FALSE(inj.corruptState(2, U, 0)); // wrong step: nothing fires
    EXPECT_TRUE(inj.corruptState(3, U, 0));
    EXPECT_FALSE(inj.corruptState(3, U, 0)); // spent
    EXPECT_EQ(inj.faultsFired(), 1);

    FaultInjector pers(7);
    pers.armPersistentCorruption(3);
    EXPECT_TRUE(pers.corruptState(3, U, 0));
    EXPECT_TRUE(pers.corruptState(3, U, 0));
    EXPECT_EQ(pers.faultsFired(), 2);
}

TEST(FaultInjector, DtInflationIsOneShot) {
    FaultInjector inj(1);
    inj.armDtInflation(4, 8.0);
    EXPECT_DOUBLE_EQ(inj.perturbDt(3, 0.5), 0.5);
    EXPECT_DOUBLE_EQ(inj.perturbDt(4, 0.5), 4.0);
    EXPECT_DOUBLE_EQ(inj.perturbDt(4, 0.5), 0.5);
}

// ----------------------------------------------- solver rollback and retry

problems::Dmr smallDmr(int maxLevel = 0) {
    problems::Dmr::Options o;
    o.nx = 32;
    o.ny = 8;
    o.nz = 8;
    o.maxLevel = maxLevel;
    return problems::Dmr(o);
}

TEST(Rollback, TransientCorruptionIsRetriedAndRunCompletes) {
    // Acceptance: corrupt a cell mid-run; the solver must detect it at the
    // step's health check, roll back, retry clean, and finish with finite
    // conserved totals.
    auto dmr = smallDmr();
    auto cfg = dmr.solverConfig(core::CodeVersion::V20);
    core::CroccoAmr solver(dmr.geometry(), cfg, dmr.mapping());
    solver.init(dmr.initialCondition(), dmr.boundaryConditions());

    FaultInjector inj(123);
    inj.armCellCorruption(2, FaultInjector::Corruption::QuietNaN);
    solver.setFaultInjector(&inj);
    solver.evolve(4);

    EXPECT_EQ(solver.stepCount(), 4);
    EXPECT_EQ(inj.faultsFired(), 1);
    EXPECT_GE(solver.rollbackCount(), 1);
    EXPECT_EQ(climbs(solver.recoveryLog()),
              (std::vector<Climb>{
                  {FaultClass::HealthFault, Rung::StepRollback, true}}));
    EXPECT_TRUE(solver.lastHealth().healthy());
    for (const double t : solver.conservedTotals()) EXPECT_TRUE(std::isfinite(t));
}

TEST(Rollback, DtInflationIsWalkedBackByBackoff) {
    // Blow the CFL limit 64x at step 1: the advance must go unstable, and
    // the guard must halve dt until the step survives.
    auto dmr = smallDmr();
    auto cfg = dmr.solverConfig(core::CodeVersion::V20);
    cfg.guard.maxRetries = 12;
    core::CroccoAmr solver(dmr.geometry(), cfg, dmr.mapping());
    solver.init(dmr.initialCondition(), dmr.boundaryConditions());

    core::CroccoAmr clean(dmr.geometry(), cfg, dmr.mapping());
    clean.init(dmr.initialCondition(), dmr.boundaryConditions());
    clean.step();
    const double stableDt = clean.lastDt();

    FaultInjector inj(9);
    inj.armDtInflation(1, 64.0);
    solver.setFaultInjector(&inj);
    solver.evolve(3);

    EXPECT_EQ(solver.stepCount(), 3);
    EXPECT_GE(solver.rollbackCount(), 1);
    // Four halvings take the 64x inflation back under the CFL limit.
    EXPECT_EQ(climbs(solver.recoveryLog()),
              std::vector<Climb>(
                  4, {FaultClass::HealthFault, Rung::StepRollback, true}));
    // The accepted dt of the poisoned step is 64 * 0.5^k of the stable dt;
    // by completion dt must be back at a stable magnitude.
    EXPECT_LT(solver.lastDt(), 4.0 * stableDt);
    for (const double t : solver.conservedTotals()) EXPECT_TRUE(std::isfinite(t));
}

TEST(Rollback, PersistentCorruptionThrowsSolverDivergence) {
    auto dmr = smallDmr();
    auto cfg = dmr.solverConfig(core::CodeVersion::V20);
    cfg.guard.maxRetries = 2;
    core::CroccoAmr solver(dmr.geometry(), cfg, dmr.mapping());
    solver.init(dmr.initialCondition(), dmr.boundaryConditions());

    FaultInjector inj(5);
    inj.armPersistentCorruption(1, FaultInjector::Corruption::NegativeDensity);
    solver.setFaultInjector(&inj);
    solver.step(); // step 0 is clean

    const auto before = solver.conservedTotals();
    try {
        solver.step();
        FAIL() << "expected SolverDivergence";
    } catch (const SolverDivergence& e) {
        EXPECT_EQ(e.step(), 1);
        EXPECT_FALSE(e.report().healthy());
        EXPECT_EQ(e.report().faults.at(0).kind, FaultKind::NegativeDensity);
        EXPECT_NE(std::string(e.what()).find("negative-density"),
                  std::string::npos);
    }
    // The failed step was rolled back: counters unchanged, state restored.
    EXPECT_EQ(solver.stepCount(), 1);
    const auto after = solver.conservedTotals();
    for (int n = 0; n < core::NCONS; ++n) EXPECT_EQ(after[n], before[n]);
    // It fired on the first attempt plus each of the 2 retries.
    EXPECT_EQ(inj.faultsFired(), 3);
    EXPECT_EQ(climbs(solver.recoveryLog()),
              (std::vector<Climb>{
                  {FaultClass::HealthFault, Rung::StepRollback, true},
                  {FaultClass::HealthFault, Rung::StepRollback, true},
                  {FaultClass::HealthFault, Rung::StepRollback, false}}));
}

} // namespace
} // namespace crocco::resilience
