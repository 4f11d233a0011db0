// PR10 bench: SDC detection economics — what the FabGuard costs, what it
// catches, and what riding unguarded would waste (docs/resilience.md §6).
//
// Three sections:
//
//   1. Measured: wall-clock overhead of each detection mechanism on a
//      small DMR run (CRC+digest verify at interval 1 and 10, sampled
//      dual execution) relative to the guard-off baseline, plus the
//      executed stamp/verify/dual-check counts.
//   2. Executed injection sweep: seeded cold-flip campaigns at several
//      per-fab Bernoulli rates and verify cadences, counting injected vs
//      detected vs undetected flips. Flips landing in a window with no
//      verify are re-stamped with the evolved state and become permanently
//      silent — the detection-latency trade resilience.sdc_interval tunes.
//      Ghost flips are the harmless-undetected control (refilled before
//      use). A fault-free guarded run is the false-positive control.
//   3. Modeled: FailureModel/ScalingSimulator at the paper's 4096-node
//      weak-scaled configuration — detection overhead and guarded vs
//      unguarded waste across cadences, and the waste of repairing one
//      upset at each rung of the recovery ladder (why the ladder tries
//      fab restore before rollback before buddy before disk).
//
// Self-checked gates (exit 1 on a miss, so `ctest -L perf` enforces them):
//   - zero undetected flips in guarded state at interval 1, at every rate,
//   - zero false positives on the fault-free guarded run,
//   - modeled detection overhead < 5% at the default cadence (interval 10),
//   - modeled per-upset waste grows monotonically with ladder depth.
//
// JSON on stdout; the readable table goes to stderr.
#include "core/CroccoAmr.hpp"
#include "machine/FailureModel.hpp"
#include "machine/ScalingSimulator.hpp"
#include "problems/Dmr.hpp"
#include "resilience/FabGuard.hpp"
#include "resilience/FaultRng.hpp"
#include "resilience/SdcInjector.hpp"

#include <chrono>
#include <cstdio>
#include <exception>
#include <memory>
#include <vector>

using namespace crocco;

namespace {

constexpr int kSteps = 10;
constexpr std::uint64_t kSeed = 2026; // the soak campaign's default seed

problems::Dmr smallDmr() {
    problems::Dmr::Options o;
    o.nx = 32;
    o.ny = 8;
    o.nz = 8;
    o.maxLevel = 1;
    return problems::Dmr(o);
}

core::CroccoAmr::Config benchConfig(bool guard, int interval, int sample) {
    auto cfg = smallDmr().solverConfig(core::CodeVersion::V20);
    cfg.nranks = 1;
    cfg.regridFreq = 3;
    cfg.amrInfo.maxGridSize = 8;
    cfg.sdc.guard = guard;
    cfg.sdc.interval = interval;
    cfg.sdc.sample = sample;
    return cfg;
}

std::unique_ptr<core::CroccoAmr> makeSolver(const core::CroccoAmr::Config& cfg) {
    auto dmr = smallDmr();
    auto solver = std::make_unique<core::CroccoAmr>(dmr.geometry(), cfg,
                                                    dmr.mapping(), nullptr);
    solver->init(dmr.initialCondition(), dmr.boundaryConditions());
    return solver;
}

double timedEvolve(core::CroccoAmr& solver, int nsteps) {
    const auto t0 = std::chrono::steady_clock::now();
    solver.evolve(nsteps);
    const auto t1 = std::chrono::steady_clock::now();
    return std::chrono::duration<double>(t1 - t0).count();
}

struct Campaign {
    double rate = 0.0;
    int interval = 1;
    std::int64_t injected = 0;   ///< cold flips into guarded valid state
    std::int64_t ghost = 0;      ///< flips into unguarded ghost cells
    std::int64_t detected = 0;   ///< corrupted fabs localized by a verify
    std::int64_t repaired = 0;   ///< fab-granular in-place restores
    std::int64_t undetected = 0; ///< flips laundered into the next stamp
    bool completed = false;
};

Campaign runCampaign(double rate, int interval) {
    Campaign c;
    c.rate = rate;
    c.interval = interval;
    resilience::SdcInjector inj{resilience::FaultRng(kSeed)};
    inj.setEnabled(true);
    inj.setColdRate(rate);
    auto solver = makeSolver(benchConfig(true, interval, 0));
    solver->setSdcInjector(&inj);
    try {
        solver->evolve(kSteps);
        c.completed = true;
    } catch (const std::exception&) {
        // An absorbed exponent-bit flip can blow past the health guard's
        // retry budget with no buddy/disk rung attached. The campaign
        // still counts: those flips were never seen by the SDC guard.
        c.completed = false;
    }
    c.injected = inj.stats().coldFlips;
    c.ghost = inj.stats().ghostFlips;
    c.detected = solver->sdcGuard().stats().crcMismatches;
    c.repaired = solver->sdcGuard().stats().fabRestores;
    c.undetected = c.injected - c.detected;
    if (c.undetected < 0) c.undetected = 0;
    return c;
}

} // namespace

int main() {
    int failures = 0;

    // ---- Section 1: measured per-mechanism overhead -----------------------
    // Warm-up run so lazy singletons (scratch pool, thread pool) don't bill
    // their setup to the baseline.
    {
        auto warm = makeSolver(benchConfig(false, 1, 0));
        warm->evolve(2);
    }
    auto baseline = makeSolver(benchConfig(false, 1, 0));
    const double tOff = timedEvolve(*baseline, kSteps);

    auto guard1 = makeSolver(benchConfig(true, 1, 0));
    const double tCrc1 = timedEvolve(*guard1, kSteps);
    auto guard10 = makeSolver(benchConfig(true, 10, 0));
    const double tCrc10 = timedEvolve(*guard10, kSteps);
    auto dual = makeSolver(benchConfig(true, 10, 1));
    const double tDual = timedEvolve(*dual, kSteps);

    const double ovCrc1 = (tCrc1 - tOff) / tOff;
    const double ovCrc10 = (tCrc10 - tOff) / tOff;
    const double ovDual = (tDual - tCrc10) / tOff; // dual's increment

    std::fprintf(stderr,
                 "PR10 SDC bench: measured guard overhead, %d-step DMR "
                 "(32x8x8, 2 levels)\n",
                 kSteps);
    std::fprintf(stderr, "%-34s %10s %10s\n", "mechanism", "time s", "ovhd");
    std::fprintf(stderr, "%-34s %10.4f %10s\n", "guard off (baseline)", tOff,
                 "-");
    std::fprintf(stderr, "%-34s %10.4f %9.2f%%\n",
                 "stamp + CRC/digest verify @1", tCrc1, 100.0 * ovCrc1);
    std::fprintf(stderr, "%-34s %10.4f %9.2f%%\n",
                 "stamp + CRC/digest verify @10", tCrc10, 100.0 * ovCrc10);
    std::fprintf(stderr, "%-34s %10.4f %9.2f%%\n",
                 "+ dual execution @1 (increment)", tDual, 100.0 * ovDual);

    // ---- Section 2: executed injection sweep ------------------------------
    const double rates[] = {0.01, 0.05, 0.2};
    const int intervals[] = {1, 5};
    std::vector<Campaign> campaigns;
    for (int interval : intervals)
        for (double rate : rates) campaigns.push_back(runCampaign(rate, interval));

    // False-positive control: guard on, verify every step, no injector. A
    // dual-execution mismatch is a KernelSdc event in the recovery log.
    auto clean = makeSolver(benchConfig(true, 1, 1));
    clean->evolve(kSteps);
    std::int64_t falsePositives = clean->sdcGuard().stats().crcMismatches +
                                  clean->sdcGuard().stats().digestMismatches;
    for (const auto& e : clean->recoveryLog().events())
        if (e.fault == resilience::FaultClass::KernelSdc) ++falsePositives;

    std::fprintf(stderr,
                 "\ninjection sweep: per-fab Bernoulli cold flips, seed %llu\n",
                 static_cast<unsigned long long>(kSeed));
    std::fprintf(stderr, "%8s %9s %9s %9s %9s %11s %10s\n", "rate",
                 "interval", "injected", "detected", "repaired", "undetected",
                 "completed");
    for (const Campaign& c : campaigns) {
        std::fprintf(stderr, "%8.3f %9d %9lld %9lld %9lld %11lld %10s\n",
                     c.rate, c.interval, static_cast<long long>(c.injected),
                     static_cast<long long>(c.detected),
                     static_cast<long long>(c.repaired),
                     static_cast<long long>(c.undetected),
                     c.completed ? "yes" : "aborted");
        if (c.interval == 1 && c.undetected != 0) {
            std::fprintf(stderr,
                         "FAIL: %lld undetected flips in guarded state at "
                         "interval 1 (rate %.3f)\n",
                         static_cast<long long>(c.undetected), c.rate);
            ++failures;
        }
        if (c.interval == 1 && !c.completed) {
            std::fprintf(stderr,
                         "FAIL: interval-1 campaign aborted (rate %.3f) — "
                         "every flip should be repaired before the solve\n",
                         c.rate);
            ++failures;
        }
    }
    std::fprintf(stderr, "false positives on fault-free guarded run: %lld\n",
                 static_cast<long long>(falsePositives));
    if (falsePositives != 0) {
        std::fprintf(stderr, "FAIL: guard flagged clean state\n");
        ++failures;
    }

    // ---- Section 3: modeled economics at 4096 nodes -----------------------
    machine::ScalingSimulator sim;
    const machine::FailureModel& fm = sim.params().failure;
    machine::ScalingCase big;
    big.version = core::CodeVersion::V20;
    big.nodes = 4096;
    big.equivalentPoints = 4096LL * 40'000'000;

    const int cadences[] = {1, 2, 5, 10, 20, 50};
    std::fprintf(stderr,
                 "\nmodeled at 4096 nodes (weak scaling, 4e7 pts/node, "
                 "%.1e upsets/GB-hour):\n",
                 fm.sdcRatePerGBHour);
    std::fprintf(stderr, "%9s %12s %14s %16s\n", "interval", "detect ovhd",
                 "guarded waste", "unguarded waste");
    std::vector<machine::SdcComparison> swept;
    for (int interval : cadences) {
        const machine::SdcComparison sc = sim.sdcComparison(big, interval);
        swept.push_back(sc);
        std::fprintf(stderr, "%9d %11.5f%% %13.5f%% %15.5f%%\n", interval,
                     100.0 * sc.detectionOverheadFraction,
                     100.0 * sc.guardedWasteFraction,
                     100.0 * sc.unguardedWasteFraction);
    }
    const machine::SdcComparison atDefault = sim.sdcComparison(big, 10);
    if (!(atDefault.detectionOverheadFraction < 0.05)) {
        std::fprintf(stderr,
                     "FAIL: modeled detection overhead %.4f >= 5%% at the "
                     "default cadence (interval 10)\n",
                     atDefault.detectionOverheadFraction);
        ++failures;
    }
    if (!(atDefault.guardedWasteFraction < atDefault.unguardedWasteFraction)) {
        std::fprintf(stderr,
                     "FAIL: guard does not beat running unguarded at 4096 "
                     "nodes (%.6f vs %.6f)\n",
                     atDefault.guardedWasteFraction,
                     atDefault.unguardedWasteFraction);
        ++failures;
    }

    // Waste vs ladder depth: price one upset repaired at each rung. The
    // detection latency is the guard's (half a verify window at the default
    // cadence); only the restore cost varies by rung. Fab restore moves one
    // box's bytes in memory; step rollback replays one iteration; buddy
    // restore streams a node's state from its ring partner; disk restart
    // relaunches and re-reads the filesystem checkpoint.
    const machine::RegionTimes it = sim.iterationTime(big);
    const machine::RecoveryComparison rc = sim.recoveryComparison(big);
    const machine::HierarchyMeta hm = sim.buildHierarchy(big);
    std::int64_t boxes = 0;
    for (const auto& lev : hm.levels) boxes += lev.ba.size();
    const machine::SdcComparison sc10 = sim.sdcComparison(big, 10);
    const double stepTime = it.total();
    const double detectLatency = 0.5 * 10 * stepTime + sc10.scanTime;
    const double fabBytes =
        static_cast<double>(sc10.residentBytes) / static_cast<double>(boxes);
    struct RungCost {
        const char* name;
        double restore;
    };
    const RungCost rungs[] = {
        {"fab_restore", fabBytes / fm.sdcScanBandwidth},
        {"step_rollback", stepTime},
        {"buddy_restore", rc.detectionLatency + rc.buddyRestoreTime},
        {"disk_restart", rc.detectionLatency + rc.diskRestoreTime},
    };
    std::fprintf(stderr, "\nmodeled waste per upset vs ladder rung:\n");
    std::fprintf(stderr, "%-16s %14s %14s\n", "rung", "restore s", "waste");
    double ladderWaste[4];
    for (int i = 0; i < 4; ++i) {
        ladderWaste[i] = fm.sdcWasteFraction(sc10.residentBytes, detectLatency,
                                             rungs[i].restore);
        std::fprintf(stderr, "%-16s %14.6f %13.6f%%\n", rungs[i].name,
                     rungs[i].restore, 100.0 * ladderWaste[i]);
        if (i > 0 && !(ladderWaste[i] >= ladderWaste[i - 1])) {
            std::fprintf(stderr,
                         "FAIL: waste at rung %s below rung %s — ladder "
                         "ordering would be wrong\n",
                         rungs[i].name, rungs[i - 1].name);
            ++failures;
        }
    }

    // ---- JSON -------------------------------------------------------------
    std::printf("{\n");
    std::printf("  \"steps\": %d,\n", kSteps);
    std::printf("  \"seed\": %llu,\n", static_cast<unsigned long long>(kSeed));
    std::printf("  \"measured_overhead\": {\n");
    std::printf("    \"baseline_s\": %.6f,\n", tOff);
    std::printf("    \"crc_digest_interval1_s\": %.6f,\n", tCrc1);
    std::printf("    \"crc_digest_interval1_fraction\": %.6f,\n", ovCrc1);
    std::printf("    \"crc_digest_interval10_s\": %.6f,\n", tCrc10);
    std::printf("    \"crc_digest_interval10_fraction\": %.6f,\n", ovCrc10);
    std::printf("    \"dual_execution_s\": %.6f,\n", tDual);
    std::printf("    \"dual_execution_increment_fraction\": %.6f,\n", ovDual);
    std::printf("    \"stamps\": %lld,\n",
                static_cast<long long>(guard10->sdcGuard().stats().stamps));
    std::printf("    \"verifies\": %lld,\n",
                static_cast<long long>(guard10->sdcGuard().stats().verifies));
    std::printf("    \"dual_checks\": %lld\n",
                static_cast<long long>(dual->profiler().calls("SdcDualExec")));
    std::printf("  },\n");
    std::printf("  \"injection_sweep\": [\n");
    for (std::size_t i = 0; i < campaigns.size(); ++i) {
        const Campaign& c = campaigns[i];
        std::printf("    {\"rate\": %.4f, \"interval\": %d, \"injected\": %lld, "
                    "\"detected\": %lld, \"repaired\": %lld, "
                    "\"undetected\": %lld, \"completed\": %s}%s\n",
                    c.rate, c.interval, static_cast<long long>(c.injected),
                    static_cast<long long>(c.detected),
                    static_cast<long long>(c.repaired),
                    static_cast<long long>(c.undetected),
                    c.completed ? "true" : "false",
                    i + 1 < campaigns.size() ? "," : "");
    }
    std::printf("  ],\n");
    std::printf("  \"false_positives\": %lld,\n",
                static_cast<long long>(falsePositives));
    std::printf("  \"modeled_4096_nodes\": {\n");
    std::printf("    \"resident_bytes\": %lld,\n",
                static_cast<long long>(atDefault.residentBytes));
    std::printf("    \"upset_mtbf_s\": %.4f,\n", atDefault.upsetMtbf);
    std::printf("    \"scan_time_s\": %.6f,\n", atDefault.scanTime);
    std::printf("    \"cadence_sweep\": [\n");
    for (std::size_t i = 0; i < swept.size(); ++i) {
        std::printf("      {\"interval\": %d, "
                    "\"detection_overhead_fraction\": %.8f, "
                    "\"guarded_waste_fraction\": %.8f, "
                    "\"unguarded_waste_fraction\": %.8f}%s\n",
                    cadences[i], swept[i].detectionOverheadFraction,
                    swept[i].guardedWasteFraction,
                    swept[i].unguardedWasteFraction,
                    i + 1 < swept.size() ? "," : "");
    }
    std::printf("    ],\n");
    std::printf("    \"waste_vs_ladder_rung\": [\n");
    for (int i = 0; i < 4; ++i)
        std::printf("      {\"rung\": \"%s\", \"restore_s\": %.8f, "
                    "\"waste_fraction\": %.8f}%s\n",
                    rungs[i].name, rungs[i].restore, ladderWaste[i],
                    i < 3 ? "," : "");
    std::printf("    ]\n");
    std::printf("  }\n");
    std::printf("}\n");

    if (failures) {
        std::fprintf(stderr, "\n%d gate(s) FAILED\n", failures);
        return 1;
    }
    return 0;
}
