#pragma once

#include "amr/AmrCore.hpp"
#include "amr/FillPatch.hpp"
#include "amr/MultiFab.hpp"
#include "core/BCFill.hpp"
#include "core/ComputeDt.hpp"
#include "core/State.hpp"
#include "core/Tagging.hpp"
#include "core/Viscous.hpp"
#include "core/Weno.hpp"
#include "mesh/CoordStore.hpp"
#include "perf/TinyProfiler.hpp"
#include "resilience/BuddyCheckpoint.hpp"
#include "resilience/FabGuard.hpp"
#include "resilience/FaultInjector.hpp"
#include "resilience/Health.hpp"
#include "resilience/RecoveryLadder.hpp"
#include "resilience/RestartManager.hpp"
#include "resilience/SdcInjector.hpp"

#include <functional>
#include <memory>

namespace crocco::core {

/// The paper's code-version ladder (§V-C). Numerics are identical across
/// versions; they differ in kernel structure, AMR on/off, and (for the
/// benchmarks) which execution-time model applies.
enum class CodeVersion {
    V10, ///< AMReX framework + Fortran kernels, no AMR, CPU
    V11, ///< C++ kernels, no AMR, CPU
    V12, ///< C++ kernels + AMR, CPU
    V20, ///< C++ kernels + AMR + GPU, custom curvilinear interpolator
    V21, ///< V20 with AMReX's built-in trilinear interpolator (no global
         ///< ParallelCopy in the interpolation path)
};

/// Which fine/coarse interpolator FillPatch uses.
enum class InterpChoice { Curvilinear, Trilinear, Weno, ConservativeLinear };

/// Initial condition: conserved state as a function of physical position.
using InitFunct = std::function<std::array<Real, NCONS>(Real x, Real y, Real z)>;

/// Resilience policy of CroccoAmr::evolve(): periodic disk checkpoints
/// through a RestartManager and in-memory buddy snapshots, the recovery
/// sources evolve() restores from when a fault escapes step(). (Declared at
/// namespace scope so evolve() can default it.)
struct EvolveOptions {
    resilience::RestartManager* restart = nullptr;
    int checkpointEvery = 0; ///< steps between checkpoints (0 = off)
    int maxRecoveries = 1;   ///< restore attempts before rethrowing
    /// In-memory buddy checkpointing: snapshot every `buddyEvery` steps
    /// into `buddy`; every recovery tries it before `restart` (a rank
    /// death adds a communicator shrink and box redistribution), and
    /// falls back to `restart` when the copy is unusable or lost.
    resilience::BuddyCheckpoint* buddy = nullptr;
    int buddyEvery = 0; ///< steps between buddy snapshots (0 = off)
};

/// CRoCCo v2.0: the curvilinear compressible solver on the block-structured
/// AMR hierarchy — Algorithm 1 (main loop) and Algorithm 2 (RK3 advance).
class CroccoAmr : public amr::AmrCore {
public:
    struct Config {
        amr::AmrInfo amrInfo;
        GasModel gas;
        Real cfl = 0.5;
        /// Steps between Regrid() calls; 0 derives the paper's estimate
        /// (timesteps for information to cross half the smallest patch).
        int regridFreq = 10;
        WenoScheme scheme = WenoScheme::Symbo;
        Reconstruction recon = Reconstruction::ComponentWise;
        KernelVariant variant = KernelVariant::Portable;
        SgsModel sgs; ///< Smagorinsky LES closure; cs = 0 means DNS mode
        InterpChoice interp = InterpChoice::Curvilinear;
        TaggingSpec tagging;
        int nranks = 1;
        /// Host worker threads for fab-parallel execution (ParmParse key
        /// `gpu.num_threads`, env override GPU_NUM_THREADS). 0 = auto
        /// (env var, else hardware_concurrency); 1 = serial execution
        /// identical to the pre-threading code path; at most
        /// gpu::ThreadPool::kMaxThreads.
        int gpuNumThreads = 0;
        /// Health-check + rollback/retry policy applied by step().
        resilience::GuardConfig guard;
        /// Silent-data-corruption guard (resilience.sdc_* keys): CRC32
        /// stamps + conserved-sum digests over the cold state, verified on
        /// a cadence and before checkpoint/mirror reads, plus sampled
        /// dual execution of the stage kernels. All off by default —
        /// stamping, verifying and repair are bitwise-transparent no-ops
        /// until sdc.guard is set.
        resilience::SdcConfig sdc;

        static Config forVersion(CodeVersion v);
    };

    CroccoAmr(const amr::Geometry& geom0, const Config& cfg,
              std::shared_ptr<const mesh::Mapping> mapping,
              parallel::SimComm* comm = nullptr);

    /// InitGrid + InitGridMetrics + InitFlow of Algorithm 1.
    void init(InitFunct initialCondition, amr::PhysBCFunct physBC);

    /// One pass of Algorithm 1's loop body: (maybe) Regrid, ComputeDt, RK3.
    /// The advanced state is health-checked, and a failed scan or an
    /// SdcFault from the dual execution rolls the step back and retries
    /// it, up to guard.maxRetries times; only a health fault retries with
    /// dt * resilience::kDtBackoff. Exhaustion restores the pre-step state and
    /// throws resilience::SolverDivergence (or rethrows the SdcFault).
    void step();
    /// Advance `nsteps` steps, writing the recovery sources `opts` names.
    /// A SolverDivergence, SdcFault or RankFailure that leaves step() is
    /// recovered the same way: within opts.maxRecoveries, restore the
    /// buddy mirror, else the newest disk checkpoint, and replay; else
    /// rethrow it.
    void evolve(int nsteps, const EvolveOptions& opts = {});

    /// Attach a (test) fault injector; non-owning, nullptr detaches.
    void setFaultInjector(resilience::FaultInjector* injector) {
        faultInjector_ = injector;
    }

    /// Attach a (test) SDC injector; non-owning, nullptr detaches. Cold
    /// flips land at the start of step() before the guard verify; stage
    /// flips land in each RK3 stage's dU before the update consumes it.
    void setSdcInjector(resilience::SdcInjector* injector) {
        sdcInjector_ = injector;
    }

    /// Every rung any recovery tried — fab repair, step rollback, buddy
    /// rebuild, disk restart, abort — and the one count of recoveries.
    const resilience::RecoveryLog& recoveryLog() const { return log_; }

    /// The SDC detection layer (stamps, digests, retained copies).
    const resilience::FabGuard& sdcGuard() const { return sdcGuard_; }
    resilience::FabGuard& sdcGuard() { return sdcGuard_; }

    /// Health report of the last completed (healthy) step.
    const resilience::HealthReport& lastHealth() const { return lastHealth_; }
    /// Step rollbacks that were retried, over the solver's lifetime.
    int rollbackCount() const {
        return log_.successes(resilience::Rung::StepRollback);
    }

    Real time() const { return time_; }
    int stepCount() const { return step_; }
    Real lastDt() const { return dt_; }

    amr::MultiFab& state(int lev) { return U_[lev]; }
    const amr::MultiFab& state(int lev) const { return U_[lev]; }
    const amr::MultiFab& coords(int lev) const { return coords_[lev]; }
    const amr::MultiFab& metrics(int lev) const { return metrics_[lev]; }
    const mesh::CoordStore& coordStore() const { return *coordStore_; }

    /// Wall-clock seconds and calls of this solver's regions only.
    perf::TinyProfiler& profiler() { return prof_; }

    /// Global conserved totals (density-weighted cell "volumes" J dxi^3),
    /// counting covered coarse cells once via the finest data.
    std::array<Real, NCONS> conservedTotals() const;

    /// The paper's regrid-frequency estimate: steps for a feature moving at
    /// one CFL per step to cross half the smallest patch width.
    int estimateRegridFreq() const;

    /// Fill a ghosted scratch copy of level `lev`'s state (FillPatch +
    /// BC_Fill of Algorithm 2). Exposed for tagging, tests and benchmarks.
    void fillPatch(int lev, amr::MultiFab& dst);

    /// Write the complete solver state — time, step, grid hierarchy and
    /// conserved fields — into `dir` (header + one binary file per level).
    /// Coordinates and metrics are *not* stored: they are regenerated from
    /// the CoordStore on restart, exactly as Regrid would (§III-C).
    /// Hardened (format v2): each level file carries a CRC32 + byte count
    /// in the header, and the whole checkpoint is staged into a temporary
    /// directory and renamed into place so a crash mid-write never leaves a
    /// half-written checkpoint under `dir`.
    void writeCheckpoint(const std::string& dir) const;

    /// Restore a checkpoint into a freshly constructed solver (same Config,
    /// geometry and mapping; do not call init() first). `ic`/`bc` supply the
    /// initial-condition and boundary functors the continued run needs.
    /// Reads format v2 only, so every payload is CRC-verified. All level
    /// files are read and verified *before* any solver state is mutated; a
    /// truncated or corrupt file throws resilience::CheckpointCorruption
    /// naming the offending level file. Levels above the checkpoint's
    /// finest are dropped. A stamped SDC guard is re-stamped: the restored
    /// state becomes its baseline.
    void readCheckpoint(const std::string& dir, InitFunct ic,
                        amr::PhysBCFunct bc);

protected:
    void errorEst(int lev, std::vector<amr::IntVect>& tags, Real time) override;
    void makeNewLevelFromScratch(int lev, Real time, const amr::BoxArray& ba,
                                 const amr::DistributionMapping& dm) override;
    void makeNewLevelFromCoarse(int lev, Real time, const amr::BoxArray& ba,
                                const amr::DistributionMapping& dm) override;
    void remakeLevel(int lev, Real time, const amr::BoxArray& ba,
                     const amr::DistributionMapping& dm) override;
    void clearLevel(int lev) override;

private:
    void defineLevelData(int lev, const amr::BoxArray& ba,
                         const amr::DistributionMapping& dm);
    /// The per-fab geometry fill of every level build. Fab f with
    /// keep[f] >= 0 takes over fab keep[f] of the level's outgoing coords_/
    /// metrics_, which has the same box and owner: both are a pure
    /// function of level and cell index, so the taken fab is bitwise the
    /// recomputation. Every other fab reads its coordinates from the
    /// CoordStore and computes its metrics, all in one pool launch. The
    /// taken fabs are moved, not copied, into fabs the caller left
    /// unallocated, so `keep` must be injective (new boxes are disjoint, so
    /// no two share an old box) and the caller must replace coords_[lev]
    /// and metrics_[lev] before anything reads them.
    void fillGeometry(int lev, amr::MultiFab& coords, amr::MultiFab& metrics,
                      const std::vector<int>& keep);
    void rk3Advance();
    void computeRhs(int lev, const amr::MultiFab& Sborder, amr::MultiFab& dU);
    const amr::Interpolater& interpolater() const;
    Real computeDtAllLevels();
    /// evolve()'s one recovery routine for a fault that left step() at
    /// the current step: check the budget, try the buddy mirror, then the
    /// disk checkpoint. Every attempt is logged at the fault's step. False
    /// means nothing restored and the caller rethrows the fault.
    bool recover(resilience::FaultClass fault, const std::string& detail,
                 int deadRank, const EvolveOptions& opts, int& recoveries);
    /// The BuddyRestore rung: rebuild the hierarchy from `buddy`. A usable
    /// snapshot was taken under the current communicator size and passes
    /// its mirror CRC check before any byte of it overwrites live state.
    /// With `deadRank` >= 0 this is ULFM-style rank-death recovery: the
    /// replica must have survived, the communicator shrinks (whether or
    /// not the mirror is usable), the dead rank's boxes move to survivors
    /// and their replicas stream in as RankRecovery traffic, and the
    /// consumed snapshot is invalidated. False = fall through to disk.
    bool restoreFromBuddy(resilience::BuddyCheckpoint* buddy, int deadRank);
    /// Make `bas`/`dms` the hierarchy's layout, with freshly defined level
    /// data whose state the caller fills: every restore's level rebuild.
    /// Levels above the restored finest are dropped as AmrCore::regrid
    /// drops them.
    void adoptLayout(const std::vector<amr::BoxArray>& bas,
                     const std::vector<amr::DistributionMapping>& dms);
    /// Guard verify + rung-0 repair: CRC-scan the stamped state, restore
    /// corrupted fabs in place from the retained copy, and throw SdcFault
    /// when a fab's restore source is itself corrupt (evolve() climbs the
    /// remaining rungs). No-op unless sdc.guard is on and stamps match the
    /// current layout. `context` labels RecoveryLog entries.
    void sdcVerifyAndRepair(const char* context);
    /// Sampled dual execution: re-run the stage RHS of one fab with the
    /// plain serial kernels and bitwise-compare against `dU`. A mismatch
    /// means a kernel produced corrupted output — throws SdcFault
    /// (KernelSdc) so step() rolls the stage back and replays.
    void dualExecuteCheck(int lev, int stage, const amr::MultiFab& Sborder,
                          const amr::MultiFab& dU);

    Config cfg_;
    std::shared_ptr<const mesh::Mapping> mapping_;
    std::unique_ptr<mesh::CoordStore> coordStore_;
    InitFunct init_;
    amr::PhysBCFunct physBC_;
    perf::TinyProfiler prof_;

    std::vector<amr::MultiFab> U_;       // conserved state, NGHOST ghosts
    std::vector<amr::MultiFab> G_;       // RK3 low-storage accumulator
    std::vector<amr::MultiFab> coords_;  // 3-comp physical coordinates
    std::vector<amr::MultiFab> metrics_; // 9-comp grid metrics

    std::unique_ptr<amr::Interpolater> interp_;
    Real time_ = 0.0;
    Real dt_ = 0.0;
    int step_ = 0;

    resilience::FaultInjector* faultInjector_ = nullptr;
    resilience::SdcInjector* sdcInjector_ = nullptr;
    resilience::FabGuard sdcGuard_;
    resilience::RecoveryLog log_;
    resilience::HealthReport lastHealth_;
};

} // namespace crocco::core
