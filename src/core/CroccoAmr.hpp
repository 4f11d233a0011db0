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
        mesh::CoordStore::Mode coordMode = mesh::CoordStore::Mode::Memory;
        std::string coordFileDir = ".";
        int nranks = 1;
        /// Host worker threads for tiled kernel execution (ParmParse key
        /// `gpu.num_threads`, env override GPU_NUM_THREADS). 0 = auto
        /// (env var, else hardware_concurrency); 1 = serial execution
        /// identical to the pre-threading code path.
        int gpuNumThreads = 0;
        /// Communication-pattern caching (`amr.comm_cache`): reuse
        /// FillBoundary/ParallelCopy copy descriptors across steps instead
        /// of re-running the BoxArray intersection search every call.
        bool commCache = true;
        /// LRU bound on distinct cached patterns (`amr.comm_cache_size`).
        int commCacheCapacity = 64;
        /// Health-check + rollback/retry policy applied by step().
        resilience::GuardConfig guard;
        /// Silent-data-corruption guard (resilience.sdc_* keys): CRC32
        /// stamps + conserved-sum digests over the cold state, verified on
        /// a cadence and before checkpoint/mirror reads, plus sampled
        /// dual execution of the stage kernels. All off by default —
        /// stamping, verifying and repair are bitwise-transparent no-ops
        /// until sdc.guard is set.
        resilience::SdcConfig sdc;
        /// Receive timeout in modeled seconds for the hardened exchange
        /// (`comm.timeout`), the base of its retransmit backoff; 0 keeps
        /// the SimComm default.
        double commTimeout = 0.0;
        /// CRC-verify every ghost/ParallelCopy payload (`comm.verify`).
        /// Off by default: the verified path records CRC-stamped messages,
        /// so the seed's byte-identical log contract requires opt-in.
        bool commVerify = false;
        /// Retransmit budget per message before the exchange raises a
        /// located error (`comm.max_retransmits`); 0 keeps the default.
        int commMaxRetransmits = 0;
        /// Print a per-step exchange summary (messages, bytes, retransmits)
        /// from the CommLog after every step (`comm.log_summary`).
        bool commLogSummary = false;

        static Config forVersion(CodeVersion v);
    };

    /// Resilience policy of evolve(): periodic checkpoints through a
    /// RestartManager and automatic recovery from SolverDivergence by
    /// restoring the newest good checkpoint and replaying.
    struct EvolveOptions {
        resilience::RestartManager* restart = nullptr;
        int checkpointEvery = 0; ///< steps between checkpoints (0 = off)
        int maxRecoveries = 1;   ///< restore attempts before rethrowing
        /// In-memory buddy checkpointing: snapshot every `buddyEvery` steps
        /// into `buddy`; a rank death restores from it (communicator shrink
        /// + box redistribution) without touching disk, falling back to
        /// `restart` when the buddy copy is unavailable or also lost.
        resilience::BuddyCheckpoint* buddy = nullptr;
        int buddyEvery = 0; ///< steps between buddy snapshots (0 = off)
    };

    CroccoAmr(const amr::Geometry& geom0, const Config& cfg,
              std::shared_ptr<const mesh::Mapping> mapping,
              parallel::SimComm* comm = nullptr);
    ~CroccoAmr() override;

    /// InitGrid + InitGridMetrics + InitFlow of Algorithm 1.
    void init(InitFunct initialCondition, amr::PhysBCFunct physBC);

    /// One pass of Algorithm 1's loop body: (maybe) Regrid, ComputeDt, RK3.
    /// With Config::guard enabled, the advanced state is health-checked and
    /// the step rolled back and retried with dt * guard.dtBackoff on
    /// corruption, up to guard.maxRetries; exhaustion restores the pre-step
    /// state and throws resilience::SolverDivergence.
    void step();
    void evolve(int nsteps);
    /// evolve with periodic checkpointing and divergence auto-recovery.
    void evolve(int nsteps, const EvolveOptions& opts);

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

    /// The unified recovery-ladder policy + structured log. Every recovery
    /// path — fab repair, step rollback, buddy rebuild, disk restart —
    /// records the rung it climbed here.
    resilience::RecoveryLadder& ladder() { return ladder_; }
    const resilience::RecoveryLog& recoveryLog() const { return ladder_.log(); }

    /// The SDC detection layer (stamps, digests, dual-execution stats).
    const resilience::FabGuard& sdcGuard() const { return sdcGuard_; }
    resilience::FabGuard& sdcGuard() { return sdcGuard_; }

    /// Health report of the last completed (healthy) step.
    const resilience::HealthReport& lastHealth() const { return lastHealth_; }
    /// The exchange digest of the last completed step, as printed under
    /// comm.log_summary ("step N comm: msgs=... bytes=... ..."); empty when
    /// the key is off or no step has run. Tests assert on this instead of
    /// scraping stdout.
    const std::string& lastCommSummary() const { return lastCommSummary_; }
    /// Rollback/retry attempts performed over the solver's lifetime.
    int rollbackCount() const { return rollbackCount_; }
    /// Checkpoint-restore recoveries performed by evolve() overloads.
    int recoveryCount() const { return recoveryCount_; }
    /// Rank-death recoveries performed by evolve() (subset of the above),
    /// split by restore source.
    int rankRecoveryCount() const {
        return buddyRecoveryCount_ + diskRecoveryCount_;
    }
    int buddyRecoveryCount() const { return buddyRecoveryCount_; }
    int diskRecoveryCount() const { return diskRecoveryCount_; }
    /// Fab-granular in-place repairs served by the guard (ladder rung 0).
    int fabRestoreCount() const { return fabRestoreCount_; }

    Real time() const { return time_; }
    int stepCount() const { return step_; }
    Real lastDt() const { return dt_; }

    amr::MultiFab& state(int lev) { return U_[lev]; }
    const amr::MultiFab& state(int lev) const { return U_[lev]; }
    const amr::MultiFab& coords(int lev) const { return coords_[lev]; }
    const amr::MultiFab& metrics(int lev) const { return metrics_[lev]; }
    const mesh::CoordStore& coordStore() const { return *coordStore_; }

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
    /// Reads both format v2 (CRC-verified) and legacy v1. All level files
    /// are read and verified *before* any solver state is mutated; a
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
    /// keep[f] >= 0 copies fab keep[f] of the level's outgoing coords_/
    /// metrics_, which has the same box and owner: both are a pure
    /// function of level and cell index, so the copy is bitwise the
    /// recomputation. Every other fab reads its coordinates from the
    /// CoordStore and computes its metrics, all in one pool launch.
    void fillGeometry(int lev, amr::MultiFab& coords, amr::MultiFab& metrics,
                      const std::vector<int>& keep);
    void rk3Advance();
    void computeRhs(int lev, const amr::MultiFab& Sborder, amr::MultiFab& dU);
    const amr::Interpolater& interpolater() const;
    Real computeDtAllLevels();
    /// ULFM-style rank-death recovery: shrink the communicator, rebuild
    /// every DistributionMapping without the dead rank, and restore the
    /// hierarchy from the buddy snapshot. Returns false when no usable
    /// buddy copy exists — the communicator is still shrunk, and the
    /// caller must restore from disk instead.
    bool recoverFromRankDeath(int deadRank, const EvolveOptions& opts);
    /// Ladder rung: rebuild the whole hierarchy from the buddy mirror
    /// *without* a rank death (SDC escalation path). The mirror CRC is
    /// verified before any byte overwrites live state; returns false when
    /// no verified, same-sized snapshot exists — fall through to disk.
    bool restoreFromBuddySnapshot(const EvolveOptions& opts);
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
    /// comm.log_summary: render + print the digest of the traffic this
    /// step generated (from commLogMark_ to the log end) and advance the
    /// mark. No-op unless the key is on and a communicator is attached.
    void emitCommSummary();

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
    resilience::RecoveryLadder ladder_;
    /// CommLog index where the current step's traffic starts — the
    /// comm.log_summary printout summarizes messages from this mark on.
    std::size_t commLogMark_ = 0;
    std::string lastCommSummary_;
    resilience::HealthReport lastHealth_;
    int rollbackCount_ = 0;
    int recoveryCount_ = 0;
    int buddyRecoveryCount_ = 0;
    int diskRecoveryCount_ = 0;
    int fabRestoreCount_ = 0;
};

} // namespace crocco::core
